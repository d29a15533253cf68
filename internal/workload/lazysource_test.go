package workload

import (
	"math"
	"math/rand"
	"testing"
)

// TestLazySourceMatchesMathRand checks that lazySource yields exactly the
// stream of a freshly seeded math/rand source: on the edge seeds of
// Seed's normalization and on random ones, one source reseeded for
// each, drawing past the 607-word wrap of the state vector.
func TestLazySourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, int32max, -int32max, int32max + 1, math.MinInt64, math.MaxInt64, 89482311}
	mix := rand.New(rand.NewSource(7))
	for len(seeds) < 200 {
		seeds = append(seeds, mix.Int63()-mix.Int63())
	}
	var src lazySource
	for _, seed := range seeds {
		src.Seed(seed)
		ref := rand.NewSource(seed)
		for i := 0; i < 1500; i++ {
			if got, want := src.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d draw %d: Int63 = %d, want %d", seed, i, got, want)
			}
		}
	}
}

// TestLazySourceEpochWrap: when the epoch counter wraps, words stamped in
// old epochs are derived afresh, not served stale.
func TestLazySourceEpochWrap(t *testing.T) {
	var src lazySource
	src.Seed(5)
	src.Int63()
	src.epoch = math.MaxUint32 // the next Seed wraps the counter
	for _, seed := range []int64{6, 7} {
		src.Seed(seed)
		ref := rand.NewSource(seed)
		for i := 0; i < 700; i++ {
			if got, want := src.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d draw %d after the wrap: Int63 = %d, want %d", seed, i, got, want)
			}
		}
	}
}
