package workload

import (
	"math/rand"
	"testing"
)

// TestTapeMatchesFreshSource checks that a rand.Rand over a tape yields,
// after every rewind, exactly the values of a freshly seeded math/rand
// source, for random mixes of the calls the generator makes. Rounds draw
// random lengths, so later rounds replay the recording and then draw past
// its end; one tape serves every seed.
func TestTapeMatchesFreshSource(t *testing.T) {
	mix := rand.New(rand.NewSource(1))
	tp := &tape{src: &lazySource{}}
	rng := rand.New(tp)
	pastEnd := 0
	for s := 0; s < 300; s++ {
		seed := mix.Int63() - mix.Int63()
		tp.Seed(seed)
		for round := 0; round < 4; round++ {
			tp.rewind()
			recorded := len(tp.vals)
			ref := rand.New(rand.NewSource(seed))
			n := 1 + mix.Intn(40)
			for i := 0; i < n; i++ {
				switch mix.Intn(3) {
				case 0:
					m := 1 + mix.Int63n(1<<uint(1+mix.Intn(62)))
					if got, want := rng.Int63n(m), ref.Int63n(m); got != want {
						t.Fatalf("seed %d round %d draw %d: Int63n(%d) = %d, want %d", seed, round, i, m, got, want)
					}
				case 1:
					if got, want := rng.Float64(), ref.Float64(); got != want {
						t.Fatalf("seed %d round %d draw %d: Float64 = %v, want %v", seed, round, i, got, want)
					}
				case 2:
					m := 1 + mix.Intn(1000)
					if got, want := rng.Intn(m), ref.Intn(m); got != want {
						t.Fatalf("seed %d round %d draw %d: Intn(%d) = %d, want %d", seed, round, i, m, got, want)
					}
				}
			}
			if round > 0 && recorded > 0 && len(tp.vals) > recorded {
				pastEnd++
			}
		}
	}
	if pastEnd == 0 {
		t.Fatal("no round drew past the end of a recorded tape")
	}
}
