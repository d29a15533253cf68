package experiments

import (
	"errors"
	"math"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hmg/internal/engine"
	"hmg/internal/gsim"
	"hmg/internal/proto"
	"hmg/internal/topo"
	"hmg/internal/workload"
)

// storeRunner builds a Runner whose memo cache is backed by the
// persistent store at dir; fresh calls with the same dir model separate
// processes sharing one store.
func storeRunner(t *testing.T, dir string) *Runner {
	t.Helper()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(Options{Scale: 0.1, SMsPerGPM: 4, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMemoizedErrorRetry reproduces the error-poisoning bug: a failed
// simulation's cache entry must be published to its concurrent waiters
// and then evicted, so the next request re-simulates instead of
// replaying the stale error forever.
func TestMemoizedErrorRetry(t *testing.T) {
	r := testRunner()
	key := runKey{bench: workload.Params{Abbrev: "synthetic"}, kind: proto.HMG}
	boom := errors.New("transient simulation failure")
	var calls atomic.Int32
	release := make(chan struct{})

	const waiters = 8
	errs := make([]error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := r.memoized(key, func() (*gsim.Results, error) {
				calls.Add(1)
				<-release // hold the singleflight slot until every duplicate has piled up
				return nil, boom
			})
			errs[i] = err
		}(i)
	}
	waitFor(t, "duplicate requesters to block", func() bool { return r.Summary().MemoHits == waiters-1 })
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("requester %d got %v, want the owner's error", i, err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("failing sim executed %d times across concurrent requesters, want 1", n)
	}

	// The key must not be poisoned: a later request re-simulates.
	res, err := r.memoized(key, func() (*gsim.Results, error) {
		calls.Add(1)
		return &gsim.Results{Name: "synthetic", Cycles: 42}, nil
	})
	if err != nil {
		t.Fatalf("retry after failure still errors: %v", err)
	}
	if res.Cycles != 42 || calls.Load() != 2 {
		t.Fatalf("retry did not re-simulate (cycles %d, calls %d)", res.Cycles, calls.Load())
	}
	// And the successful retry is cached like any other run.
	again, err := r.memoized(key, func() (*gsim.Results, error) {
		t.Error("cached success re-simulated")
		return nil, nil
	})
	if err != nil || again != res {
		t.Fatalf("cached success not served: %v %v", again, err)
	}
	if s := r.Summary(); s.UniqueRuns != 1 {
		t.Fatalf("UniqueRuns = %d after one failure and one success, want 1", s.UniqueRuns)
	}
}

// TestMemoChainsCollidingDigests: keys that differ only in fields the
// memo's digest skips share its chain, and the memo still tells them
// apart: each simulates once, is served back on its own, and a failure
// evicts only its own entry. An insert allocates the entry and its done
// channel, never a copy of the key.
func TestMemoChainsCollidingDigests(t *testing.T) {
	r := testRunner()
	keys := make([]runKey, 3)
	for i := range keys {
		keys[i] = runKey{bench: workload.Params{Abbrev: "synthetic", Kernels: i + 1}, kind: proto.HMG}
		if keys[i].digest() != keys[0].digest() {
			t.Fatalf("key %d's digest differs; the test needs a collision", i)
		}
	}
	sim := func(cycles engine.Cycle) func() (*gsim.Results, error) {
		return func() (*gsim.Results, error) { return &gsim.Results{Cycles: cycles}, nil }
	}
	if _, err := r.memoized(keys[0], sim(1)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, err := r.memoized(keys[1], func() (*gsim.Results, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, err := r.memoized(keys[2], sim(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.memoized(keys[1], sim(2)); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		res, err := r.memoized(k, func() (*gsim.Results, error) {
			t.Errorf("key %d re-simulated", i)
			return nil, nil
		})
		if err != nil || res.Cycles != engine.Cycle(i+1) {
			t.Fatalf("key %d served %+v, %v; want its own result", i, res, err)
		}
	}
	if s := r.Summary(); s.UniqueRuns != 3 || s.MemoHits != 3 {
		t.Fatalf("UniqueRuns %d, MemoHits %d; want 3 and 3", s.UniqueRuns, s.MemoHits)
	}
	next := 100
	if n := testing.AllocsPerRun(20, func() {
		next++
		k := runKey{bench: workload.Params{Abbrev: "synthetic", Kernels: next}, kind: proto.HMG}
		if _, err := r.memoized(k, func() (*gsim.Results, error) { return nil, boom }); !errors.Is(err, boom) {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Fatalf("a memo insert makes %v allocations, want at most 2 (the entry and its channel)", n)
	}
}

// TestFailedRunsNeverStored: only successful simulations reach the
// persistent tier.
func TestFailedRunsNeverStored(t *testing.T) {
	dir := t.TempDir()
	r := storeRunner(t, dir)
	key := runKey{bench: workload.Params{Abbrev: "synthetic"}, kind: proto.HMG}
	dk := r.storeKey(key)
	boom := errors.New("boom")
	if _, err := r.memoized(key, func() (*gsim.Results, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n, err := r.opts.Store.Len(); err != nil || n != 0 {
		t.Fatalf("store holds %d records after a failed run (err %v), want 0", n, err)
	}
	s := r.Summary()
	if s.DiskMisses != 1 || s.DiskWrites != 0 || s.DiskHits != 0 {
		t.Fatalf("disk accounting after failure = %+v", s)
	}
	// The retry succeeds and is written back.
	want := &gsim.Results{Name: "synthetic", Cycles: 7}
	if _, err := r.memoized(key, func() (*gsim.Results, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	if got, ok := r.opts.Store.Get(dk); !ok || got.Cycles != want.Cycles {
		t.Fatalf("successful retry not stored: %v %v", got, ok)
	}
	if s := r.Summary(); s.DiskWrites != 1 {
		t.Fatalf("DiskWrites = %d, want 1", s.DiskWrites)
	}
}

// TestStoreColdWarm: a second runner over the same store directory —
// a fresh process — serves every run from disk without simulating, and
// the served results are bit-identical to the cold run's.
func TestStoreColdWarm(t *testing.T) {
	dir := t.TempDir()
	b, err := workload.Get("overfeat")
	if err != nil {
		t.Fatal(err)
	}

	cold := storeRunner(t, dir)
	r1, err := cold.Run(b, proto.HMG, Variant{})
	if err != nil {
		t.Fatal(err)
	}
	if s := cold.Summary(); s.UniqueRuns != 1 || s.DiskMisses != 1 || s.DiskWrites != 1 || s.DiskHits != 0 {
		t.Fatalf("cold accounting = %+v", s)
	}

	warm := storeRunner(t, dir)
	r2, err := warm.Run(b, proto.HMG, Variant{})
	if err != nil {
		t.Fatal(err)
	}
	if s := warm.Summary(); s.UniqueRuns != 0 || s.DiskHits != 1 || s.DiskMisses != 0 {
		t.Fatalf("warm accounting = %+v", s)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("warm results differ from cold:\ncold %+v\nwarm %+v", r1, r2)
	}
	// Within the warm process, repeats are in-memory memo hits, not
	// repeated disk reads.
	if _, err := warm.Run(b, proto.HMG, Variant{}); err != nil {
		t.Fatal(err)
	}
	if s := warm.Summary(); s.MemoHits != 1 || s.DiskHits != 1 {
		t.Fatalf("warm repeat accounting = %+v", s)
	}
}

// TestStoreCorruptionResimulates: a damaged record is a miss — the run
// re-simulates to identical results and repopulates the store.
func TestStoreCorruptionResimulates(t *testing.T) {
	dir := t.TempDir()
	b, err := workload.Get("overfeat")
	if err != nil {
		t.Fatal(err)
	}
	cold := storeRunner(t, dir)
	r1, err := cold.Run(b, proto.HMG, Variant{})
	if err != nil {
		t.Fatal(err)
	}

	path := cold.opts.Store.Path(cold.StoreKey(b, proto.HMG, Variant{}, topo.Spec{}))
	rec, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("record not at derived path: %v", err)
	}
	rec[len(rec)-1] ^= 0xFF // flip a payload byte
	if err := os.WriteFile(path, rec, 0o644); err != nil {
		t.Fatal(err)
	}

	warm := storeRunner(t, dir)
	r2, err := warm.Run(b, proto.HMG, Variant{})
	if err != nil {
		t.Fatal(err)
	}
	if s := warm.Summary(); s.UniqueRuns != 1 || s.DiskHits != 0 || s.DiskMisses != 1 || s.DiskWrites != 1 {
		t.Fatalf("corrupted-record accounting = %+v (want a re-simulation and write-back)", s)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("re-simulated results differ from the original: %+v vs %+v", r1, r2)
	}
	// The write-back healed the store: a third runner gets a disk hit.
	healed := storeRunner(t, dir)
	if _, err := healed.Run(b, proto.HMG, Variant{}); err != nil {
		t.Fatal(err)
	}
	if s := healed.Summary(); s.UniqueRuns != 0 || s.DiskHits != 1 {
		t.Fatalf("healed-store accounting = %+v", s)
	}
}

// TestStoreKeyCanonicalization pins the content-address contract: keys
// collapse exactly where the in-process memo key does, and separate
// wherever the run specification or campaign scaling differs.
func TestStoreKeyCanonicalization(t *testing.T) {
	r := testRunner()
	b, err := workload.Get("overfeat")
	if err != nil {
		t.Fatal(err)
	}
	base := r.StoreKey(b, proto.HMG, Variant{}, topo.Spec{})
	// The address is pinned: it digests the same strings whatever form
	// the in-process key takes, so records written by earlier builds of
	// the same model keep hitting. A model-version change moves it.
	const want = "58044efa6f3242996423931d53b3c763d4a63b97760653e5c0ae976fdb53c477"
	if got := base.String(); got != want {
		t.Fatalf("overfeat/HMG store address = %s, want %s", got, want)
	}
	// Software configurations canonicalize directory parameters away.
	s1 := r.StoreKey(b, proto.SWHier, Variant{DirEntries: 3 * 1024}, topo.Spec{})
	s2 := r.StoreKey(b, proto.SWHier, Variant{DirEntries: 6 * 1024}, topo.Spec{})
	if s1 != s2 {
		t.Fatal("software runs with different directory sizes should share a key")
	}
	// Hardware configurations must not.
	h1 := r.StoreKey(b, proto.HMG, Variant{DirEntries: 3 * 1024}, topo.Spec{})
	if h1 == base {
		t.Fatal("directory size ignored in a hardware key")
	}
	// A per-run topology override equal to the base shape is the base key.
	if k := r.StoreKey(b, proto.HMG, Variant{}, topo.Spec{NumGPUs: 4}); k != base {
		t.Fatal("base-shape override should share the plain key")
	}
	if k := r.StoreKey(b, proto.HMG, Variant{}, topo.Spec{NumGPUs: 8}); k == base {
		t.Fatal("8-GPU override collides with the base key")
	}
	// Campaign scaling options are part of the run's identity.
	r2, err := NewRunner(Options{Scale: 0.2, SMsPerGPM: 4})
	if err != nil {
		t.Fatal(err)
	}
	if r2.StoreKey(b, proto.HMG, Variant{}, topo.Spec{}) == base {
		t.Fatal("different Scale collides")
	}
	r3, err := NewRunner(Options{Scale: 0.1, SMsPerGPM: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r3.StoreKey(b, proto.HMG, Variant{}, topo.Spec{}) == base {
		t.Fatal("different SMsPerGPM collides")
	}
	// Distinct benchmarks separate even at equal shape parameters.
	b2, err := workload.Get("lstm")
	if err != nil {
		t.Fatal(err)
	}
	if r.StoreKey(b2, proto.HMG, Variant{}, topo.Spec{}) == base {
		t.Fatal("distinct benchmarks collide")
	}
}

func TestModelVersion(t *testing.T) {
	v := ModelVersion()
	if v == "" || v != ModelVersion() {
		t.Fatalf("ModelVersion unstable: %q", v)
	}
	for _, part := range []string{"hmg-model", "tablei", "results"} {
		if !strings.Contains(v, part) {
			t.Fatalf("ModelVersion %q missing %q", v, part)
		}
	}
	// The stamp is a cache key in CI — keep it shell- and
	// actions/cache-safe.
	if strings.ContainsAny(v, " ,\n\t/") {
		t.Fatalf("ModelVersion %q contains characters unsafe for cache keys", v)
	}
}

func TestOptionsScaleNaN(t *testing.T) {
	if _, err := NewRunner(Options{Scale: math.NaN()}); err == nil {
		t.Fatal("NewRunner accepted NaN Scale")
	}
}
