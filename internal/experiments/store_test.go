package experiments

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hmg/internal/gsim"
	"hmg/internal/proto"
	"hmg/internal/resstore"
	"hmg/internal/topo"
	"hmg/internal/trace"
	"hmg/internal/wire"
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
	// An insert allocates the entry and its done channel, never a copy
	// of the key.
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
	dk := r.address(key)
	boom := errors.New("boom")
	if _, err := r.memoized(key, func() (*gsim.Results, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if recs, err := filepath.Glob(filepath.Join(dir, "*.res")); err != nil || len(recs) != 0 {
		t.Fatalf("store holds %d records after a failed run (err %v), want 0", len(recs), err)
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
	// The address is pinned, so records written by earlier builds of the
	// same model keep hitting. A model-version change moves it. It moved
	// once more when the preimage became the internal/wire encoding of one
	// struct (varint integers, no hmg-runspec-v2 tag) and the stamp's
	// results-v1 became the wire schemas of Results and of that preimage:
	// a2b02406…6df5e8 before.
	const want = "2d7ef071cf774a88fdffb8f3b202686497fe45d85fe53433dca435b38be89264"
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

// TestStoreKeyCoversEveryField perturbs each field of the run's
// benchmark parameters, variant and topology override, and each
// campaign scaling option, and requires every perturbation to move the
// address: no field drops out of the run's identity.
func TestStoreKeyCoversEveryField(t *testing.T) {
	r := testRunner()
	b, err := workload.Get("overfeat")
	if err != nil {
		t.Fatal(err)
	}
	v := Variant{}.withDefaults()
	sp := topo.Spec{NumGPUs: 4, GPMsPerGPU: 4}
	base := r.StoreKey(b, proto.HMG, v, sp)
	if r.StoreKey(b, proto.HMG, v, sp) != base {
		t.Fatal("StoreKey is not deterministic")
	}
	// eachField perturbs field i of the struct *p in turn, calling moved
	// with the field's name while it differs from the original.
	eachField := func(p any, moved func(name string)) {
		s := reflect.ValueOf(p).Elem()
		for i := 0; i < s.NumField(); i++ {
			f := s.Field(i)
			orig := reflect.New(f.Type()).Elem()
			orig.Set(f)
			switch f.Kind() {
			case reflect.Bool:
				f.SetBool(!f.Bool())
			case reflect.Int, reflect.Int64:
				f.SetInt(f.Int() + 1)
			case reflect.Uint8:
				f.SetUint(f.Uint() + 1)
			case reflect.Float64:
				f.SetFloat(f.Float() + 0.5)
			case reflect.String:
				f.SetString(f.String() + "'")
			default:
				t.Fatalf("%s.%s: no perturbation for kind %v", s.Type(), s.Type().Field(i).Name, f.Kind())
			}
			moved(s.Type().String() + "." + s.Type().Field(i).Name)
			f.Set(orig)
		}
	}
	check := func(name string, k resstore.Key) {
		t.Helper()
		if k == base {
			t.Errorf("perturbing %s leaves the address unchanged", name)
		}
	}
	eachField(&b, func(name string) { check(name, r.StoreKey(b, proto.HMG, v, sp)) })
	eachField(&v, func(name string) { check(name, r.StoreKey(b, proto.HMG, v, sp)) })
	eachField(&sp, func(name string) { check(name, r.StoreKey(b, proto.HMG, v, sp)) })
	check("kind", r.StoreKey(b, proto.NHCC, v, sp))
	for _, o := range []Options{{Scale: 0.2, SMsPerGPM: 4}, {Scale: 0.1, SMsPerGPM: 8}} {
		r2, err := NewRunner(o)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("options to %+v", o), r2.StoreKey(b, proto.HMG, v, sp))
	}
}

// TestStoreKeyAllocatesNothing: a content address is computed in a
// stack buffer, so the memo pays no allocation per lookup.
func TestStoreKeyAllocatesNothing(t *testing.T) {
	r := testRunner()
	b, err := workload.Get("overfeat")
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		r.StoreKey(b, proto.HMG, Variant{Downgrade: true}, topo.Spec{NumGPUs: 8})
	}); n != 0 {
		t.Fatalf("StoreKey makes %v allocations, want 0", n)
	}
}

func TestModelVersion(t *testing.T) {
	v := ModelVersion()
	if v == "" || v != ModelVersion() {
		t.Fatalf("ModelVersion unstable: %q", v)
	}
	results := wire.Schema(reflect.TypeOf(gsim.Results{}))
	for _, part := range []string{"hmg-model", "tablei", fmt.Sprintf("results-%x", results[:8]), "runspec"} {
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

// emptySlices returns the path of every slice within t whose element
// can encode to zero bytes: a struct whose fields are all such structs.
// wire.Decode rejects a slice count larger than the bytes left, which
// bounds its allocation only if every element takes at least one byte.
func emptySlices(t reflect.Type, path string) []string {
	switch t.Kind() {
	case reflect.Struct:
		var bad []string
		for i := 0; i < t.NumField(); i++ {
			bad = append(bad, emptySlices(t.Field(i).Type, path+"."+t.Field(i).Name)...)
		}
		return bad
	case reflect.Slice:
		bad := emptySlices(t.Elem(), path+"[]")
		if zeroWidth(t.Elem()) {
			bad = append(bad, path)
		}
		return bad
	}
	return nil
}

// zeroWidth reports whether some value of t encodes to zero bytes.
func zeroWidth(t reflect.Type) bool {
	if t.Kind() != reflect.Struct {
		return false // every other encoded kind writes at least a byte
	}
	for i := 0; i < t.NumField(); i++ {
		if !zeroWidth(t.Field(i).Type) {
			return false
		}
	}
	return true
}

// TestWireCountGuardPremise: every type this repo encodes with
// internal/wire (the Results record, the run-address preimage and the
// trace file) holds no slice whose elements can encode to zero bytes,
// so wire's count guard bounds what a damaged or hostile input can
// allocate.
func TestWireCountGuardPremise(t *testing.T) {
	for _, v := range []any{gsim.Results{}, preimage{}, trace.Trace{}} {
		typ := reflect.TypeOf(v)
		if bad := emptySlices(typ, typ.Name()); len(bad) > 0 {
			t.Errorf("%s holds slices of zero-width elements: %v", typ, bad)
		}
	}
	// The walk's own teeth: nested and direct zero-width elements.
	type empty struct{ E struct{} }
	type hostile struct {
		Ok   []struct{ N int }
		Es   []empty
		Deep []struct{ Xs []struct{} }
	}
	got := emptySlices(reflect.TypeOf(hostile{}), "hostile")
	if want := []string{"hostile.Es", "hostile.Deep[].Xs"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("emptySlices(hostile) = %v, want %v", got, want)
	}
}

func TestOptionsScaleNaN(t *testing.T) {
	if _, err := NewRunner(Options{Scale: math.NaN()}); err == nil {
		t.Fatal("NewRunner accepted NaN Scale")
	}
}
