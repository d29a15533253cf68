package experiments

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"hmg/internal/gsim"
	"hmg/internal/proto"
	"hmg/internal/topo"
	"hmg/internal/workload"
)

func TestOptionsValidation(t *testing.T) {
	for _, bad := range []Options{
		{Scale: -0.5},
		{Scale: 1.5},
		{SMsPerGPM: -4},
		{Jobs: -2},
	} {
		if _, err := NewRunner(bad); err == nil {
			t.Errorf("NewRunner(%+v) accepted invalid options", bad)
		}
	}
	r, err := NewRunner(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Options().Jobs != runtime.GOMAXPROCS(0) {
		t.Fatalf("default Jobs = %d, want GOMAXPROCS %d", r.Options().Jobs, runtime.GOMAXPROCS(0))
	}
}

// TestConcurrentRunSingleflight hammers one (bench, kind, variant) key
// from many goroutines: exactly one simulation may execute, with every
// duplicate requester blocking on and sharing the first run's result.
func TestConcurrentRunSingleflight(t *testing.T) {
	r := testRunner()
	b, _ := workload.Get("overfeat")
	const goroutines = 16
	results := make([]*gsim.Results, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := r.Run(b, proto.HMG, Variant{})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if results[i] != results[0] {
			t.Fatalf("goroutine %d got a different *Results than goroutine 0", i)
		}
	}
	s := r.Summary()
	if s.UniqueRuns != 1 {
		t.Fatalf("%d simulations executed for one key, want exactly 1", s.UniqueRuns)
	}
	if s.MemoHits != goroutines-1 {
		t.Fatalf("memo hits = %d, want %d", s.MemoHits, goroutines-1)
	}
}

// TestPrewarmDeterminism runs the same plan serially and on 8 workers:
// per-run results must be bit-equal, and (out of -short) the Fig. 9
// table rendering must be byte-identical.
func TestPrewarmDeterminism(t *testing.T) {
	scale := 0.1
	suite := workload.Suite()[:4]
	plan := func() []RunSpec {
		var specs []RunSpec
		for _, b := range suite {
			specs = append(specs, RunSpec{Bench: b, Kind: proto.NoRemoteCache})
			specs = append(specs, RunSpec{Bench: b, Kind: proto.HMG})
		}
		return specs
	}
	newRunner := func(jobs int) *Runner {
		r, err := NewRunner(Options{Scale: scale, SMsPerGPM: 4, Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	serial, parallel := newRunner(1), newRunner(8)
	if err := serial.Prewarm(plan()); err != nil {
		t.Fatal(err)
	}
	if err := parallel.Prewarm(plan()); err != nil {
		t.Fatal(err)
	}
	if s := parallel.Summary(); s.UniqueRuns != len(suite)*2 {
		t.Fatalf("parallel prewarm ran %d unique sims, want %d", s.UniqueRuns, len(suite)*2)
	}
	for _, b := range suite {
		for _, k := range []proto.Kind{proto.NoRemoteCache, proto.HMG} {
			r1, err := serial.Run(b, k, Variant{})
			if err != nil {
				t.Fatal(err)
			}
			r2, err := parallel.Run(b, k, Variant{})
			if err != nil {
				t.Fatal(err)
			}
			if r1.Cycles != r2.Cycles || r1.EventsExecuted != r2.EventsExecuted ||
				r1.InterGPUBytes != r2.InterGPUBytes {
				t.Fatalf("%s/%v differs across jobs=1 and jobs=8: %+v vs %+v", b.Abbrev, k, r1, r2)
			}
		}
	}

	if testing.Short() {
		return
	}
	// Full figure at both parallelism levels: the rendered table must
	// match byte for byte.
	fig9 := func(jobs int) string {
		r := newRunner(jobs)
		if err := r.Prewarm(PlanUnion([]Figure{figure(t, "9")})); err != nil {
			t.Fatal(err)
		}
		tab, err := Fig9(r)
		if err != nil {
			t.Fatal(err)
		}
		return tab.String()
	}
	if s, p := fig9(1), fig9(8); s != p {
		t.Fatalf("Fig9 output differs between -jobs 1 and -jobs 8:\n--- jobs=1\n%s\n--- jobs=8\n%s", s, p)
	}
}

// figure returns the registry entry called name.
func figure(t *testing.T, name string) Figure {
	t.Helper()
	for _, f := range Figures() {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("no figure %q in the registry", name)
	return Figure{}
}

// uniqueKeys folds specs to their memo keys in first-request order.
func uniqueKeys(r *Runner, specs []RunSpec) []runKey {
	seen := map[runKey]bool{}
	var keys []runKey
	for _, s := range specs {
		k := r.key(s.Bench, s.Kind, s.V, s.Topo)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

// TestRegistry checks the campaign registry invariants the hmgbench
// command relies on: unique names, generators for every entry, and
// recorded plans whose specs all canonicalize into the runner's memo
// space.
func TestRegistry(t *testing.T) {
	figs := Figures()
	if len(figs) != 22 {
		t.Fatalf("registry has %d figures, want 22", len(figs))
	}
	seen := map[string]bool{}
	for _, f := range figs {
		if f.Name == "" || f.Gen == nil {
			t.Fatalf("registry entry %+v incomplete", f.Name)
		}
		if seen[strings.ToLower(f.Name)] {
			t.Fatalf("duplicate figure name %q", f.Name)
		}
		seen[strings.ToLower(f.Name)] = true
	}
	// The Fig. 8 plan covers the suite under six protocols (five
	// configurations plus the shared baseline), deduplicating to
	// 20 benchmarks × 6 kinds unique keys.
	r := testRunner()
	keys := map[runKey]bool{}
	for _, k := range uniqueKeys(r, PlanUnion([]Figure{figure(t, "8")})) {
		keys[k] = true
	}
	if want := 20 * 6; len(keys) != want {
		t.Fatalf("fig8 plan has %d unique keys, want %d", len(keys), want)
	}
	// The scaling plan's 4-GPU machine shares keys with the Table II
	// runs: its NoRemoteCache/HMG points at 4 GPUs must collide with
	// the Fig. 8 baseline keys.
	shared := 0
	for _, k := range uniqueKeys(r, PlanUnion([]Figure{figure(t, "scaling")})) {
		if keys[k] {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("scaling plan at 4 GPUs does not reuse Table II memo keys")
	}
}

// TestFigurePlans pins the runs each memoized figure's generator asks
// for, as PlanUnion records them: the unique memo keys per figure, that
// no figure asks for the same run twice, and the order in which
// Figs. 8–11 first ask for theirs, which is the order a cold prewarm
// hands them to its workers.
func TestFigurePlans(t *testing.T) {
	want := map[string]int{
		"2": 80, "8": 120, "9": 20, "10": 20, "11": 20,
		"12": 340, "13": 260, "14": 180, "granularity": 220,
		"downgrade": 60, "writeback": 100, "gpmscope": 12, "scaling": 300,
		"toposcale": 45, "carve": 80, "locality": 100, "mca": 80,
	}
	r := testRunner()
	memo := 0
	for _, f := range Figures() {
		if f.static {
			continue
		}
		memo++
		plan := PlanUnion([]Figure{f})
		if got := len(uniqueKeys(r, plan)); got != want[f.Name] {
			t.Errorf("figure %s plans %d unique runs, want %d", f.Name, got, want[f.Name])
		}
		asked := make(map[RunSpec]bool, len(plan))
		for _, s := range plan {
			if asked[s] {
				t.Errorf("figure %s asks for %s/%v %+v on %v twice", f.Name, s.Bench.Abbrev, s.Kind, s.V, s.Topo)
				break
			}
			asked[s] = true
		}
	}
	if memo != len(want) {
		t.Errorf("%d figures make memoized runs, want %d", memo, len(want))
	}

	var figs []Figure
	for _, name := range []string{"8", "9", "10", "11"} {
		figs = append(figs, figure(t, name))
	}
	var order []runKey
	for _, b := range workload.Suite() {
		for _, k := range []proto.Kind{proto.NoRemoteCache, proto.SWNonHier, proto.NHCC, proto.SWHier, proto.HMG, proto.Ideal} {
			order = append(order, r.key(b, k, Variant{}, topo.Spec{}))
		}
	}
	if got := uniqueKeys(r, PlanUnion(figs)); !reflect.DeepEqual(got, order) {
		t.Fatalf("Figs. 8-11 plan %d runs in another order than benchmark-major %v", len(got), fig8Protocols)
	}
}

// TestStaticFiguresPlanNothing checks that the figures without memoized
// runs are exactly the configuration tables, the trace profiles and the
// self-timed Fig. 7, and that PlanUnion never dry-runs them.
func TestStaticFiguresPlanNothing(t *testing.T) {
	var static []string
	for _, f := range Figures() {
		if f.static {
			static = append(static, f.Name)
			if specs := PlanUnion([]Figure{f}); len(specs) != 0 {
				t.Errorf("static figure %s plans %d runs", f.Name, len(specs))
			}
		}
	}
	if want := []string{"tableII", "tableIII", "cost", "3", "7"}; !reflect.DeepEqual(static, want) {
		t.Fatalf("static figures %v, want %v", static, want)
	}
}

// TestRecordedPlanCoversGen prewarms a store-backed runner with the
// recorded plans of the scope study and Fig. 9, then generates both:
// generation must neither simulate nor read the store, cold or warm.
// A request the recording missed would show up as one or the other.
func TestRecordedPlanCoversGen(t *testing.T) {
	figs := []Figure{figure(t, "gpmscope"), figure(t, "9")}
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range []string{"cold", "warm"} {
		r, err := NewRunner(Options{Scale: 0.02, SMsPerGPM: 2, Store: st})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Prewarm(PlanUnion(figs)); err != nil {
			t.Fatal(err)
		}
		before := r.Summary()
		for _, f := range figs {
			if _, err := f.Gen(r); err != nil {
				t.Fatal(err)
			}
		}
		after := r.Summary()
		if after.UniqueRuns != before.UniqueRuns || after.DiskHits != before.DiskHits {
			t.Fatalf("%s: generating ran %d simulations and %d store reads beyond the prewarm",
				pass, after.UniqueRuns-before.UniqueRuns, after.DiskHits-before.DiskHits)
		}
		if pass == "warm" && before.UniqueRuns != 0 {
			t.Fatalf("warm prewarm simulated %d runs the store holds", before.UniqueRuns)
		}
	}
}
