package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"time"

	"hmg/internal/experiments"
	"hmg/internal/gsim"
	"hmg/internal/proto"
	"hmg/internal/topo"
	"hmg/internal/workload"
)

// cell is one simulation of a simulation workload: a benchmark under a
// protocol on the workload's machine.
type cell struct {
	bench workload.Params
	kind  proto.Kind
	cfg   gsim.Config
}

func (c cell) String() string { return c.bench.Abbrev + "/" + c.kind.String() }

// simWorkload is a closed loop of cells run one after another on one
// goroutine.
type simWorkload struct {
	scale float64
	cells []cell
}

// newSimWorkload builds matrix or inval-16x8 with the seed mixed into
// every benchmark's generator seed.
func newSimWorkload(name string, seed int64) (*simWorkload, error) {
	var (
		benches []string
		kinds   []proto.Kind
		opts    = experiments.Options{SMsPerGPM: 8}
		w       = &simWorkload{}
	)
	switch name {
	case "matrix":
		// The pinned hmgperf matrix on the Table II 4x4 machine.
		benches = []string{"lstm", "MiniAMR", "bfs"}
		kinds = []proto.Kind{proto.SWHier, proto.NHCC, proto.HMG}
		w.scale = 0.25
	case "inval-16x8":
		// Store-driven invalidation on 128 GPMs: flat NHCC sharer sets
		// leave the inline word, HMG's hierarchical ones do not.
		benches = []string{"mst", "bfs"}
		kinds = []proto.Kind{proto.NHCC, proto.HMG}
		opts.Topo = topo.Spec{NumGPUs: 16, GPMsPerGPU: 8}
		w.scale = 0.05
	default:
		return nil, fmt.Errorf("not a simulation workload: %q", name)
	}
	r, err := experiments.NewRunner(opts)
	if err != nil {
		return nil, err
	}
	for _, abbrev := range benches {
		b, err := workload.Get(abbrev)
		if err != nil {
			return nil, err
		}
		b.Seed = mixSeed(b.Seed, seed)
		for _, k := range kinds {
			w.cells = append(w.cells, cell{bench: b, kind: k, cfg: r.Config(k, experiments.Variant{})})
		}
	}
	return w, nil
}

// mixSeed derives a benchmark's generator seed from its registry seed and
// the workload seed. Seed 0 keeps the registry seed, which is what the
// pinned fingerprints were taken with.
func mixSeed(base, seed int64) int64 {
	if seed == 0 {
		return base
	}
	r := rng(seed)
	return base ^ int64(r.next())
}

// cellRun is the measurement of one cell in one pass.
type cellRun struct {
	gen, build, run time.Duration
	runAllocs       uint64
	res             *gsim.Results
	problems        []string
}

// runCell generates the cell's trace, builds the system, and runs it.
// Setup (generation and construction) is timed apart from the run, and
// a forced collection before the run keeps earlier garbage out of the
// run's window. With a tracer, each call gets a span, the system gets a
// counting event sink, and the inner layers' counters are read after the
// run; without one, nothing is attached.
func runCell(c cell, scale float64, tr *tracer, parent int, lc *layerCounts) (cellRun, error) {
	var cr cellRun
	var m0, m1 runtime.MemStats

	sp := tr.begin("workload.Generate", parent)
	if tr != nil {
		runtime.ReadMemStats(&m0)
	}
	t0 := time.Now()
	trc := c.bench.Generate(c.cfg.Topo, scale)
	cr.gen = time.Since(t0)
	if tr != nil {
		runtime.ReadMemStats(&m1)
		lc.genAllocs += m1.Mallocs - m0.Mallocs
	}
	tr.end(sp)

	sp = tr.begin("gsim.New", parent)
	t0 = time.Now()
	sys, err := gsim.New(c.cfg)
	cr.build = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return cr, fmt.Errorf("%v: %w", c, err)
	}
	var evBefore [numEventKinds]uint64
	if tr != nil {
		evBefore = lc.ev
		sys.OnEvent = lc.countEvent
	}

	runtime.GC()
	runtime.ReadMemStats(&m0)
	sp = tr.begin("gsim.Run", parent)
	t0 = time.Now()
	res, err := sys.Run(trc)
	cr.run = time.Since(t0)
	tr.end(sp)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return cr, fmt.Errorf("%v: %w", c, err)
	}
	cr.runAllocs = m1.Mallocs - m0.Mallocs
	cr.res = res
	cr.problems = consistency(res)
	if tr != nil {
		lc.add(sys, res, cr.runAllocs)
		cr.problems = append(cr.problems, sinkChecks(evBefore, lc.ev, res)...)
	}
	return cr, nil
}

// consistency checks a Results against itself: every op is a load, a
// store or an atomic, and the run did something.
func consistency(res *gsim.Results) []string {
	var p []string
	if res.Ops != res.Loads+res.Stores+res.Atomics {
		p = append(p, fmt.Sprintf("Ops %d != Loads+Stores+Atomics %d", res.Ops, res.Loads+res.Stores+res.Atomics))
	}
	if res.Ops == 0 || res.EventsExecuted == 0 || res.Cycles == 0 {
		p = append(p, "empty run (no ops, events or cycles)")
	}
	return p
}

// sinkChecks compares what the traced run's OnEvent sink saw during one
// run (after minus before) with counters kept by other code: the
// system's load count, the DRAM modules' write counts and the Results'
// per-kernel cycles.
func sinkChecks(before, after [numEventKinds]uint64, res *gsim.Results) []string {
	var ev [numEventKinds]uint64
	for k := range ev {
		ev[k] = after[k] - before[k]
	}
	var p []string
	check := func(what string, got, want uint64) {
		if got != want {
			p = append(p, fmt.Sprintf("sink saw %d %s events, want %d", got, what, want))
		}
	}
	check(gsim.EvLoadDone.String(), ev[gsim.EvLoadDone], res.Loads)
	check(gsim.EvHomeStore.String(), ev[gsim.EvHomeStore], res.DRAMWrites)
	check(gsim.EvKernelLaunch.String(), ev[gsim.EvKernelLaunch], uint64(len(res.KernelCycles)))
	check(gsim.EvKernelDrained.String(), ev[gsim.EvKernelDrained], uint64(len(res.KernelCycles)))
	return p
}

// checkCell compares a cell's result with its pin (default seed) and
// with the first pass's result for the same cell (every seed).
func (b *benchRun) checkCell(c cell, cr cellRun, first *gsim.Results) []string {
	p := cr.problems
	if b.seed == 0 {
		want, ok := pins[b.workload+"/"+c.String()]
		got := fingerprintOf(cr.res)
		switch {
		case !ok:
			p = append(p, "no pinned fingerprint")
		case got != want:
			p = append(p, fmt.Sprintf("fingerprint %+v, pinned %+v", got, want))
		}
		if b.workload == "matrix" {
			p = append(p, crossCheckBench(c, cr.res)...)
		}
	}
	if first != nil && !reflect.DeepEqual(cr.res, first) {
		p = append(p, "Results differ from the first pass of the same cell (nondeterminism)")
	}
	return p
}

// simPass runs every cell once and accounts each as an operation. tr and
// lc are nil on untraced passes; first, when set, is an earlier pass
// every result must deep-equal.
func (b *benchRun) simPass(w *simWorkload, tr *tracer, lc *layerCounts, first []cellRun) ([]cellRun, error) {
	runs := make([]cellRun, len(w.cells))
	root := tr.begin("pass", -1)
	defer tr.end(root)
	for i, c := range w.cells {
		sp := tr.begin("cell "+c.String(), root)
		cr, err := runCell(c, w.scale, tr, sp, lc)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		var prev *gsim.Results
		if first != nil {
			prev = first[i].res
		}
		b.op(c.String(), b.checkCell(c, cr, prev))
		runs[i] = cr
	}
	return runs, nil
}

// simEndToEnd repeats passes over the workload's cells within the
// budget. Each cell's setup and run times are medians across passes, and
// the end-to-end times are their sums, so one disturbed cell in one pass
// does not move the result.
func (b *benchRun) simEndToEnd() error {
	w, err := newSimWorkload(b.workload, b.seed)
	if err != nil {
		return err
	}
	var (
		passes [][]cellRun
		rss    []float64
		host   hostClock
	)
	start := time.Now()
	for keepPassing(len(passes), start, time.Since(start)/time.Duration(max(len(passes), 1)), b.budget) {
		var first []cellRun
		if len(passes) > 0 {
			first = passes[0]
		}
		host.sample()
		resetPeakRSS()
		runs, err := b.simPass(w, nil, nil, first)
		if err != nil {
			return err
		}
		rss = append(rss, peakRSSMB())
		passes = append(passes, runs)
		var setupT, runT time.Duration
		for _, cr := range runs {
			setupT += cr.gen + cr.build
			runT += cr.run
		}
		fmt.Fprintf(os.Stderr, "pass %d: setup %.3fs run %.3fs rss %.1f\n", len(passes), setupT.Seconds(), runT.Seconds(), rss[len(rss)-1])
	}
	var wall, setup time.Duration
	var ops uint64
	allocsPerOp := make([]float64, len(passes))
	for i := range w.cells {
		runT := make([]time.Duration, len(passes))
		setupT := make([]time.Duration, len(passes))
		for p, runs := range passes {
			runT[p] = runs[i].run
			setupT[p] = runs[i].gen + runs[i].build
		}
		wall += median(runT)
		setup += median(setupT)
		ops += passes[0][i].res.Ops
	}
	for p, runs := range passes {
		var allocs uint64
		for _, cr := range runs {
			allocs += cr.runAllocs
		}
		allocsPerOp[p] = float64(allocs) / float64(ops)
	}
	fmt.Fprintf(os.Stderr, "%s: %d passes of %d cells in %.1fs\n", b.workload, len(passes), len(w.cells), time.Since(start).Seconds())
	b.setEndToEnd(&host, wall, setup, ops, median(rss), median(allocsPerOp))
	return nil
}
