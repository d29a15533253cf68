// Command hmgperf is the reproducible performance harness behind the
// repo's committed BENCH_*.json trajectory: it runs a fixed
// benchmark×protocol matrix at a pinned scale and writes one JSON
// snapshot per invocation (simulated cycles, events, allocs/event, the
// bytes Run and gsim.New allocate, ns/event, Mevents/s per cell).
// Simulated cycles and event counts are byte-identical run-to-run and
// machine-to-machine — the simulator is deterministic — so a baseline
// snapshot doubles as a regression gate:
//
//	hmgperf                              # run matrix, write BENCH_<date>.json
//	hmgperf -o BENCH_baseline.json       # explicit output path
//	hmgperf -against BENCH_baseline.json # compare mode: exit 1 on regression
//	hmgperf -topo 16x8 -against PERF_16x8.json # the same gate on the 16x8 machine
//	hmgperf -cpuprofile cpu.prof         # also profile the matrix's Run windows
//
// Compare mode fails hard on any drift in simulated cycles or event
// counts (an optimization changed behavior — the determinism contract
// is broken), on allocs/event growth beyond a small noise floor, and on
// Run or gsim.New bytes growing past the same relative tolerance (a
// baseline without byte fields skips that check). The hot path is not
// yet zero-alloc — BENCH_2026-10-19b.json measures 0.0001–0.0005
// allocs/event (40–67 allocations per cell, 2.0–2.2 MB per Run, 0.35 MB
// per gsim.New) across the matrix — so the gate blocks allocation
// growth, not non-zero allocation. Wall-clock metrics (ns/event,
// Mevents/s) are advisory only: hmgperf warns past wallTol times the
// baseline but never fails on them, so the gate stays green on slow or
// noisy CI machines while still recording the trajectory. A baseline
// must hold exactly the pinned matrix's nine cells: one that gates
// fewer, or names a cell twice, is rejected rather than matched.
//
// -cachedir makes the matrix store-aware: every cell still simulates
// (the wall-clock and allocation windows cannot come from a cache), but
// its results are cross-checked against the persistent campaign store
// (internal/resstore) — the same store `hmgbench -cachedir` fills at
// scale 0.25, since the key spaces coincide — failing hard if a cell's
// cycles or events drift from the stored record, and written back so
// perf runs warm the campaign cache as a side effect. A record written
// under another model stamp misses and never reaches the comparison, so
// a drift means either that the simulator is nondeterministic or that
// the model changed where the stamp's canary does not look (sync paths,
// machines wider than 2x2).
//
// -cpuprofile writes a pprof CPU profile (read it with `go tool pprof`)
// of the matrix's Run windows: every cell's system and trace are built
// before profiling starts, and the profile stops after the last cell's
// Run. Set-up is therefore absent; the garbage collection forced before
// each measurement window (and, with -cachedir, the store writes) stay
// in it. That is the place to look when ns/event moves and the counts
// do not say why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"hmg/internal/experiments"
	"hmg/internal/gsim"
	"hmg/internal/proto"
	"hmg/internal/resstore"
	"hmg/internal/topo"
	"hmg/internal/trace"
	"hmg/internal/workload"
)

// The pinned matrix: three workloads with distinct sharing behavior
// (dense ML, adaptive-mesh HPC, irregular graph) under the software
// hierarchical, flat hardware, and hierarchical hardware (HMG)
// protocols. Changing the matrix invalidates committed baselines, so it
// is code, not flags.
var (
	matrixBenches   = []string{"lstm", "MiniAMR", "bfs"}
	matrixProtocols = []proto.Kind{proto.SWHier, proto.NHCC, proto.HMG}
)

// pinned matrix scale: large enough that steady-state behavior
// dominates, small enough for a CI tier.
const matrixScale = 0.25

// matrixSMs is the modeled SMs per GPM every baseline is taken at.
const matrixSMs = 8

// The gate's tolerances: allocTol is the relative allocs/event and byte
// growth tolerated before failing, wallTol the ns/event ratio over the
// baseline that triggers an advisory warning.
const (
	allocTol = 0.02
	wallTol  = 1.5
)

// Snapshot is one BENCH_*.json file.
type Snapshot struct {
	Schema    string  `json:"schema"`
	Created   string  `json:"created"`
	GoVersion string  `json:"go_version"`
	Scale     float64 `json:"scale"`
	SMsPerGPM int     `json:"sms_per_gpm"`
	// Topo is the machine shape ("GxM") the matrix ran on. Snapshots
	// from before the field existed are read as the then-only 4x4 shape.
	Topo string `json:"topo,omitempty"`
	Runs []Run  `json:"runs"`
}

// defaultTopo is the shape assumed for baselines written before the
// topo field existed.
const defaultTopo = "4x4"

// topoLabel normalizes a snapshot's shape for comparison.
func topoLabel(s *Snapshot) string {
	if s.Topo == "" {
		return defaultTopo
	}
	return s.Topo
}

// Run is one cell of the matrix. Cycles, Events, and Allocs are
// deterministic, and RunBytes and NewBytes nearly so; the wall-clock
// fields vary by machine and are advisory.
type Run struct {
	Bench    string `json:"bench"`
	Protocol string `json:"protocol"`

	Cycles uint64 `json:"cycles"`
	Events uint64 `json:"events"`
	Allocs uint64 `json:"allocs"`
	// RunBytes is the heap the cell's Run allocates, and NewBytes the
	// heap its gsim.New allocates (runtime.MemStats.TotalAlloc deltas).
	// Baselines written before the fields existed read them as zero,
	// and the byte gate skips them there.
	RunBytes uint64 `json:"run_bytes,omitempty"`
	NewBytes uint64 `json:"new_bytes,omitempty"`

	AllocsPerEvent float64 `json:"allocs_per_event"`
	WallMS         float64 `json:"wall_ms"`
	NsPerEvent     float64 `json:"ns_per_event"`
	MEventsPerSec  float64 `json:"mevents_per_sec"`
}

func main() {
	out := flag.String("o", "", "output file (default BENCH_<date>.json; empty in compare mode)")
	against := flag.String("against", "", "baseline BENCH_*.json to compare against (compare mode)")
	topoFlag := flag.String("topo", "", topo.SpecFlagUsage+" (must match the baseline)")
	cachedir := flag.String("cachedir", "", "campaign result store to cross-check cells against and write them back to")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the matrix's Run windows to this file")
	flag.Parse()

	shape, err := topo.ParseSpec(*topoFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hmgperf: %v\n", err)
		os.Exit(2)
	}
	var base *Snapshot
	if *against != "" {
		if base, err = readSnapshot(*against); err != nil {
			fmt.Fprintf(os.Stderr, "hmgperf: %v\n", err)
			os.Exit(2)
		}
	}
	var store *resstore.Store
	if *cachedir != "" {
		store, err = experiments.OpenStore(*cachedir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hmgperf: %v\n", err)
			os.Exit(2)
		}
	}
	var prof *os.File
	if *cpuprofile != "" {
		if prof, err = os.Create(*cpuprofile); err != nil {
			fmt.Fprintf(os.Stderr, "hmgperf: %v\n", err)
			os.Exit(2)
		}
	}
	snap, err := runMatrix(shape, store, prof)
	if prof != nil {
		if cerr := prof.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hmgperf: %v\n", err)
		os.Exit(2)
	}

	path := *out
	if path == "" && *against == "" {
		path = fmt.Sprintf("BENCH_%s.json", time.Now().Format("2006-01-02"))
	}
	if path != "" {
		buf, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "hmgperf: %v\n", err)
			os.Exit(2)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "hmgperf: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("wrote %s (%d runs)\n", path, len(snap.Runs))
	}

	if base != nil {
		if compare(base, snap, os.Stderr) {
			fmt.Fprintln(os.Stderr, "hmgperf: regression against", baseLabel(base))
			os.Exit(1)
		}
		fmt.Printf("hmgperf: %d cells match %s (cycles, events, allocs/event, bytes)\n",
			len(base.Runs), baseLabel(base))
	}
}

// runMatrix executes every matrix cell once and measures it. Each cell
// isolates simulation allocations by reading memory statistics after
// system construction and trace generation (setup) and again after the
// run. With a store attached, each cell is cross-checked against and
// written back to the campaign result store. With prof non-nil, all
// cells are set up first and a CPU profile of the runs is written to
// prof.
func runMatrix(shape topo.Spec, store *resstore.Store, prof io.Writer) (*Snapshot, error) {
	r, err := experiments.NewRunner(experiments.Options{Scale: matrixScale, SMsPerGPM: matrixSMs, Topo: shape})
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{
		Schema:    "hmgperf/v1",
		Created:   time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Scale:     matrixScale,
		SMsPerGPM: matrixSMs,
		Topo:      r.Config(proto.HMG, experiments.Variant{}).Topo.String(),
	}
	var cells []*cell
	for _, abbrev := range matrixBenches {
		bench, err := workload.Get(abbrev)
		if err != nil {
			return nil, err
		}
		for _, kind := range matrixProtocols {
			cells = append(cells, &cell{bench: bench, kind: kind})
		}
	}
	if prof != nil {
		for _, c := range cells {
			if err := c.setup(r); err != nil {
				return nil, err
			}
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}
	for i, c := range cells {
		if c.sys == nil {
			if err := c.setup(r); err != nil {
				return nil, err
			}
		}
		run, err := c.run(r, store)
		if err != nil {
			return nil, err
		}
		cells[i] = nil // release the cell's system and trace
		fmt.Fprintf(os.Stderr, "  %-10s %-12v %10d cycles %9d events  %6.4f allocs/ev  %6.1f MB run  %6.1f MB new  %7.1f ns/ev  %5.2f Mev/s\n",
			run.Bench, run.Protocol, run.Cycles, run.Events, run.AllocsPerEvent,
			float64(run.RunBytes)/1e6, float64(run.NewBytes)/1e6, run.NsPerEvent, run.MEventsPerSec)
		snap.Runs = append(snap.Runs, run)
	}
	return snap, nil
}

// cell is one matrix cell: a benchmark under a protocol, and once set
// up, its simulated system and trace, and the bytes gsim.New allocated.
type cell struct {
	bench    workload.Params
	kind     proto.Kind
	sys      *gsim.System
	tr       *trace.Trace
	newBytes uint64
}

// setup builds the cell's system and generates its trace.
func (c *cell) setup(r *experiments.Runner) error {
	cfg := r.Config(c.kind, experiments.Variant{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sys, err := gsim.New(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	c.newBytes = after.TotalAlloc - before.TotalAlloc
	c.sys, c.tr = sys, c.bench.Generate(cfg.Topo, matrixScale)
	return nil
}

// run simulates the set-up cell and measures it.
func (c *cell) run(r *experiments.Runner, store *resstore.Store) (Run, error) {
	// Setup (system construction, trace generation) is excluded from the
	// allocation and wall-clock windows: the gate tracks the steady-state
	// simulation loop, not one-time warm-up.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := c.sys.Run(c.tr)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return Run{}, err
	}

	allocs := after.Mallocs - before.Mallocs
	out := Run{
		Bench:    c.bench.Abbrev,
		Protocol: c.kind.String(),
		Cycles:   uint64(res.Cycles),
		Events:   res.EventsExecuted,
		Allocs:   allocs,
		RunBytes: after.TotalAlloc - before.TotalAlloc,
		NewBytes: c.newBytes,
		WallMS:   float64(wall.Nanoseconds()) / 1e6,
	}
	if res.EventsExecuted > 0 {
		out.AllocsPerEvent = float64(allocs) / float64(res.EventsExecuted)
		out.NsPerEvent = float64(wall.Nanoseconds()) / float64(res.EventsExecuted)
	}
	if wall > 0 {
		out.MEventsPerSec = float64(res.EventsExecuted) / wall.Seconds() / 1e6
	}
	if store != nil {
		// The matrix runs the campaign's own key space (zero variant,
		// base shape), so a stored record — written by hmgbench or a
		// previous hmgperf — must agree exactly with this fresh run.
		k := r.StoreKey(c.bench, c.kind, experiments.Variant{}, topo.Spec{})
		if prev, ok := store.Get(k); ok {
			if uint64(prev.Cycles) != out.Cycles || prev.EventsExecuted != out.Events {
				return Run{}, fmt.Errorf("%s/%v: fresh run (%d cycles, %d events) disagrees with store record %s (%d cycles, %d events) — the simulator is nondeterministic, or the model changed where the stamp's canary does not look (sync paths, machines wider than 2x2)",
					out.Bench, c.kind, out.Cycles, out.Events, k, prev.Cycles, prev.EventsExecuted)
			}
		}
		if err := store.Put(k, res); err != nil {
			return Run{}, err
		}
	}
	return out, nil
}

// readSnapshot reads and parses the snapshot file at path.
func readSnapshot(path string) (*Snapshot, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := parseSnapshot(buf)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// parseSnapshot decodes a snapshot and checks that it can gate the
// matrix: its runs are exactly the pinned matrix's cells, each once, and
// no measurement is negative.
func parseSnapshot(buf []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, err
	}
	if s.Schema != "hmgperf/v1" {
		return nil, fmt.Errorf("unknown schema %q", s.Schema)
	}
	seen := make(map[[2]string]int) // the pinned cells, by times listed
	for _, b := range matrixBenches {
		for _, k := range matrixProtocols {
			seen[[2]string{b, k.String()}] = 0
		}
	}
	for _, r := range s.Runs {
		c := [2]string{r.Bench, r.Protocol}
		n, ok := seen[c]
		switch {
		case !ok:
			return nil, fmt.Errorf("run %s/%s is not a cell of the pinned matrix", r.Bench, r.Protocol)
		case n > 0:
			return nil, fmt.Errorf("cell %s/%s is listed twice", r.Bench, r.Protocol)
		case r.AllocsPerEvent < 0 || r.WallMS < 0 || r.NsPerEvent < 0 || r.MEventsPerSec < 0:
			return nil, fmt.Errorf("cell %s/%s has a negative measurement", r.Bench, r.Protocol)
		}
		seen[c]++
	}
	for _, b := range matrixBenches {
		for _, k := range matrixProtocols {
			if seen[[2]string{b, k.String()}] == 0 {
				return nil, fmt.Errorf("cell %s/%v is missing", b, k)
			}
		}
	}
	return &s, nil
}

// allocFloor is the absolute allocs/event slack on top of the relative
// tolerance: 13–72 allocations on a matrix cell (126k–720k events),
// against repeat-run noise of at most 6 allocations per cell and cell
// totals of 49–97.
const allocFloor = 0.0001

// byteFloor is the absolute slack of the byte gate on top of the
// relative tolerance: room for the runtime's own allocations inside a
// measurement window, which move a cell's Run bytes by a few KB from run
// to run.
const byteFloor = 64 << 10

// bytesGrew reports whether a byte count grew past allocTol plus
// byteFloor; a zero baseline predates the field and gates nothing.
func bytesGrew(base, cur uint64) bool {
	return base > 0 && float64(cur) > float64(base)*(1+allocTol)+byteFloor
}

// compare gates the current snapshot against a baseline, writing one
// FAIL or WARN line per finding to w. Hard failures: missing cells, any
// cycle or event-count drift (the optimization changed simulated
// behavior), allocs/event growth beyond allocTol (plus allocFloor), and
// Run or gsim.New bytes growing beyond the same relative tolerance (plus
// byteFloor). Advisory: ns/event beyond wallTol times the baseline.
func compare(base, cur *Snapshot, w io.Writer) (failed bool) {
	if base.Scale != cur.Scale || base.SMsPerGPM != cur.SMsPerGPM {
		fmt.Fprintf(w, "FAIL: matrix mismatch: baseline scale=%v sms=%d, current scale=%v sms=%d\n",
			base.Scale, base.SMsPerGPM, cur.Scale, cur.SMsPerGPM)
		return true
	}
	if topoLabel(base) != topoLabel(cur) {
		fmt.Fprintf(w, "FAIL: topology mismatch: baseline ran at %s, current at %s — cycles are not comparable across machine shapes\n",
			topoLabel(base), topoLabel(cur))
		return true
	}
	current := make(map[string]Run, len(cur.Runs))
	for _, r := range cur.Runs {
		current[r.Bench+"/"+r.Protocol] = r
	}
	for _, want := range base.Runs {
		key := want.Bench + "/" + want.Protocol
		got, ok := current[key]
		if !ok {
			fmt.Fprintf(w, "FAIL: %s: in baseline but not in current matrix\n", key)
			failed = true
			continue
		}
		if got.Cycles != want.Cycles {
			fmt.Fprintf(w, "FAIL: %s: simulated cycles drifted: baseline %d, current %d\n",
				key, want.Cycles, got.Cycles)
			failed = true
		}
		if got.Events != want.Events {
			fmt.Fprintf(w, "FAIL: %s: event count drifted: baseline %d, current %d\n",
				key, want.Events, got.Events)
			failed = true
		}
		if got.AllocsPerEvent > want.AllocsPerEvent*(1+allocTol)+allocFloor {
			fmt.Fprintf(w, "FAIL: %s: allocs/event regressed: baseline %.4f, current %.4f\n",
				key, want.AllocsPerEvent, got.AllocsPerEvent)
			failed = true
		}
		if bytesGrew(want.RunBytes, got.RunBytes) {
			fmt.Fprintf(w, "FAIL: %s: Run bytes regressed: baseline %d, current %d\n",
				key, want.RunBytes, got.RunBytes)
			failed = true
		}
		if bytesGrew(want.NewBytes, got.NewBytes) {
			fmt.Fprintf(w, "FAIL: %s: gsim.New bytes regressed: baseline %d, current %d\n",
				key, want.NewBytes, got.NewBytes)
			failed = true
		}
		if want.NsPerEvent > 0 && got.NsPerEvent > want.NsPerEvent*wallTol {
			fmt.Fprintf(w, "WARN: %s: ns/event %.1f vs baseline %.1f (advisory only)\n",
				key, got.NsPerEvent, want.NsPerEvent)
		}
	}
	return failed
}

func baseLabel(s *Snapshot) string {
	if s.Created != "" {
		return "baseline of " + s.Created
	}
	return "baseline"
}
