// Package experiments regenerates every table and figure of the paper's
// evaluation section on the simulator: the remote-caching study (Fig. 2),
// the inter-GPU redundancy profile (Fig. 3), simulator calibration
// (Fig. 7), the main five-way protocol comparison (Fig. 8), the
// invalidation profiles (Figs. 9–11), and the sensitivity sweeps over
// inter-GPU bandwidth, L2 capacity, directory size, and directory entry
// granularity (Figs. 12–14 and §VII-B).
//
// Every simulation of a campaign is identified by one content address
// of its (benchmark, protocol, variant, shape) specification and
// memoized under it, so figures sharing configuration points (e.g.
// every sweep's Table II column and the common no-caching baseline)
// reuse results. The memo cache is concurrency-safe with
// in-flight deduplication. A figure's generator is the one statement of
// the runs it needs: PlanUnion dry-runs the generators against a
// recording Runner (see registry.go), so a generator must request the
// same runs whatever results it reads. A campaign then Prewarms the
// union of unique runs across a bounded worker pool and generates
// tables from the warm cache — output is byte-identical regardless of
// parallelism or completion order.
package experiments

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"hmg/internal/gsim"
	"hmg/internal/proto"
	"hmg/internal/resstore"
	"hmg/internal/topo"
	"hmg/internal/trace"
	"hmg/internal/workload"
)

// Options scales and directs an experiment campaign.
type Options struct {
	// Scale shrinks workload traces; 1.0 is the full (already scaled-
	// down) suite. Sweeps may run at lower scale for speed.
	Scale float64
	// SMsPerGPM is the modeling granularity (8 modeled SMs per GPM by
	// default, each aggregating 4 physical SMs).
	SMsPerGPM int
	// Topo reshapes the base machine (zero fields keep the Table II
	// 4x4 shape). Per-run topology overrides in a RunSpec stack on top
	// of this campaign-wide shape.
	Topo topo.Spec
	// Jobs bounds the worker pool of Prewarm (default GOMAXPROCS).
	// Figure tables are independent of Jobs: parallelism only warms the
	// memo cache faster.
	Jobs int
	// Store, when non-nil, is the persistent content-addressed result
	// store backing the in-process memo cache as a second tier: cache
	// misses consult the store before simulating, and successful runs
	// are written back, so a repeated campaign only simulates its delta
	// across processes and machines (`hmgbench -cachedir`). Failed runs
	// are never stored, and damaged or stale records are re-simulated.
	Store *resstore.Store
	// Log receives progress lines (nil for silence). Writes are
	// serialized by the Runner, so any io.Writer is safe.
	Log io.Writer
}

// DefaultOptions returns the standard experiment configuration.
func DefaultOptions() Options {
	return Options{Scale: 1.0, SMsPerGPM: 8}
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 1.0
	}
	if o.SMsPerGPM == 0 {
		o.SMsPerGPM = 8
	}
	if o.Jobs == 0 {
		o.Jobs = runtime.GOMAXPROCS(0)
	}
	return o
}

// validate rejects option values that would silently produce nonsense
// traces or configurations. Zero values mean "use the default" and are
// always accepted.
func (o Options) validate() error {
	if math.IsNaN(o.Scale) || o.Scale < 0 || o.Scale > 1 {
		return fmt.Errorf("experiments: Scale %v outside (0, 1] (zero selects the default)", o.Scale)
	}
	if o.SMsPerGPM < 0 {
		return fmt.Errorf("experiments: negative SMsPerGPM %d (zero selects the default)", o.SMsPerGPM)
	}
	if o.Jobs < 0 {
		return fmt.Errorf("experiments: negative Jobs %d (zero selects the default)", o.Jobs)
	}
	return nil
}

// Variant selects the architectural point of a run; zero fields mean the
// Table II defaults.
type Variant struct {
	NVLinkGBs  float64 // inter-GPU bandwidth per link (default 200)
	L2MBPerGPU int     // total L2 per GPU (default 12)
	DirEntries int     // directory entries per GPM (default 12K)
	GranLines  int     // lines per directory entry (default 4)
	// Downgrade enables the optional clean-eviction sharer-downgrade
	// messages (off in the paper's evaluation).
	Downgrade bool
	// WriteBack selects the write-back L2 option instead of the paper's
	// evaluated write-through design.
	WriteBack bool
	// ScatterCTAs disables contiguous CTA scheduling (ablation).
	ScatterCTAs bool
	// StaticPlacement replaces the first-touch page placement hints with
	// a round-robin static assignment (ablation).
	StaticPlacement bool
}

func (v Variant) withDefaults() Variant {
	if v.NVLinkGBs == 0 {
		v.NVLinkGBs = 200
	}
	if v.L2MBPerGPU == 0 {
		v.L2MBPerGPU = 12
	}
	if v.DirEntries == 0 {
		v.DirEntries = 12 * 1024
	}
	if v.GranLines == 0 {
		v.GranLines = 4
	}
	return v
}

// runKey is a run's canonical specification. Its content address (see
// Runner.address) is the run's identity in both memo tiers.
type runKey struct {
	bench workload.Params
	kind  proto.Kind
	v     Variant   // canonicalVariant's form
	shape topo.Spec // the effective machine shape
}

// inflight is one memo-cache entry: the first requester of a key owns
// the simulation; duplicate requesters block on done until the owner
// publishes res/err.
type inflight struct {
	done chan struct{}
	res  *gsim.Results
	err  error
}

// Runner executes simulations with memoization, so figures sharing
// configuration points (e.g. every sweep's Table II column and the
// common no-caching baseline) reuse results. All methods are safe for
// concurrent use; concurrent requests for the same key simulate it
// exactly once.
type Runner struct {
	opts Options

	mu sync.Mutex
	// cache is the in-process memo, keyed by content address.
	cache map[resstore.Key]*inflight
	stats Summary

	logMu sync.Mutex

	// recording marks a Runner built by PlanUnion: runAt appends each
	// request to plan and answers with placeholder instead of simulating.
	recording bool
	plan      []RunSpec
}

// placeholder is the result every request to a recording Runner gets.
// One cycle keeps the generators' divisions finite; nothing reads it.
var placeholder = &gsim.Results{Cycles: 1}

// NewRunner builds a Runner, validating the options.
func NewRunner(o Options) (*Runner, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	return &Runner{opts: o.withDefaults(), cache: make(map[resstore.Key]*inflight)}, nil
}

// Options returns the runner's options.
func (r *Runner) Options() Options { return r.opts }

// Summary is the campaign-level accounting of a Runner.
type Summary struct {
	// UniqueRuns counts simulations actually executed.
	UniqueRuns int
	// MemoHits counts requests served from the cache (including
	// requests that blocked on an in-flight duplicate).
	MemoHits int
	// DiskHits, DiskMisses, and DiskWrites account the persistent store
	// tier (all zero when Options.Store is nil): in-process cache
	// misses served from disk, misses that fell through to a
	// simulation, and successful runs written back.
	DiskHits, DiskMisses, DiskWrites int
	// Traces counts the workload traces generated. Prewarm generates
	// each trace once and shares it among the runs that simulate on it;
	// a Run outside Prewarm generates its own.
	Traces int
	// SimCycles and Events total the simulated cycles and discrete
	// events across unique runs.
	SimCycles uint64
	Events    uint64
	// RunWall sums per-run wall time across unique runs. Under
	// parallelism it exceeds campaign elapsed time.
	RunWall time.Duration
}

// Summary returns a snapshot of the campaign accounting.
func (r *Runner) Summary() Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// logf writes one progress line; writes are serialized so concurrent
// runs never interleave bytes.
func (r *Runner) logf(format string, args ...any) {
	if r.opts.Log == nil {
		return
	}
	r.logMu.Lock()
	fmt.Fprintf(r.opts.Log, format, args...)
	r.logMu.Unlock()
}

// pageSizeKB is the OS page size used in experiments. The suite's
// footprints are scaled ~64× below Table III, so pages scale from 2MB
// to 32KB to keep a representative page count.
const pageSizeKB = 32

// ScaleDown is the linear scaling factor of the experiment model: the
// Table III footprints, Table II cache capacities, directory entry
// counts, and page size all shrink together (footprints by ~64, caches
// slightly more), preserving
// the footprint-to-capacity ratios that drive the paper's results while
// keeping traces small enough to sweep. Bandwidths and latencies stay at
// full scale.
const ScaleDown = 96

// Config builds the simulated system configuration for a protocol and
// variant. Capacities scale by ScaleDown; bandwidths scale by the SM
// aggregation factor (each modeled SM stands for several physical SMs,
// so the model generates proportionally less concurrent demand — the
// links must shrink with it to preserve the demand-to-bandwidth ratio
// of the real machine).
func (r *Runner) Config(kind proto.Kind, v Variant) gsim.Config {
	v = v.withDefaults()
	cfg := gsim.DefaultConfig(r.opts.SMsPerGPM, kind)
	// Empirically, halving the full-rate links restores the real
	// machine's operating point: the modeled MLP per SM partly
	// compensates for the aggregation, so the full factor (4 at 8
	// modeled SMs) over-starves the system.
	agg := float64(32/r.opts.SMsPerGPM) / 2
	if agg < 1 {
		agg = 1
	}
	cfg.Topo = r.opts.Topo.Apply(cfg.Topo)
	cfg.Topo.PageSize = pageSizeKB * 1024
	cfg.Net.NVLinkGBs = v.NVLinkGBs / agg
	cfg.Net.XbarPortGBs /= agg
	cfg.DRAM.BandwidthGBs /= agg
	cfg.L1.CapacityBytes /= ScaleDown
	cfg.L2Slice.CapacityBytes = v.L2MBPerGPU << 20 / cfg.Topo.GPMsPerGPU / ScaleDown
	cfg.Dir.Entries = v.DirEntries / ScaleDown
	cfg.Dir.GranLines = v.GranLines
	cfg.Policy.Downgrade = v.Downgrade
	cfg.WriteBack = v.WriteBack
	cfg.ScatterCTAs = v.ScatterCTAs
	return cfg
}

// baseSpec is the campaign-wide machine shape: the Table II topology
// reshaped by Options.Topo.
func (r *Runner) baseSpec() topo.Spec {
	return r.opts.Topo.Apply(gsim.DefaultConfig(r.opts.SMsPerGPM, proto.HMG).Topo).Spec()
}

// key canonicalizes a run's specification; its content address is the
// run's memo key. Directory parameters are canonicalized away for
// software and ideal configurations (they have no directories), so
// sweeps over directory size reuse their runs; a per-run topology
// override that resolves to the campaign's base shape (e.g.
// Spec{NumGPUs: 4} on the Table II machine) shares a key with plain
// runs.
func (r *Runner) key(bench workload.Params, kind proto.Kind, v Variant, sp topo.Spec) runKey {
	return runKey{bench, kind, canonicalVariant(kind, v), r.effectiveSpec(sp)}
}

// name labels run k in the campaign log: its benchmark's abbreviation,
// suffixed with the machine shape when that differs from the
// campaign's.
func (r *Runner) name(k runKey) string {
	if k.shape != r.baseSpec() {
		return fmt.Sprintf("%s@%s", k.bench.Abbrev, k.shape)
	}
	return k.bench.Abbrev
}

// canonicalVariant defaults v and canonicalizes away the directory
// parameters non-hardware configurations cannot observe (software and
// ideal points have no directories), so sweeps over directory size
// reuse their runs. The content address that keys both memo tiers
// digests the canonical form.
func canonicalVariant(kind proto.Kind, v Variant) Variant {
	v = v.withDefaults()
	if !proto.For(kind).Hardware {
		def := Variant{}.withDefaults()
		v.DirEntries = def.DirEntries
		v.GranLines = def.GranLines
		v.Downgrade = false
	}
	return v
}

// effectiveSpec resolves a per-run topology override against the
// campaign's base shape into the fully-specified machine shape the run
// executes on.
func (r *Runner) effectiveSpec(sp topo.Spec) topo.Spec {
	base := r.baseSpec()
	return sp.Apply(topo.Topology{NumGPUs: base.NumGPUs, GPMsPerGPU: base.GPMsPerGPU}).Spec()
}

// mevPerSec computes a log-only M-events/s rate. Zero or near-zero
// wall time (coarse clocks can time a tiny run as 0) would print as
// +Inf or NaN; those collapse to 0 instead.
func mevPerSec(events uint64, secs float64) float64 {
	rate := float64(events) / secs / 1e6
	if secs <= 0 || math.IsInf(rate, 0) || math.IsNaN(rate) {
		return 0
	}
	return rate
}

// memoized serves key from the cache, executing sim exactly once across
// all concurrent requesters of the same key (singleflight): duplicates
// block until the owner's simulation completes and then share its
// result. With Options.Store configured, a cache miss consults the
// persistent store under the same content address before simulating,
// and a successful simulation is written back. A failed simulation is
// published to the waiters already blocked on it and then evicted, so
// the next request for the key retries instead of replaying the stale
// error; failed runs are never written to the store.
func (r *Runner) memoized(key runKey, sim func() (*gsim.Results, error)) (*gsim.Results, error) {
	addr := r.address(key)
	r.mu.Lock()
	if e := r.cache[addr]; e != nil {
		r.stats.MemoHits++
		r.mu.Unlock()
		<-e.done
		return e.res, e.err
	}
	e := &inflight{done: make(chan struct{})}
	r.cache[addr] = e
	r.mu.Unlock()

	st := r.opts.Store
	if st != nil {
		if res, ok := st.Get(addr); ok {
			e.res = res
			close(e.done)
			r.mu.Lock()
			r.stats.DiskHits++
			r.mu.Unlock()
			r.logf(" disk %-12s %-16v %9d cycles  %6.2f GB/s inter-GPU  (content-addressed store)\n",
				r.name(key), key.kind, res.Cycles, res.InterGPUGBs())
			return res, nil
		}
		r.mu.Lock()
		r.stats.DiskMisses++
		r.mu.Unlock()
	}

	start := time.Now() //lint:allow determinism wall time feeds the campaign log and Summary.RunWall only, never figure bytes
	e.res, e.err = sim()
	wall := time.Since(start) //lint:allow determinism wall time feeds the campaign log and Summary.RunWall only, never figure bytes
	close(e.done)
	if e.err != nil {
		r.mu.Lock()
		delete(r.cache, addr)
		r.mu.Unlock()
		return nil, e.err
	}

	r.mu.Lock()
	r.stats.UniqueRuns++
	r.stats.SimCycles += uint64(e.res.Cycles)
	r.stats.Events += e.res.EventsExecuted
	r.stats.RunWall += wall
	r.mu.Unlock()
	if st != nil {
		if err := st.Put(addr, e.res); err != nil {
			// A full or read-only store degrades to a slower campaign,
			// not a failed one.
			r.logf("  store: %s/%v: %v\n", r.name(key), key.kind, err)
		} else {
			r.mu.Lock()
			r.stats.DiskWrites++
			r.mu.Unlock()
		}
	}
	r.logf("  ran %-12s %-16v %9d cycles  %6.2f GB/s inter-GPU  %6.2fs wall  %5.1f Mev/s\n",
		r.name(key), key.kind, e.res.Cycles, e.res.InterGPUGBs(), wall.Seconds(),
		mevPerSec(e.res.EventsExecuted, wall.Seconds()))
	return e.res, nil
}

// simulate executes run k for real on worker w's machine and trace (see
// worker): build the configuration on its machine shape, pass it through
// edit when that is non-nil (only the canary's tests do), and run the
// trace on it. edit takes and returns the configuration by value, so
// cfg stays off the heap.
func (r *Runner) simulate(k runKey, w *worker, edit func(gsim.Config) gsim.Config) (*gsim.Results, error) {
	bench, kind := k.bench, k.kind
	cfg := r.Config(kind, k.v)
	cfg.Topo = k.shape.Apply(cfg.Topo)
	if edit != nil {
		cfg = edit(cfg)
	}
	sys, err := w.machine(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s/%v: %w", bench.Abbrev, kind, err)
	}
	tr := w.trace(r, k, cfg.Topo)
	if k.v.StaticPlacement {
		tr = staticPlacement(tr, cfg.Topo.TotalGPMs())
	}
	res, err := sys.Run(tr)
	if err != nil {
		w.discard()
		return nil, fmt.Errorf("experiments: %s/%v: %w", bench.Abbrev, kind, err)
	}
	return res, nil
}

// staticPlacement returns a copy of tr whose placement hints assign
// pages round-robin over gpms GPMs. The ops stay shared: only the hints
// are copied, so a shared trace is never written.
func staticPlacement(tr *trace.Trace, gpms int) *trace.Trace {
	cp := *tr
	cp.Placement = slices.Clone(tr.Placement)
	for i := range cp.Placement {
		cp.Placement[i].GPM = topo.GPMID(uint64(cp.Placement[i].Page) % uint64(gpms))
	}
	return &cp
}

// generate builds bench's trace on topology t, counting it.
func (r *Runner) generate(bench workload.Params, t topo.Topology) *trace.Trace {
	tr := bench.Generate(t, r.opts.Scale)
	r.mu.Lock()
	r.stats.Traces++
	r.mu.Unlock()
	return tr
}

// traceKey names a trace: a benchmark on a machine shape. The runner
// fixes everything else Generate reads (scale, SMs per GPM, page and
// line size), and no Variant field changes the topology.
type traceKey struct {
	bench workload.Params
	shape topo.Spec
}

// traceKey returns the key of run k's trace.
func (k runKey) traceKey() traceKey { return traceKey{k.bench, k.shape} }

// sharedTrace is a trace shared by the runs of one Prewarm: generated
// by the first of them that simulates, and dropped when the last one
// ends.
type sharedTrace struct {
	once sync.Once
	tr   *trace.Trace
	refs int // planned runs not yet ended; guarded by traceSet.mu
}

// traceSet is the traces of one Prewarm, by key.
type traceSet struct {
	mu sync.Mutex
	m  map[traceKey]*sharedTrace
}

// get returns key's shared trace, or nil when none is planned.
func (ts *traceSet) get(key traceKey) *sharedTrace {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.m[key]
}

// done records that one planned run of key has ended, dropping the
// trace after the last.
func (ts *traceSet) done(key traceKey) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if st := ts.m[key]; st != nil {
		if st.refs--; st.refs == 0 {
			delete(ts.m, key)
		}
	}
}

// worker is what one Prewarm worker keeps between its runs: one machine,
// reset for each run whatever its configuration, and the Prewarm's
// shared traces. A nil worker — a run outside Prewarm — builds a new
// machine and generates its own trace.
type worker struct {
	sys    *gsim.System
	traces *traceSet
}

// machine returns a machine configured as cfg.
func (w *worker) machine(cfg gsim.Config) (*gsim.System, error) {
	if w == nil {
		return gsim.New(cfg)
	}
	if w.sys == nil {
		sys, err := gsim.New(cfg)
		w.sys = sys
		return sys, err
	}
	if err := w.sys.Reset(cfg); err != nil {
		return nil, err
	}
	return w.sys, nil
}

// discard drops the machine after a failed run.
func (w *worker) discard() {
	if w != nil {
		w.sys = nil
	}
}

// trace returns run k's trace on topology t: the Prewarm's shared copy
// when one is planned, generating it on first use, else a new one.
func (w *worker) trace(r *Runner, k runKey, t topo.Topology) *trace.Trace {
	if w == nil {
		return r.generate(k.bench, t)
	}
	st := w.traces.get(k.traceKey())
	if st == nil {
		return r.generate(k.bench, t)
	}
	st.once.Do(func() { st.tr = r.generate(k.bench, t) })
	return st.tr
}

// Run simulates one benchmark under one protocol and variant, memoized.
func (r *Runner) Run(bench workload.Params, kind proto.Kind, v Variant) (*gsim.Results, error) {
	return r.runAt(bench, kind, v, topo.Spec{})
}

// runAt is Run with a per-run topology override stacked on the
// campaign's base shape.
func (r *Runner) runAt(bench workload.Params, kind proto.Kind, v Variant, sp topo.Spec) (*gsim.Results, error) {
	if r.recording {
		r.plan = append(r.plan, RunSpec{bench, kind, v, sp})
		return placeholder, nil
	}
	return r.run(r.key(bench, kind, v, sp), nil)
}

// run serves run k from either memo tier, simulating it on worker w on a
// miss.
func (r *Runner) run(k runKey, w *worker) (*gsim.Results, error) {
	return r.memoized(k, func() (*gsim.Results, error) { return r.simulate(k, w, nil) })
}

// schedule returns the unique runs of specs in Prewarm's order — grouped
// by trace, the groups in the order their traces are first asked for —
// and their traces, each counting its runs.
func (r *Runner) schedule(specs []RunSpec) ([]runKey, *traceSet) {
	seen := make(map[resstore.Key]bool, len(specs))
	traces := &traceSet{m: make(map[traceKey]*sharedTrace)}
	var groups [][]runKey
	group := make(map[traceKey]int)
	for _, s := range specs {
		k := r.key(s.Bench, s.Kind, s.V, s.Topo)
		addr := r.address(k)
		if seen[addr] {
			continue
		}
		seen[addr] = true
		tk := k.traceKey()
		st := traces.m[tk]
		if st == nil {
			st = &sharedTrace{}
			traces.m[tk] = st
			group[tk] = len(groups)
			groups = append(groups, nil)
		}
		st.refs++
		groups[group[tk]] = append(groups[group[tk]], k)
	}
	return slices.Concat(groups...), traces
}

// Prewarm executes the union of unique runs in specs across a bounded
// pool of Options.Jobs workers, filling the memo cache. Figure
// generation afterwards reads warm results in its own deterministic
// order, so table output does not depend on Jobs or on completion
// order. The first simulation error is returned after the pool drains.
//
// Each worker keeps one machine and resets it for every run, and each
// trace is generated once and shared by the runs that need it (gsim
// never writes a trace). The runs go out grouped by trace, in the order
// each trace is first asked for, so that only about Jobs traces are
// live at a time: a trace is dropped when its last run ends.
func (r *Runner) Prewarm(specs []RunSpec) error {
	todo, traces := r.schedule(specs)
	if len(todo) == 0 {
		return nil
	}
	jobs := r.opts.Jobs
	if jobs > len(todo) {
		jobs = len(todo)
	}
	if jobs < 1 {
		jobs = 1
	}

	start := time.Now() //lint:allow determinism wall time feeds the prewarm log line only
	before := r.Summary()
	work := make(chan runKey)
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var firstErr error
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		//lint:allow determinism the approved worker pool: runs are memoized whole and figures read the cache in deterministic order
		go func() {
			defer wg.Done()
			w := &worker{traces: traces}
			for k := range work {
				if _, err := r.run(k, w); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
				}
				traces.done(k.traceKey())
			}
		}()
	}
	for _, k := range todo {
		work <- k
	}
	close(work)
	wg.Wait()

	elapsed := time.Since(start) //lint:allow determinism wall time feeds the prewarm log line only
	after := r.Summary()
	simulated := after.UniqueRuns - before.UniqueRuns
	rate := mevPerSec(after.Events-before.Events, elapsed.Seconds())
	generated := after.Traces - before.Traces
	if r.opts.Store != nil {
		// Delta mode: with a persistent store attached, report how much
		// of the plan came off disk — after a one-figure change, the
		// interesting number is how small the simulated delta was.
		r.logf("prewarm: %d unique runs (%d duplicate specs folded) on %d workers in %.1fs, %.1f M events/s, %d traces generated; %d served from disk store, %d simulated\n",
			simulated+after.DiskHits-before.DiskHits, len(specs)-len(todo), jobs, elapsed.Seconds(), rate,
			generated, after.DiskHits-before.DiskHits, simulated)
	} else {
		r.logf("prewarm: %d unique runs (%d duplicate specs folded) on %d workers in %.1fs, %.1f M events/s, %d traces generated\n",
			simulated, len(specs)-len(todo), jobs, elapsed.Seconds(), rate, generated)
	}
	return firstErr
}
