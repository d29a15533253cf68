package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"hmg/internal/experiments"
	"hmg/internal/gsim"
)

// campaignFigs are the figures of campaign-fig8: the paper's headline
// comparison and its three invalidation profiles.
var campaignFigs = []string{"8", "9", "10", "11"}

// campaignOpts is the campaign's runner configuration; Store is set per
// pass.
var campaignOpts = experiments.Options{Scale: 0.1, SMsPerGPM: 8, Jobs: 2}

// setupReps is how many times one pass repeats the campaign set-up. The
// set-up takes about 100µs, so its reported value is the median of many
// samples rather than one.
const setupReps = 300

type campaign struct {
	seed    int64
	workdir string
	figs    []experiments.Figure
}

func newCampaign(seed int64, workdir string) (*campaign, error) {
	cp := &campaign{seed: seed, workdir: workdir}
	for _, name := range campaignFigs {
		for _, f := range experiments.Figures() {
			if f.Name == name {
				cp.figs = append(cp.figs, f)
			}
		}
	}
	if len(cp.figs) != len(campaignFigs) {
		return nil, fmt.Errorf("figures %v not all in the registry", campaignFigs)
	}
	return cp, nil
}

// coldResult is one cold campaign pass.
type coldResult struct {
	dir     string
	plan    []experiments.RunSpec
	setups  []time.Duration
	wall    time.Duration // prewarm plus rendering
	prewarm time.Duration
	allocs  uint64
	tables  []string
	digests []string
	summary experiments.Summary
	keys    []string // unique runs, in plan order
	results map[string]*gsim.Results
	runErrs map[string]error
	ops     uint64
	render  time.Duration
}

// specKey names a run of the campaign; the four figures run every
// benchmark at the Table II point, so benchmark and protocol identify it.
func specKey(s experiments.RunSpec) string { return s.Bench.Abbrev + "/" + s.Kind.String() }

// setup is the campaign's set-up: the model-version stamp and store
// open, the runner, and the plan union in registry order. The store
// directory dir already exists, so the timed open does not include
// creating it: a directory creation costs more than the rest of the
// set-up and varies with the host's filesystem load.
func (cp *campaign) setup(dir string) (*experiments.Runner, []experiments.RunSpec, time.Duration, error) {
	t0 := time.Now()
	st, err := experiments.OpenStore(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	opts := campaignOpts
	opts.Store = st
	r, err := experiments.NewRunner(opts)
	if err != nil {
		return nil, nil, 0, err
	}
	plan := experiments.PlanUnion(cp.figs)
	return r, plan, time.Since(t0), nil
}

// warmPlan is the order in which the warm pass asks for the runs: the
// cold plan shuffled by the seed. The campaign's traces are fixed by the
// figure registry, so the seed varies only this order, and the tables
// must come out byte-identical whatever it is. The cold pass keeps the
// registry order because its wall time depends on how the two workers'
// runs pair up.
func (cp *campaign) warmPlan(plan []experiments.RunSpec) []experiments.RunSpec {
	p := append([]experiments.RunSpec(nil), plan...)
	if cp.seed != 0 {
		rand.New(rand.NewSource(cp.seed)).Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	}
	return p
}

// render generates the four tables from the runner's warm cache and
// returns them with the time it took.
func (cp *campaign) render(r *experiments.Runner, tr *tracer, parent int) ([]string, time.Duration, error) {
	var tables []string
	t0 := time.Now()
	for _, f := range cp.figs {
		sp := tr.begin("report.render fig"+f.Name, parent)
		t, err := f.Gen(r)
		tr.end(sp)
		if err != nil {
			return nil, 0, fmt.Errorf("figure %s: %w", f.Name, err)
		}
		tables = append(tables, t.String())
	}
	return tables, time.Since(t0), nil
}

// coldPass sets up setupReps times, keeps the last set-up, and measures
// a cold prewarm of the plan on a fresh store plus rendering the tables.
func (cp *campaign) coldPass(tr *tracer) (*coldResult, error) {
	c := &coldResult{}
	var r *experiments.Runner
	runtime.GC() // start the set-ups from a collected heap
	for i := 0; i < setupReps; i++ {
		if c.dir != "" {
			os.RemoveAll(c.dir)
		}
		dir, err := os.MkdirTemp(cp.workdir, "campaign-")
		if err != nil {
			return nil, err
		}
		c.dir = dir
		sp := tr.begin("campaign.setup", -1)
		var d time.Duration
		r, c.plan, d, err = cp.setup(dir)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		c.setups = append(c.setups, d)
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	root := tr.begin("campaign.cold", -1)
	t0 := time.Now()
	sp := tr.begin("experiments.Prewarm", root)
	err := r.Prewarm(c.plan)
	c.prewarm = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("prewarm: %w", err)
	}
	c.tables, c.render, err = cp.render(r, tr, root)
	c.wall = time.Since(t0)
	tr.end(root)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, err
	}
	c.allocs = m1.Mallocs - m0.Mallocs
	c.summary = r.Summary()
	for _, t := range c.tables {
		h := sha256.Sum256([]byte(t))
		c.digests = append(c.digests, hex.EncodeToString(h[:]))
	}

	// Read every unique run back from the memo, after measuring.
	c.results = map[string]*gsim.Results{}
	c.runErrs = map[string]error{}
	for _, s := range c.plan {
		k := specKey(s)
		if _, seen := c.results[k]; seen {
			continue
		}
		if _, seen := c.runErrs[k]; seen {
			continue
		}
		res, err := r.Run(s.Bench, s.Kind, s.V)
		if err != nil {
			c.runErrs[k] = err
			continue
		}
		c.keys = append(c.keys, k)
		c.results[k] = res
		c.ops += res.Ops
	}
	return c, nil
}

// warmResult is a fresh runner on the cold pass's store.
type warmResult struct {
	wall    time.Duration
	tables  []string
	summary experiments.Summary
}

func (cp *campaign) warmPass(c *coldResult, tr *tracer) (*warmResult, error) {
	st, err := experiments.OpenStore(c.dir)
	if err != nil {
		return nil, err
	}
	opts := campaignOpts
	opts.Store = st
	r, err := experiments.NewRunner(opts)
	if err != nil {
		return nil, err
	}
	w := &warmResult{}
	sp := tr.begin("resstore.warm", -1)
	t0 := time.Now()
	if err := r.Prewarm(cp.warmPlan(c.plan)); err != nil {
		return nil, fmt.Errorf("warm prewarm: %w", err)
	}
	w.tables, _, err = cp.render(r, tr, sp)
	w.wall = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	w.summary = r.Summary()
	return w, nil
}

func (cp *campaign) cleanup(c *coldResult) { os.RemoveAll(c.dir) }

// storeBytes sums the sizes of the store's record files.
func storeBytes(dir string) (uint64, error) {
	var n uint64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += uint64(info.Size())
		return nil
	})
	return n, err
}

// checkCampaign accounts the operations of one cold and warm pass: every
// unique run, every cold table against its pin, every warm read from
// disk, and every warm table against the cold one. first is the first
// pass's cold result (nil on the first pass).
func (b *benchRun) checkCampaign(c *coldResult, w *warmResult, first *coldResult) {
	for k, err := range c.runErrs {
		b.op("campaign run "+k, []string{err.Error()})
	}
	for _, k := range c.keys {
		res := c.results[k]
		p := consistency(res)
		if first != nil && !reflect.DeepEqual(res, first.results[k]) {
			p = append(p, "Results differ from the first pass (nondeterminism)")
		}
		b.op("campaign run "+k, p)
	}
	for i, d := range c.digests {
		var p []string
		if i >= len(tablePins) || d != tablePins[i] {
			p = append(p, fmt.Sprintf("table digest %s differs from the pin", d))
		}
		b.op("campaign table fig"+campaignFigs[i], p)
	}
	// Each unique run read back warm is an operation; one the warm pass
	// had to simulate again failed.
	b.attempted += len(c.keys)
	if n := w.summary.UniqueRuns; n > 0 {
		b.failed += min(n, len(c.keys))
		fmt.Fprintf(os.Stderr, "FAIL warm pass: simulated %d runs, want 0\n", n)
	}
	for i, t := range w.tables {
		var p []string
		if i >= len(c.tables) || t != c.tables[i] {
			p = append(p, "warm table differs from the cold one")
		}
		b.op("campaign warm table fig"+campaignFigs[i], p)
	}
}

// campaignEndToEnd repeats cold and warm passes within the budget and
// reports medians.
func (b *benchRun) campaignEndToEnd() error {
	cp, err := newCampaign(b.seed, b.workdir)
	if err != nil {
		return err
	}
	var (
		first       *coldResult
		walls       []time.Duration
		setups      []time.Duration
		allocsPerOp []float64
		rss         []float64
		passes      int
		host        hostClock
	)
	start := time.Now()
	for keepPassing(passes, start, time.Since(start)/time.Duration(max(passes, 1)), b.budget) {
		host.sample()
		resetPeakRSS()
		c, err := cp.coldPass(nil)
		if err != nil {
			return err
		}
		w, err := cp.warmPass(c, nil)
		cp.cleanup(c)
		if err != nil {
			return err
		}
		rss = append(rss, peakRSSMB())
		b.checkCampaign(c, w, first)
		if first == nil {
			first = c
		}
		walls = append(walls, c.wall)
		setups = append(setups, c.setups...)
		allocsPerOp = append(allocsPerOp, float64(c.allocs)/float64(c.ops))
		passes++
		fmt.Fprintf(os.Stderr, "pass %d: setup %.6fs cold %.3fs warm %.3fs rss %.1f\n", passes, median(c.setups).Seconds(), c.wall.Seconds(), w.wall.Seconds(), rss[len(rss)-1])
	}
	fmt.Fprintf(os.Stderr, "%s: %d passes of %d runs in %.1fs\n", b.workload, passes, len(first.keys), time.Since(start).Seconds())
	b.setEndToEnd(&host, median(walls), median(setups), first.ops, median(rss), median(allocsPerOp))
	return nil
}
