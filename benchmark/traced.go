package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"time"

	"hmg/internal/experiments"
	"hmg/internal/gsim"
	"hmg/internal/proto"
)

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// perLayer lists every metric a traced run reports, on every workload.
// A layer a workload does not exercise reports 0 (experiments, resstore
// and report on the simulation workloads).
var perLayer = func() []metricDef {
	m := []metricDef{
		{"workload.gen_s", "s", "lower"},
		{"workload.ops", "count", "higher"},
		{"workload.gen_allocs", "count", "lower"},
		{"gsim.run_s", "s", "lower"},
		{"gsim.new_s", "s", "lower"},
		{"gsim.ns_per_event", "ns", "lower"},
		{"gsim.allocs_per_event", "allocs/event", "lower"},
		{"gsim.events_per_op", "events/op", "lower"},
		{"gsim.sim_cycles", "cycles", "lower"},
		{"gsim.drain_cycles_frac", "ratio", "lower"},
		{"gsim.codec_ns", "ns/op", "lower"},
		{"gsim.model.engine_s", "s", "lower"},
		{"gsim.model.cache_s", "s", "lower"},
		{"gsim.model.directory_s", "s", "lower"},
		{"gsim.model.link_s", "s", "lower"},
		{"gsim.model.memory_s", "s", "lower"},
		{"gsim.unattributed_s", "s", "lower"},
		{"experiments.unique_runs", "count", "lower"},
		{"experiments.memo_hits", "count", "higher"},
		{"experiments.prewarm_s", "s", "lower"},
		{"experiments.run_wall_sum_s", "s", "lower"},
		{"experiments.worker_idle_s", "s", "lower"},
		{"resstore.disk_writes", "count", "lower"},
		{"resstore.bytes", "bytes", "lower"},
		{"resstore.warm_s", "s", "lower"},
		{"resstore.warm_hit_rate", "ratio", "higher"},
		{"report.render_s", "s", "lower"},
		{"engine.events", "count", "lower"},
		{"engine.event_ns", "ns/op", "lower"},
		{"cache.l1_lookups", "count", "lower"},
		{"cache.l1_hit_rate", "ratio", "higher"},
		{"cache.l2_lookups", "count", "lower"},
		{"cache.l2_hit_rate", "ratio", "higher"},
		{"cache.lookup_ns", "ns/op", "lower"},
		{"cache.fill_ns", "ns/op", "lower"},
		{"directory.stores_seen", "count", "lower"},
		{"directory.stores_with_inv_frac", "ratio", "lower"},
		{"directory.lines_inv_per_store", "lines/store", "lower"},
		{"directory.evicts", "count", "lower"},
		{"directory.lines_inv_per_evict", "lines/evict", "lower"},
		{"directory.live_entries", "count", "lower"},
		{"directory.sharers_inline_ns", "ns/op", "lower"},
		{"directory.sharers_promoted_ns", "ns/op", "lower"},
		{"proto.remote_load_ns", "ns/op", "lower"},
		{"proto.remote_store_ns", "ns/op", "lower"},
		{"proto.local_store_ns", "ns/op", "lower"},
		{"link.inter_gpu_msgs", "count", "lower"},
		{"link.intra_gpu_msgs", "count", "lower"},
		{"link.inv_msgs", "count", "lower"},
		{"link.inter_gpu_mb", "MB", "lower"},
		{"link.send_intra_ns", "ns/op", "lower"},
		{"link.send_inter_ns", "ns/op", "lower"},
		{"memory.dram_reads", "count", "lower"},
		{"memory.dram_writes", "count", "lower"},
		{"memory.dram_read_ns", "ns/op", "lower"},
		{"memory.dram_write_ns", "ns/op", "lower"},
		{"trace.untraced_wall_s", "s", "lower"},
		{"trace.overhead_s", "s", "lower"},
		{"trace.overhead_frac", "ratio", "lower"},
		{"host.ref_ns", "ns", "lower"},
	}
	for k := 0; k < numEventKinds; k++ {
		m = append(m, metricDef{"gsim.ev." + gsim.EventKind(k).String(), "count", "lower"})
	}
	return m
}()

// writePerLayer prints the per-layer metric list as BENCHMARK.json
// entries.
func writePerLayer(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(perLayer)
}

// traced runs the same simulations untraced and traced, then the layer
// probes, and reports the per-layer metrics. The traced Results must
// deep-equal the untraced ones: the spans, the event sink and the
// counter reads are observers only.
func (b *benchRun) traced() error {
	units := map[string]string{}
	for _, m := range perLayer {
		units[m.Name] = m.Unit
		b.metrics[m.Name] = metric{0, m.Unit}
	}
	set := func(name string, v float64) {
		if _, ok := units[name]; !ok {
			panic("unlisted per-layer metric " + name)
		}
		b.set(name, units[name], v)
	}

	tr := newTracer(fmt.Sprintf("%s/seed%d/pid%d", b.workload, b.seed, os.Getpid()))
	lc := &layerCounts{}
	var (
		in                 probeInputs
		untraced, withSpan time.Duration
		host               hostClock
	)
	host.sample()
	if b.workload == "campaign-fig8" {
		var err error
		if in, untraced, withSpan, err = b.tracedCampaign(tr, lc, set); err != nil {
			return err
		}
	} else {
		w, err := newSimWorkload(b.workload, b.seed)
		if err != nil {
			return err
		}
		// The first pass of a process pays for growing the heap; it is
		// checked but not timed, so the overhead compares warm passes.
		warm, err := b.simPass(w, nil, nil, nil)
		if err != nil {
			return err
		}
		plain, err := b.simPass(w, nil, nil, warm)
		if err != nil {
			return err
		}
		spanned, err := b.simPass(w, tr, lc, plain)
		if err != nil {
			return err
		}
		for i := range plain {
			untraced += plain[i].run
			withSpan += spanned[i].run
		}
		c := w.cells[0]
		in = probeInputs{cfg: c.cfg, lines: linesOf(c.bench.Generate(c.cfg.Topo, w.scale), c.cfg.L2Slice.LineSize), res: plain[0].res}
	}

	host.sample()
	costs, err := measureLayers(in, tr)
	if err != nil {
		return err
	}
	tr.finish()
	if err := tr.write(b.spanPath()); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: %d spans written to %s\n", b.workload, len(tr.spans), b.spanPath())

	runS := tr.self("gsim.Run").Seconds()
	split := splitRun(lc, costs)
	set("workload.gen_s", tr.self("workload.Generate").Seconds())
	set("workload.ops", float64(lc.ops))
	set("workload.gen_allocs", float64(lc.genAllocs))
	set("gsim.run_s", runS)
	set("gsim.new_s", tr.self("gsim.New").Seconds())
	set("gsim.ns_per_event", runS*1e9/float64(max(lc.events, 1)))
	set("gsim.allocs_per_event", ratio(lc.runAllocs, lc.events))
	set("gsim.events_per_op", ratio(lc.events, lc.ops))
	set("gsim.sim_cycles", float64(lc.cycles))
	set("gsim.drain_cycles_frac", ratio(lc.drain, lc.cycles))
	set("gsim.codec_ns", costs.codec)
	set("gsim.model.engine_s", split.engine)
	set("gsim.model.cache_s", split.cache)
	set("gsim.model.directory_s", split.directory)
	set("gsim.model.link_s", split.link)
	set("gsim.model.memory_s", split.memory)
	set("gsim.unattributed_s", runS-split.total())
	for k := 0; k < numEventKinds; k++ {
		set("gsim.ev."+gsim.EventKind(k).String(), float64(lc.ev[k]))
	}
	set("engine.events", float64(lc.events))
	set("engine.event_ns", costs.event)
	set("cache.l1_lookups", float64(lc.l1Lookups))
	set("cache.l1_hit_rate", ratio(lc.l1Hits, lc.l1Lookups))
	set("cache.l2_lookups", float64(lc.l2Lookups))
	set("cache.l2_hit_rate", ratio(lc.l2Hits, lc.l2Lookups))
	set("cache.lookup_ns", costs.lookup)
	set("cache.fill_ns", costs.fill)
	set("directory.stores_seen", float64(lc.storesSeen))
	set("directory.stores_with_inv_frac", ratio(lc.storesWithInv, lc.storesSeen))
	set("directory.lines_inv_per_store", ratio(lc.linesInvByStores, lc.storesShared))
	set("directory.evicts", float64(lc.evicts))
	set("directory.lines_inv_per_evict", ratio(lc.linesInvByEvicts, lc.evicts))
	set("directory.live_entries", float64(lc.live))
	set("directory.sharers_inline_ns", costs.sharersInline)
	set("directory.sharers_promoted_ns", costs.sharersPromoted)
	set("proto.remote_load_ns", costs.remoteLoad)
	set("proto.remote_store_ns", costs.remoteStore)
	set("proto.local_store_ns", costs.localSt)
	set("link.inter_gpu_msgs", float64(lc.interMsgs))
	set("link.intra_gpu_msgs", float64(lc.intraMsgs))
	set("link.inv_msgs", float64(lc.invMsgs))
	set("link.inter_gpu_mb", float64(lc.interBytes)/1e6)
	set("link.send_intra_ns", costs.sendIntra)
	set("link.send_inter_ns", costs.sendInter)
	set("memory.dram_reads", float64(lc.dramReads))
	set("memory.dram_writes", float64(lc.dramWrites))
	set("memory.dram_read_ns", costs.dramRead)
	set("memory.dram_write_ns", costs.dramWrite)
	set("trace.untraced_wall_s", untraced.Seconds())
	set("trace.overhead_s", (withSpan - untraced).Seconds())
	set("trace.overhead_frac", (withSpan-untraced).Seconds()/untraced.Seconds())
	set("host.ref_ns", median(host.ns))
	return nil
}

// tracedCampaign runs a cold+warm campaign pass with spans around the
// runner's calls, then replays every unique run directly (Generate, New,
// Run) twice: untraced, and traced with the counting sink attached, so
// the inner layers' counters cover the whole campaign. Both replays'
// Results must deep-equal the runner's. It returns the probes' inputs
// and the untraced and traced replays' summed Run times.
func (b *benchRun) tracedCampaign(tr *tracer, lc *layerCounts, set func(string, float64)) (probeInputs, time.Duration, time.Duration, error) {
	var in probeInputs
	cp, err := newCampaign(b.seed, b.workdir)
	if err != nil {
		return in, 0, 0, err
	}
	cold, err := cp.coldPass(tr)
	if err != nil {
		return in, 0, 0, err
	}
	warm, err := cp.warmPass(cold, tr)
	if err != nil {
		cp.cleanup(cold)
		return in, 0, 0, err
	}
	bytes, err := storeBytes(cold.dir)
	cp.cleanup(cold)
	if err != nil {
		return in, 0, 0, err
	}
	b.checkCampaign(cold, warm, nil)

	s := cold.summary
	prewarm := cold.prewarm.Seconds()
	set("experiments.unique_runs", float64(s.UniqueRuns))
	set("experiments.memo_hits", float64(s.MemoHits))
	set("experiments.prewarm_s", prewarm)
	set("experiments.run_wall_sum_s", s.RunWall.Seconds())
	set("experiments.worker_idle_s", float64(campaignOpts.Jobs)*prewarm-s.RunWall.Seconds())
	set("resstore.disk_writes", float64(s.DiskWrites))
	set("resstore.bytes", float64(bytes))
	set("resstore.warm_s", warm.wall.Seconds())
	set("resstore.warm_hit_rate", ratio(uint64(warm.summary.DiskHits), uint64(len(cold.keys))))
	set("report.render_s", cold.render.Seconds())

	// Replay for the inner layers.
	r, err := experiments.NewRunner(campaignOpts)
	if err != nil {
		return in, 0, 0, err
	}
	specs := map[string]experiments.RunSpec{}
	for _, s := range cold.plan {
		specs[specKey(s)] = s
	}
	cells := make([]cell, len(cold.keys))
	for i, k := range cold.keys {
		s := specs[k]
		cells[i] = cell{bench: s.Bench, kind: s.Kind, cfg: r.Config(s.Kind, s.V)}
	}
	replay := func(tr *tracer, lc *layerCounts) ([]cellRun, time.Duration, error) {
		runs := make([]cellRun, len(cells))
		var runT time.Duration
		root := tr.begin("campaign.replay", -1)
		defer tr.end(root)
		for i, c := range cells {
			sp := tr.begin("cell "+cold.keys[i], root)
			cr, err := runCell(c, campaignOpts.Scale, tr, sp, lc)
			tr.end(sp)
			if err != nil {
				return nil, 0, err
			}
			runs[i] = cr
			runT += cr.run
		}
		return runs, runT, nil
	}
	plain, untraced, err := replay(nil, nil)
	if err != nil {
		return in, 0, 0, err
	}
	spanned, withSpan, err := replay(tr, lc)
	if err != nil {
		return in, 0, 0, err
	}
	for i, k := range cold.keys {
		p := spanned[i].problems
		if !reflect.DeepEqual(plain[i].res, cold.results[k]) {
			p = append(p, "untraced replay Results differ from the campaign runner's")
		}
		if !reflect.DeepEqual(spanned[i].res, plain[i].res) {
			p = append(p, "traced replay Results differ from the untraced replay's")
		}
		b.op("replay "+k, p)
		if c := cells[i]; in.res == nil && c.kind == proto.HMG {
			in = probeInputs{cfg: c.cfg, lines: linesOf(c.bench.Generate(c.cfg.Topo, campaignOpts.Scale), c.cfg.L2Slice.LineSize), res: plain[i].res}
		}
	}
	return in, untraced, withSpan, nil
}
