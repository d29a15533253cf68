package experiments

import (
	"fmt"

	"hmg/internal/directory"
	"hmg/internal/gsim"
	"hmg/internal/proto"
	"hmg/internal/report"
	"hmg/internal/stats"
	"hmg/internal/topo"
	"hmg/internal/trace"
	"hmg/internal/workload"
)

// fig2Protocols are the three non-hierarchical-study configurations of
// Fig. 2 (plus the implicit baseline).
var fig2Protocols = []proto.Kind{proto.SWNonHier, proto.NHCC, proto.Ideal}

// fig8Protocols are the five configurations of Fig. 8.
var fig8Protocols = []proto.Kind{proto.SWNonHier, proto.NHCC, proto.SWHier, proto.HMG, proto.Ideal}

// legend maps protocol kinds to the paper's legend names.
func legend(k proto.Kind) string {
	switch k {
	case proto.SWNonHier:
		return "SW-NonHier"
	case proto.NHCC:
		return "HW-NonHier"
	case proto.SWHier:
		return "SW-Hier"
	case proto.HMG:
		return "HMG"
	case proto.Ideal:
		return "Ideal"
	default:
		return k.String()
	}
}

// baselineCycles reads each benchmark's no-caching run on machine shape
// sp once: the normalization point of a table's speedups.
func baselineCycles(r *Runner, benches []workload.Params, sp topo.Spec) ([]float64, error) {
	base := make([]float64, len(benches))
	for i, b := range benches {
		res, err := r.runAt(b, proto.NoRemoteCache, Variant{}, sp)
		if err != nil {
			return nil, err
		}
		base[i] = float64(res.Cycles)
	}
	return base, nil
}

// speedupTable tabulates each suite benchmark's speedup under kinds
// over its no-caching run at Table II, reading that baseline once per
// row.
func speedupTable(r *Runner, title string, kinds []proto.Kind) (*report.Table, error) {
	t := &report.Table{Title: title}
	for _, k := range kinds {
		t.Columns = append(t.Columns, legend(k))
	}
	for _, b := range workload.Suite() {
		base, err := r.Run(b, proto.NoRemoteCache, Variant{})
		if err != nil {
			return nil, err
		}
		row := make([]float64, 0, len(kinds))
		for _, k := range kinds {
			res, err := r.Run(b, k, Variant{})
			if err != nil {
				return nil, err
			}
			row = append(row, float64(base.Cycles)/float64(res.Cycles))
		}
		t.Add(b.Abbrev, row...)
	}
	t.AddGeoMeanRow("GeoMean")
	t.AddNote("speedup over a 4-GPU system that disallows caching of remote-GPU data (Table II config)")
	return t, nil
}

// Fig2 reproduces the motivation study: benefits of caching remote GPU
// data under the three non-hierarchical-era protocols.
func Fig2(r *Runner) (*report.Table, error) {
	return speedupTable(r, "Fig. 2: remote-caching benefit of non-hierarchical protocols (4 GPUs x 4 GPMs)", fig2Protocols)
}

// Fig3 reproduces the inter-GPU load redundancy profile: the percentage
// of inter-GPU loads destined to addresses also accessed by another GPM
// of the same GPU.
func Fig3(r *Runner) (*report.Table, error) {
	t := &report.Table{
		Title:     "Fig. 3: % of inter-GPU loads to addresses accessed by another GPM of the same GPU",
		Columns:   []string{"redundant%"},
		Precision: 1,
	}
	cfg := r.Config(proto.HMG, Variant{})
	var sum, n float64
	for _, b := range workload.Suite() {
		tr := b.Generate(cfg.Topo, r.opts.Scale)
		red := 100 * workload.InterGPURedundancy(tr, cfg.Topo)
		t.Add(b.Abbrev, red)
		sum += red
		n++
	}
	t.Add("Avg", sum/n)
	return t, nil
}

// Fig8 reproduces the main result: the five-way protocol comparison on
// the 4-GPU, 16-GPM system.
func Fig8(r *Runner) (*report.Table, error) {
	t, err := speedupTable(r, "Fig. 8: performance of a 4-GPU system (4 GPMs per GPU), 5 configurations", fig8Protocols)
	if err != nil {
		return nil, err
	}
	// The headline claims of the paper, recomputed from this table.
	gm := func(col string) float64 {
		v, _ := t.Cell("GeoMean", col)
		return v
	}
	if gm(legend(proto.Ideal)) > 0 {
		t.AddNote("HMG reaches %.0f%% of Ideal (paper: 97%%)", 100*gm("HMG")/gm("Ideal"))
	}
	if gm(legend(proto.SWNonHier)) > 0 {
		t.AddNote("HMG over non-hierarchical SW: +%.0f%% (paper: +26%%)", 100*(gm("HMG")/gm("SW-NonHier")-1))
	}
	if gm(legend(proto.NHCC)) > 0 {
		t.AddNote("HMG over NHCC: +%.0f%% (paper: +18%%)", 100*(gm("HMG")/gm("HW-NonHier")-1))
	}
	return t, nil
}

// Fig9 reproduces the store-invalidation profile: average cache lines
// invalidated by each store request on shared data, under HMG.
func Fig9(r *Runner) (*report.Table, error) {
	return hmgProfile(r, "Fig. 9: avg cache lines invalidated per store on shared data (HMG)",
		"lines/store", func(res *gsim.Results) float64 { return res.InvLinesPerStore() })
}

// Fig10 reproduces the eviction-invalidation profile: average cache
// lines invalidated by each coherence directory eviction, under HMG.
func Fig10(r *Runner) (*report.Table, error) {
	return hmgProfile(r, "Fig. 10: avg cache lines invalidated per directory eviction (HMG)",
		"lines/evict", func(res *gsim.Results) float64 { return res.InvLinesPerDirEvict() })
}

// Fig11 reproduces the invalidation bandwidth profile: total bandwidth
// cost of invalidation messages under HMG.
func Fig11(r *Runner) (*report.Table, error) {
	return hmgProfile(r, "Fig. 11: total bandwidth cost of invalidation messages (HMG)",
		"GB/s", func(res *gsim.Results) float64 { return res.InvBandwidthGBs() })
}

func hmgProfile(r *Runner, title, col string, metric func(*gsim.Results) float64) (*report.Table, error) {
	t := &report.Table{Title: title, Columns: []string{col}}
	var sum, n float64
	for _, b := range workload.Suite() {
		res, err := r.Run(b, proto.HMG, Variant{})
		if err != nil {
			return nil, err
		}
		v := metric(res)
		t.Add(b.Abbrev, v)
		sum += v
		n++
	}
	t.Add("Avg", sum/n)
	return t, nil
}

// sweep builds a sensitivity table: geomean suite speedup of the Fig. 8
// protocols at each variant point, normalized to the Table II
// no-caching baseline (the paper's Figs. 12-14 presentation).
func sweep(r *Runner, title string, points []Variant, labels []string) (*report.Table, error) {
	kinds := []proto.Kind{proto.NHCC, proto.SWHier, proto.HMG, proto.Ideal}
	t := &report.Table{Title: title}
	for _, k := range kinds {
		t.Columns = append(t.Columns, legend(k))
	}
	suite := workload.Suite()
	base, err := baselineCycles(r, suite, topo.Spec{})
	if err != nil {
		return nil, err
	}
	for i, v := range points {
		row := make([]float64, 0, len(kinds))
		for _, k := range kinds {
			var sp []float64
			for j, b := range suite {
				res, err := r.Run(b, k, v)
				if err != nil {
					return nil, err
				}
				sp = append(sp, base[j]/float64(res.Cycles))
			}
			row = append(row, stats.GeoMean(sp))
		}
		t.Add(labels[i], row...)
	}
	t.AddNote("geomean speedup over the suite; baseline is no caching at the Table II configuration")
	return t, nil
}

// fig12Points are the inter-GPU bandwidth sweep points.
func fig12Points() ([]Variant, []string) {
	var points []Variant
	var labels []string
	for _, bw := range []float64{100, 200, 300, 400} {
		points = append(points, Variant{NVLinkGBs: bw})
		labels = append(labels, fmt.Sprintf("%.0fGB/s", bw))
	}
	return points, labels
}

// Fig12 reproduces the inter-GPU bandwidth sensitivity sweep.
func Fig12(r *Runner) (*report.Table, error) {
	points, labels := fig12Points()
	return sweep(r, "Fig. 12: sensitivity to inter-GPU bandwidth", points, labels)
}

// fig13Points are the L2 capacity sweep points.
func fig13Points() ([]Variant, []string) {
	var points []Variant
	var labels []string
	for _, mb := range []int{6, 12, 24} {
		points = append(points, Variant{L2MBPerGPU: mb})
		labels = append(labels, fmt.Sprintf("%dMB/GPU", mb))
	}
	return points, labels
}

// Fig13 reproduces the L2 capacity sensitivity sweep.
func Fig13(r *Runner) (*report.Table, error) {
	points, labels := fig13Points()
	return sweep(r, "Fig. 13: sensitivity to L2 cache size", points, labels)
}

// fig14Points are the directory size sweep points.
func fig14Points() ([]Variant, []string) {
	var points []Variant
	var labels []string
	for _, k := range []int{3, 6, 12} {
		points = append(points, Variant{DirEntries: k * 1024})
		labels = append(labels, fmt.Sprintf("%dK entries/GPM", k))
	}
	return points, labels
}

// Fig14 reproduces the directory size sensitivity sweep.
func Fig14(r *Runner) (*report.Table, error) {
	points, labels := fig14Points()
	return sweep(r, "Fig. 14: sensitivity to coherence directory size", points, labels)
}

// granularityPoints are the §VII-B constant-coverage sweep points.
func granularityPoints() ([]Variant, []string) {
	var points []Variant
	var labels []string
	for _, g := range []int{1, 2, 4, 8} {
		points = append(points, Variant{GranLines: g, DirEntries: 48 * 1024 / g})
		labels = append(labels, fmt.Sprintf("%d lines/entry", g))
	}
	return points, labels
}

// Granularity reproduces the §VII-B (unpictured) study: directory entry
// granularity varied at constant coverage — entries × granularity held
// at the Table II 48K lines per GPM.
func Granularity(r *Runner) (*report.Table, error) {
	points, labels := granularityPoints()
	t, err := sweep(r, "Sec. VII-B: directory entry granularity at constant coverage", points, labels)
	if err != nil {
		return nil, err
	}
	t.AddNote("coverage held at 48K lines (6MB of shareable data) per GPM")
	return t, nil
}

// DowngradeAblation studies the optional clean-eviction downgrade
// message of Section IV (not enabled in the paper's evaluation): HMG
// with and without it, plus the invalidation traffic each produces.
func DowngradeAblation(r *Runner) (*report.Table, error) {
	t := &report.Table{
		Title:   "Ablation: optional sharer-downgrade messages (Section IV option)",
		Columns: []string{"speedup", "invGB/s", "dirEvictLines"},
	}
	suite := workload.Suite()
	base, err := baselineCycles(r, suite, topo.Spec{})
	if err != nil {
		return nil, err
	}
	for _, on := range []bool{false, true} {
		var sp []float64
		var invGBs, evLines float64
		for j, b := range suite {
			res, err := r.Run(b, proto.HMG, Variant{Downgrade: on})
			if err != nil {
				return nil, err
			}
			sp = append(sp, base[j]/float64(res.Cycles))
			invGBs += res.InvBandwidthGBs()
			evLines += float64(res.LinesInvByEvicts)
		}
		label := "HMG (no downgrade)"
		if on {
			label = "HMG + downgrade"
		}
		t.Add(label, stats.GeoMean(sp), invGBs/float64(len(suite)), evLines)
	}
	t.AddNote("downgrades trade extra control messages for fewer eviction invalidations")
	return t, nil
}

// writeBackRows are the protocol × L2-design points of the write-back
// ablation, in table order.
var writeBackRows = []struct {
	label string
	kind  proto.Kind
	wb    bool
}{
	{"NHCC write-through", proto.NHCC, false},
	{"NHCC write-back", proto.NHCC, true},
	{"HMG write-through", proto.HMG, false},
	{"HMG write-back", proto.HMG, true},
}

// WriteBackAblation studies the Section IV write-back L2 option against
// the paper's evaluated write-through design, for the hardware
// protocols.
func WriteBackAblation(r *Runner) (*report.Table, error) {
	t := &report.Table{
		Title:   "Ablation: write-back vs write-through L2 (Section IV design options)",
		Columns: []string{"speedup", "interGPU GB/s"},
	}
	suite := workload.Suite()
	base, err := baselineCycles(r, suite, topo.Spec{})
	if err != nil {
		return nil, err
	}
	for _, row := range writeBackRows {
		var sp []float64
		var gbs float64
		for j, b := range suite {
			res, err := r.Run(b, row.kind, Variant{WriteBack: row.wb})
			if err != nil {
				return nil, err
			}
			sp = append(sp, base[j]/float64(res.Cycles))
			gbs += res.InterGPUGBs()
		}
		t.Add(row.label, stats.GeoMean(sp), gbs/float64(len(suite)))
	}
	t.AddNote("write-back absorbs plain stores locally and flushes on releases, kernel boundaries, and evictions")
	return t, nil
}

// RelatedProtocols compares HMG against the CARVE-like
// classification-based baseline the paper discusses in Sections II-A and
// VII-A ("these observations highlight the benefit of tracking sharers
// dynamically, rather than classifying data sharing type alone").
func RelatedProtocols(r *Runner) (*report.Table, error) {
	t, err := speedupTable(r, "Related work: sharer tracking (HMG) vs region classification (CARVE-like)",
		[]proto.Kind{proto.NHCC, proto.CARVE, proto.HMG})
	if err != nil {
		return nil, err
	}
	t.AddNote("CARVE broadcasts on read-write transitions and never caches read-write shared data remotely")
	return t, nil
}

// MCAStudy quantifies the paper's Section III-B argument: a GPU-VI-like
// protocol that preserves multi-copy-atomicity must collect invalidation
// acknowledgments before a store to shared data completes — tolerable on
// one GPU, but the inter-GPU round trip makes it expensive at multi-GPU
// scale. Columns compare the flat ack-free NHCC, the flat
// multi-copy-atomic GPU-VI, and HMG.
func MCAStudy(r *Runner) (*report.Table, error) {
	t, err := speedupTable(r, "Sec. III-B: the cost of multi-copy-atomicity at multi-GPU scale",
		[]proto.Kind{proto.GPUVI, proto.NHCC, proto.HMG})
	if err != nil {
		return nil, err
	}
	t.AddNote("GPU-VI-MCA blocks each home line until every sharer acknowledges its invalidation")
	return t, nil
}

// gpmScopeNames are the explicitly synchronizing benchmarks of the
// Section VII-D scope study; gpmScopeScopes the sync scopes swept.
var gpmScopeNames = []string{"namd2.10", "cuSolver", "mst"}
var gpmScopeScopes = []trace.Scope{trace.ScopeGPM, trace.ScopeGPU, trace.ScopeSys}

// gpmScopeBench narrows/widens a benchmark's synchronization to sc,
// keyed under a scope-suffixed abbreviation.
func gpmScopeBench(b workload.Params, sc trace.Scope) workload.Params {
	v := b
	v.SyncScope = sc
	v.Abbrev = b.Abbrev + sc.String()
	return v
}

// GPMScopeStudy measures the Section VII-D question: would a .gpm scope
// between .cta and .gpu pay off? The explicitly synchronizing
// benchmarks run under HMG with their synchronization narrowed to .gpm,
// kept at .gpu, and widened to .sys. The paper's conclusion — high
// inter-GPM bandwidth makes the .gpm/.gpu gap small — is measurable
// here as the speedup difference between the first two columns. Every
// column is normalized to the original benchmark's no-caching run, so
// the columns differ only in the HMG runs.
func GPMScopeStudy(r *Runner) (*report.Table, error) {
	t := &report.Table{
		Title:   "Sec. VII-D: would a .gpm scope help? (sync-heavy benchmarks under HMG)",
		Columns: []string{".gpm sync", ".gpu sync", ".sys sync"},
	}
	for _, name := range gpmScopeNames {
		b, err := workload.Get(name)
		if err != nil {
			return nil, err
		}
		base, err := r.Run(b, proto.NoRemoteCache, Variant{})
		if err != nil {
			return nil, err
		}
		row := make([]float64, 0, 3)
		for _, sc := range gpmScopeScopes {
			res, err := r.Run(gpmScopeBench(b, sc), proto.HMG, Variant{})
			if err != nil {
				return nil, err
			}
			row = append(row, float64(base.Cycles)/float64(res.Cycles))
		}
		t.Add(name, row...)
	}
	t.AddGeoMeanRow("GeoMean")
	t.AddNote("speedups vs the Table II no-caching baseline of each original benchmark")
	return t, nil
}

// localityRows are the locality-policy ablation points, in table order.
var localityRows = []struct {
	label string
	v     Variant
}{
	{"contiguous CTAs + first-touch (paper)", Variant{}},
	{"scattered CTAs", Variant{ScatterCTAs: true}},
	{"static page placement", Variant{StaticPlacement: true}},
	{"both ablated", Variant{ScatterCTAs: true, StaticPlacement: true}},
}

// LocalityAblation measures the two locality policies the paper's
// simulator inherits from prior work ("contiguous CTA scheduling and
// first-touch page placement policies ... to maximize data locality"):
// scattering CTAs round-robin, and replacing first-touch placement with
// a static round-robin page assignment, both under HMG.
func LocalityAblation(r *Runner) (*report.Table, error) {
	t := &report.Table{
		Title:   "Ablation: locality policies (contiguous CTA scheduling, first-touch placement) under HMG",
		Columns: []string{"speedup"},
	}
	suite := workload.Suite()
	base, err := baselineCycles(r, suite, topo.Spec{})
	if err != nil {
		return nil, err
	}
	for _, row := range localityRows {
		var sp []float64
		for j, b := range suite {
			res, err := r.Run(b, proto.HMG, row.v)
			if err != nil {
				return nil, err
			}
			sp = append(sp, base[j]/float64(res.Cycles))
		}
		t.Add(row.label, stats.GeoMean(sp))
	}
	t.AddNote("speedups vs the unmodified no-remote-caching baseline; lower rows show locality lost")
	return t, nil
}

// TableII documents the simulated configuration in the paper's (full
// scale) units; the scaled-model equivalents appear as footnotes.
func TableII(r *Runner) *report.Table {
	full := gsim.DefaultConfig(r.opts.SMsPerGPM, proto.HMG)
	scaled := r.Config(proto.HMG, Variant{})
	t := &report.Table{Title: "Table II: configuration of simulated architecture", Columns: []string{"value"}, Precision: 0}
	t.Add("GPUs", float64(full.Topo.NumGPUs))
	t.Add("GPMs per GPU", float64(full.Topo.GPMsPerGPU))
	t.Add("SMs per GPU (modeled x aggregation)", float64(full.Topo.SMsPerGPM*full.Topo.GPMsPerGPU*(32/full.Topo.SMsPerGPM)))
	t.Add("GPU frequency (GHz)", full.FrequencyHz/1e9)
	t.Add("L2 per GPU (MB)", float64(full.L2Slice.CapacityBytes*full.Topo.GPMsPerGPU)/(1<<20))
	t.Add("L2 line (B)", float64(full.Topo.LineSize))
	t.Add("L2 ways", float64(full.L2Slice.Ways))
	t.Add("dir entries per GPM", float64(full.Dir.Entries))
	t.Add("lines per dir entry", float64(full.Dir.GranLines))
	t.Add("inter-GPM BW per GPU (GB/s)", full.Net.XbarPortGBs*float64(full.Topo.GPMsPerGPU))
	t.Add("inter-GPU BW per link (GB/s)", full.Net.NVLinkGBs)
	t.Add("DRAM BW per GPU (GB/s)", full.DRAM.BandwidthGBs*float64(full.Topo.GPMsPerGPU))
	t.Add("OS page (MB)", float64(full.Topo.PageSize)/(1<<20))
	t.AddNote("experiments run a 1/%d-scale model: L2 %dKB/GPM, %d dir entries/GPM, %dKB pages",
		ScaleDown, scaled.L2Slice.CapacityBytes/1024, scaled.Dir.Entries, pageSizeKB)
	t.AddNote("bandwidths scale with SM aggregation: NVLink modeled at %.0f GB/s per link", scaled.Net.NVLinkGBs)
	return t
}

// TableIII documents the benchmark suite.
func TableIII(r *Runner) *report.Table {
	t := &report.Table{Title: "Table III: benchmarks", Columns: []string{"scaledMB", "kernels", "ops"}, Precision: 1}
	cfg := r.Config(proto.HMG, Variant{})
	for _, b := range workload.Suite() {
		tr := b.Generate(cfg.Topo, r.opts.Scale)
		st := workload.Summarize(tr, cfg.Topo)
		t.Add(b.Abbrev, b.FootprintMB, float64(st.Kernels), float64(st.Ops))
	}
	return t
}

// HardwareCost reproduces the §VII-C storage analysis at full (Table
// II) scale — the directory cost is a property of the real hardware, not
// of the scaled experiment model.
func HardwareCost(r *Runner) *report.Table {
	cfg := gsim.DefaultConfig(r.opts.SMsPerGPM, proto.HMG)
	maxSharers, bits := directory.EntryCost(cfg.Topo.NumGPUs, cfg.Topo.GPMsPerGPU, true)
	total := cfg.Dir.Entries * bits / 8
	t := &report.Table{Title: "Sec. VII-C: HMG hardware cost", Columns: []string{"value"}, Precision: 2}
	t.Add("sharers per entry (M+N-2)", float64(maxSharers))
	t.Add("bits per entry", float64(bits))
	t.Add("directory KB per GPM", float64(total)/1024)
	t.Add("% of GPM L2 capacity", 100*float64(total)/float64(cfg.L2Slice.CapacityBytes))
	t.AddNote("paper: 55 bits/entry, 84KB/GPM, 2.7%% of L2")
	return t
}
