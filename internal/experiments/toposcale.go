// The topology-scaling figure: the motivating comparison of this
// repo's large-machine support. Flat hardware coherence (NHCC-style)
// names sharers by global GPM id, so its directory entry width and its
// willingness to spray invalidations across GPU boundaries both grow
// with the whole machine; hierarchical HMG names GPU-local modules plus
// peer GPUs (M+N-2 sharers) and coalesces cross-GPU invalidations per
// GPU. The study runs both protocols from a 2x2 desk-side box to a
// 16x8 NVSwitch-class system and reports, per machine shape: geomean
// speedup over that shape's own no-remote-caching baseline, directory
// storage bytes per entry at full (real-hardware) scale, and mean
// inter-GPU invalidation bandwidth.

package experiments

import (
	"fmt"

	"hmg/internal/directory"
	"hmg/internal/proto"
	"hmg/internal/report"
	"hmg/internal/stats"
	"hmg/internal/topo"
	"hmg/internal/workload"
)

// topoScaleSpecs are the machine shapes of the study, desk-side to
// NVSwitch-class. The largest flat machine tracks 128 global GPM ids —
// the whole sharer id space, both bitmap words — so a full toposcale
// run exercises every sharer id end to end.
var topoScaleSpecs = []topo.Spec{
	{NumGPUs: 2, GPMsPerGPU: 2},
	{NumGPUs: 4, GPMsPerGPU: 4},
	{NumGPUs: 8, GPMsPerGPU: 4},
	{NumGPUs: 8, GPMsPerGPU: 8},
	{NumGPUs: 16, GPMsPerGPU: 8},
}

// topoScaleKinds are the protocol columns: the flat and hierarchical
// hardware designs.
var topoScaleKinds = []proto.Kind{proto.NHCC, proto.HMG}

// topoScaleBenchNames is the benchmark subset of the study — one
// sync-heavy ML kernel, one HPC stencil, one irregular graph workload —
// kept small because every machine shape is a distinct simulation of
// each.
var topoScaleBenchNames = []string{"lstm", "MiniAMR", "bfs"}

func topoScaleBenches() ([]workload.Params, error) {
	var out []workload.Params
	for _, name := range topoScaleBenchNames {
		b, err := workload.Get(name)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// TopoScale generates the topology-scaling study table.
func TopoScale(r *Runner) (*report.Table, error) {
	benches, err := topoScaleBenches()
	if err != nil {
		return nil, err
	}
	t := &report.Table{Title: "Topology scaling: flat vs hierarchical coherence, 2x2 to 16x8"}
	for _, k := range topoScaleKinds {
		t.Columns = append(t.Columns,
			legend(k)+" speedup", legend(k)+" dir B/entry", legend(k)+" inv GB/s")
	}
	for _, sp := range topoScaleSpecs {
		base, err := baselineCycles(r, benches, sp)
		if err != nil {
			return nil, err
		}
		var row []float64
		for _, k := range topoScaleKinds {
			var sp64 []float64
			var inv stats.Mean
			for j, b := range benches {
				res, err := r.runAt(b, k, Variant{}, sp)
				if err != nil {
					return nil, err
				}
				sp64 = append(sp64, base[j]/float64(res.Cycles))
				inv.Add(res.InterGPUInvGBs())
			}
			_, bits := directory.EntryCost(sp.NumGPUs, sp.GPMsPerGPU, proto.For(k).Hierarchical)
			row = append(row, stats.GeoMean(sp64), float64(bits)/8, inv.Value())
		}
		t.Add(sp.String(), row...)
	}
	t.AddNote(fmt.Sprintf("benchmarks: %v; each shape normalized to its own no-remote-caching baseline", topoScaleBenchNames))
	t.AddNote("dir B/entry bills 48-bit tags plus total-GPMs-1 (flat) or M+N-2 (hierarchical) sharer bits")
	return t, nil
}
