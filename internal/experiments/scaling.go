package experiments

import (
	"fmt"

	"hmg/internal/proto"
	"hmg/internal/report"
	"hmg/internal/stats"
	"hmg/internal/topo"
	"hmg/internal/workload"
)

// scalingKinds and scalingGPUCounts are the protocol columns and
// machine sizes of the GPU-count scaling study.
var scalingKinds = []proto.Kind{proto.NHCC, proto.SWHier, proto.HMG, proto.Ideal}
var scalingGPUCounts = []int{2, 4, 8}

// ScalingStudy measures the Section VII-D discussion: HMG is envisioned
// for systems "comprised by a single NVSwitch-based network", and its
// hierarchical sharer tracking (M+N-2 bits) scales with GPU count. The
// study runs the suite on 2-, 4-, and 8-GPU machines (4 GPMs each),
// normalizing each machine size to its own no-remote-caching baseline.
// The 4-GPU machine is the Table II configuration, so its runs share
// memo entries with plain runs.
func ScalingStudy(r *Runner) (*report.Table, error) {
	kinds := scalingKinds
	t := &report.Table{Title: "Sec. VII-D: scaling with GPU count (4 GPMs per GPU)"}
	for _, k := range kinds {
		t.Columns = append(t.Columns, legend(k))
	}
	suite := workload.Suite()
	for _, gpus := range scalingGPUCounts {
		shape := topo.Spec{NumGPUs: gpus}
		base, err := baselineCycles(r, suite, shape)
		if err != nil {
			return nil, err
		}
		row := make([]float64, 0, len(kinds))
		for _, k := range kinds {
			var sp []float64
			for j, b := range suite {
				res, err := r.runAt(b, k, Variant{}, shape)
				if err != nil {
					return nil, err
				}
				sp = append(sp, base[j]/float64(res.Cycles))
			}
			row = append(row, stats.GeoMean(sp))
		}
		t.Add(fmt.Sprintf("%d GPUs", gpus), row...)
	}
	t.AddNote("each machine size is normalized to its own no-remote-caching baseline")
	t.AddNote("an 8-GPU HMG entry tracks M+N-2 = 10 sharers (10-bit vectors)")
	return t, nil
}
