package experiments

import (
	"fmt"
	"math"
	"time"

	"hmg/internal/gsim"
	"hmg/internal/msg"
	"hmg/internal/proto"
	"hmg/internal/report"
	"hmg/internal/stats"
	"hmg/internal/topo"
	"hmg/internal/trace"
)

// Fig. 7 in the paper correlates the proprietary simulator against real
// NVIDIA hardware. Without that hardware we calibrate against
// first-principles analytical models instead: four microbenchmarks with
// closed-form cycle predictions (latency chains, L1 streaming, local
// DRAM streaming, and inter-GPU-bandwidth-bound streaming), swept over
// sizes, reporting the correlation coefficient, mean absolute relative
// error, and simulation speed.

// micro is one calibration microbenchmark.
type micro struct {
	name    string
	kind    proto.Kind
	sizes   []int
	build   func(cfg gsim.Config, n int) *trace.Trace
	predict func(cfg gsim.Config, n int) float64
}

const mLine = 128

func microBenches() []micro {
	return []micro{
		{
			// One warp per SM hitting a tiny L1-resident working set.
			name:  "l1-stream",
			kind:  proto.HMG,
			sizes: []int{512, 2048, 8192},
			build: func(cfg gsim.Config, n int) *trace.Trace {
				return microTrace(cfg, func(sm, i int) trace.Op {
					base := int64(sm) * 64 * mLine
					return trace.Op{Kind: trace.Load, Addr: topo.Addr(base + int64(i%8)*mLine)}
				}, n, ownGPM)
			},
			predict: func(cfg gsim.Config, n int) float64 {
				// Warm-up misses for 8 lines, then L1-hit throughput
				// limited by hit latency over warp MLP.
				return float64(n) * float64(cfg.L1Latency) / float64(cfg.MaxWarpInflight)
			},
		},
		{
			// Every SM streams distinct lines from its local DRAM
			// partition: latency-bound at this MLP.
			name:  "dram-stream",
			kind:  proto.HMG,
			sizes: []int{256, 1024, 4096},
			build: func(cfg gsim.Config, n int) *trace.Trace {
				return microTrace(cfg, func(sm, i int) trace.Op {
					base := int64(sm) * 1 << 22
					return trace.Op{Kind: trace.Load, Addr: topo.Addr(base + int64(i)*mLine)}
				}, n, ownGPM)
			},
			predict: func(cfg gsim.Config, n int) float64 {
				rtt := float64(cfg.L1Latency+cfg.L2Latency+cfg.DRAM.Latency) + 2
				lat := float64(n) * rtt / float64(cfg.MaxWarpInflight)
				bpc := cfg.DRAM.BandwidthGBs * 1e9 / cfg.FrequencyHz
				bw := float64(n*cfg.Topo.SMsPerGPM*mLine) / bpc
				if bw > lat {
					return bw
				}
				return lat
			},
		},
		{
			// SMs of GPUs 1..3 stream distinct lines homed on GPU 0:
			// GPU 0's uplink serializes the responses.
			name:  "nvlink-stream",
			kind:  proto.NoRemoteCache,
			sizes: []int{128, 512, 2048},
			build: func(cfg gsim.Config, n int) *trace.Trace {
				return microTrace(cfg, func(sm, i int) trace.Op {
					gpm := sm / cfg.Topo.SMsPerGPM
					if gpm < cfg.Topo.GPMsPerGPU { // GPU 0 idles
						return trace.Op{}
					}
					base := int64(sm) * 1 << 22
					return trace.Op{Kind: trace.Load, Addr: topo.Addr(base + int64(i)*mLine)}
				}, n, func(t topo.Topology, _, nth int) topo.GPMID {
					return topo.GPMID(nth % t.GPMsPerGPU) // round-robin over GPU 0
				})
			},
			predict: func(cfg gsim.Config, n int) float64 {
				remoteSMs := (cfg.Topo.NumGPUs - 1) * cfg.Topo.GPMsPerGPU * cfg.Topo.SMsPerGPM
				respBytes := float64(remoteSMs*n) * float64(cfg.Net.Sizes.Bytes(msg.DataResp))
				bpc := cfg.Net.NVLinkGBs * 1e9 / cfg.FrequencyHz
				return respBytes / bpc
			},
		},
		{
			// One warp issues serial .sys atomics to the remote GPU: a
			// pure round-trip-latency chain.
			name:  "atomic-chain",
			kind:  proto.HMG,
			sizes: []int{16, 64, 256},
			build: func(cfg gsim.Config, n int) *trace.Trace {
				var ops []trace.Op
				for i := 0; i < n; i++ {
					ops = append(ops, trace.Op{Kind: trace.Atomic, Scope: trace.ScopeSys, Addr: 0, Val: 1})
				}
				tr := &trace.Trace{Name: "atomic-chain", Kernels: []trace.Kernel{
					{CTAs: []trace.CTA{{Warps: []trace.Warp{{Ops: ops}}}}},
				}}
				// Home the line on the last GPM (a different GPU).
				tr.Placement = []trace.PlacementHint{{Page: 0, GPM: topo.GPMID(cfg.Topo.TotalGPMs() - 1)}}
				return tr
			},
			predict: func(cfg gsim.Config, n int) float64 {
				oneWay := float64(cfg.Net.XbarLatency)*2 + float64(cfg.Net.NVLinkLatency)
				rtt := float64(cfg.L1Latency) + oneWay + float64(cfg.L2Latency) + oneWay
				return float64(n) * rtt
			},
		},
	}
}

// microTrace builds one warp per SM, op i given by gen (zero ops are
// skipped), and homes each page on its first touch where home says,
// given the touching SM and how many pages were touched before it.
func microTrace(cfg gsim.Config, gen func(sm, i int) trace.Op, n int, home func(t topo.Topology, sm, nth int) topo.GPMID) *trace.Trace {
	t := cfg.Topo
	tr := &trace.Trace{Name: "micro", Kernels: []trace.Kernel{{}}}
	seen := map[topo.Page]bool{}
	// One single-warp CTA per SM: with contiguous scheduling, CTA
	// (g*SMsPerGPM + s) lands on SM s of GPM g.
	for sm := 0; sm < t.TotalGPMs()*t.SMsPerGPM; sm++ {
		var ops []trace.Op
		for i := 0; i < n; i++ {
			op := gen(sm, i)
			if op == (trace.Op{}) {
				continue
			}
			ops = append(ops, op)
			if pg := t.PageOf(op.Addr); !seen[pg] {
				seen[pg] = true
				tr.Placement = append(tr.Placement, trace.PlacementHint{Page: pg, GPM: home(t, sm, len(tr.Placement))})
			}
		}
		tr.Kernels[0].CTAs = append(tr.Kernels[0].CTAs, trace.CTA{Warps: []trace.Warp{{Ops: ops}}})
	}
	return tr
}

// ownGPM homes a page on the GPM of the SM that touches it first.
func ownGPM(t topo.Topology, sm, _ int) topo.GPMID { return topo.GPMID(sm / t.SMsPerGPM) }

// Fig7 runs the calibration sweep: simulated versus analytically
// predicted cycles for each microbenchmark point, with correlation and
// mean absolute relative error in the footer.
//
// Simulator speed is measured too, but deliberately kept out of the
// table: figure bytes must be identical across hosts and runs (the
// repo's determinism invariant), and events-per-wall-second is a
// property of the machine, not of the model. Speed goes to the
// runner's log instead.
func Fig7(r *Runner) (*report.Table, error) {
	t := &report.Table{
		Title:     "Fig. 7: simulator calibration (simulated vs analytical cycles)",
		Columns:   []string{"simCycles", "modelCycles"},
		Precision: 0,
	}
	var sim, model []float64
	var totalEvents uint64
	var totalWall time.Duration
	for _, m := range microBenches() {
		for _, n := range m.sizes {
			cfg := r.Config(m.kind, Variant{})
			sys, err := gsim.New(cfg)
			if err != nil {
				return nil, err
			}
			tr := m.build(cfg, n)
			start := time.Now() //lint:allow determinism wall time feeds the log line below, never the figure table
			res, err := sys.Run(tr)
			if err != nil {
				return nil, fmt.Errorf("fig7 %s/%d: %w", m.name, n, err)
			}
			wall := time.Since(start) //lint:allow determinism wall time feeds the log line below, never the figure table
			pred := m.predict(cfg, n)
			sim = append(sim, float64(res.Cycles))
			model = append(model, pred)
			totalEvents += res.EventsExecuted
			totalWall += wall
			t.Add(fmt.Sprintf("%s/%d", m.name, n), float64(res.Cycles), pred)
		}
	}
	t.AddNote("correlation = %.3f (paper: 0.99 vs silicon)", stats.Correlation(logs(sim), logs(model)))
	t.AddNote("mean abs rel error = %.2f (paper: 0.13)", stats.MeanAbsRelError(sim, model))
	r.logf("fig7: aggregate %.1f M events/s over %.2fs wall\n",
		float64(totalEvents)/totalWall.Seconds()/1e6, totalWall.Seconds())
	return t, nil
}

func logs(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		if x > 0 {
			out[i] = math.Log(x)
		}
	}
	return out
}
