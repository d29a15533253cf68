// Package gsim is the cycle-level timing and functional model of a
// hierarchical multi-GPU system: SMs with software-managed L1 caches,
// per-GPM L2 slices with coherence directories, per-GPM DRAM partitions,
// intra-GPU crossbars, and inter-GPU links. It executes traces under any
// of the six coherence configurations of internal/proto and is the
// engine behind every experiment in the paper reproduction.
package gsim

import (
	"fmt"

	"hmg/internal/cache"
	"hmg/internal/directory"
	"hmg/internal/engine"
	"hmg/internal/link"
	"hmg/internal/memory"
	"hmg/internal/proto"
	"hmg/internal/topo"
)

// Config describes a complete simulated system. DefaultConfig reproduces
// Table II of the paper.
type Config struct {
	Topo      topo.Topology
	Net       link.NetConfig
	DRAM      memory.Config // per-GPM partition
	L1        cache.Config  // per SM
	L2Slice   cache.Config  // per GPM
	Dir       directory.Config
	Policy    proto.Policy
	Placement topo.Placement

	// FrequencyHz is the core clock (1.3 GHz in Table II).
	FrequencyHz float64
	// L1Latency and L2Latency are cache access latencies in cycles.
	L1Latency engine.Cycle
	L2Latency engine.Cycle
	// MaxWarpInflight bounds outstanding memory ops per warp;
	// MaxSMInflight bounds them per SM. Together they set the
	// memory-level parallelism that lets GPUs tolerate latency.
	MaxWarpInflight int
	MaxSMInflight   int
	// TrackValues enables functional value propagation through caches
	// and DRAM so protocol correctness can be checked; timing runs leave
	// it off.
	TrackValues bool
	// ScatterCTAs replaces the contiguous CTA scheduling the paper
	// inherits from MCM-GPU (adjacent CTAs on the same GPM) with
	// round-robin assignment, destroying inter-CTA locality — an
	// ablation knob, off by default.
	ScatterCTAs bool
	// WriteBack selects the write-back L2 design option of Section IV:
	// plain stores that hit in the local slice dirty it instead of
	// writing through; dirty lines flush to their homes on release
	// operations, kernel boundaries, and evictions. The paper's
	// evaluation (and this repo's default) uses write-through.
	// Synchronizing stores always write through, as required for forward
	// progress.
	WriteBack bool
	// Mutation deliberately breaks Table I transitions in the directory
	// controllers — a test-only knob the conformance harness uses to
	// prove its invariant checker and litmus fuzzer detect protocol
	// bugs. Zero (no mutation) in every production configuration.
	Mutation proto.Mutation
}

// DefaultConfig returns the paper's Table II system: 4 GPUs × 4 GPMs,
// 12MB L2 and 12K directory entries per GPU module-group, 2 TB/s
// intra-GPU and 200 GB/s inter-GPU bandwidth, 1 TB/s DRAM per GPU.
//
// SMs are modeled at a granularity of smPerGPM modeled SMs per GPM; each
// modeled SM aggregates several physical SMs (and their L1 capacity), a
// standard fidelity/speed trade in trace-driven GPU simulation. Pass 32
// for one-to-one modeling of the 128-SM GPUs.
func DefaultConfig(smPerGPM int, policy proto.Kind) Config {
	if smPerGPM <= 0 {
		smPerGPM = 8 // each modeled SM aggregates 4 physical SMs
	}
	aggregation := 32 / smPerGPM
	if aggregation < 1 {
		aggregation = 1
	}
	return Config{
		Topo: topo.Topology{
			NumGPUs:    4,
			GPMsPerGPU: 4,
			SMsPerGPM:  smPerGPM,
			LineSize:   128,
			PageSize:   2 << 20,
		},
		Net:  link.DefaultNetConfig(),
		DRAM: memory.DefaultConfig(),
		L1: cache.Config{
			CapacityBytes: 128 * 1024 * aggregation, // 128KB per physical SM
			LineSize:      128,
			Ways:          8,
		},
		L2Slice: cache.Config{
			CapacityBytes: 3 << 20, // 12MB per GPU / 4 GPMs
			LineSize:      128,
			Ways:          16,
		},
		Dir:             directory.DefaultConfig(),
		Policy:          proto.For(policy),
		Placement:       topo.FirstTouch,
		FrequencyHz:     engine.DefaultFrequencyHz,
		L1Latency:       28,
		L2Latency:       96,
		MaxWarpInflight: 32,
		MaxSMInflight:   256,
	}
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if err := c.Topo.Validate(); err != nil {
		return err
	}
	// Sharer-id-space validation is protocol-aware: flat hardware
	// protocols name sharers by global GPM id, so the whole machine must
	// fit one id space; hierarchical ones name GPU-local module indices
	// and GPU ids, so each axis is bounded independently. Software and
	// ideal policies track no sharers and accept any shape. Rejecting
	// here turns what used to be a directory.GPMBit panic deep inside
	// the first access into a constructor error.
	if c.Policy.Hardware {
		if c.Policy.Hierarchical {
			if c.Topo.GPMsPerGPU > directory.MaxSharerIDs || c.Topo.NumGPUs > directory.MaxSharerIDs {
				return fmt.Errorf("gsim: %v tracks GPU-local module and GPU ids: topology %v exceeds the %d-id sharer space",
					c.Policy.Kind, c.Topo, directory.MaxSharerIDs)
			}
		} else if c.Topo.TotalGPMs() > directory.MaxSharerIDs {
			return fmt.Errorf("gsim: %v tracks global GPM ids: topology %v has %d GPMs, exceeding the %d-id sharer space",
				c.Policy.Kind, c.Topo, c.Topo.TotalGPMs(), directory.MaxSharerIDs)
		}
	}
	if err := c.L1.Validate(); err != nil {
		return fmt.Errorf("L1: %w", err)
	}
	if err := c.L2Slice.Validate(); err != nil {
		return fmt.Errorf("L2: %w", err)
	}
	if c.Policy.Hardware {
		if err := c.Dir.Validate(); err != nil {
			return fmt.Errorf("directory: %w", err)
		}
	}
	if c.L1.LineSize != c.Topo.LineSize || c.L2Slice.LineSize != c.Topo.LineSize {
		return fmt.Errorf("gsim: cache line sizes must match topology line size %d", c.Topo.LineSize)
	}
	if c.MaxWarpInflight <= 0 || c.MaxSMInflight <= 0 {
		return fmt.Errorf("gsim: inflight limits must be positive")
	}
	return nil
}
