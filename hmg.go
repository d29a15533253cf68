// Package hmg is a from-scratch reproduction of "HMG: Extending Cache
// Coherence Protocols Across Modern Hierarchical Multi-GPU Systems"
// (Ren, Lustig, Bolotin, Jaleel, Villa, Nellans — HPCA 2020).
//
// It provides a cycle-level simulator of hierarchical multi-GPU systems
// (GPUs composed of GPU modules, with distributed L2 slices, coherence
// directories, intra-GPU crossbars and bandwidth-limited inter-GPU
// links), six coherence configurations including the paper's HMG
// protocol, synthetic workload generators for the paper's 20-benchmark
// suite, and an experiment harness that regenerates every table and
// figure of the paper's evaluation.
//
// Quick start:
//
//	cfg := hmg.DefaultConfig(hmg.ProtocolHMG)
//	sys, _ := hmg.NewSystem(cfg)
//	tr, _ := hmg.GenerateBenchmark("nw-16K", cfg, 0.5)
//	res, _ := sys.Run(tr)
//	fmt.Printf("%d cycles, %.1f GB/s inter-GPU\n", res.Cycles, res.InterGPUGBs())
package hmg

import (
	"fmt"

	"hmg/internal/check"
	"hmg/internal/directory"
	"hmg/internal/gsim"
	"hmg/internal/proto"
	"hmg/internal/topo"
	"hmg/internal/trace"
	"hmg/internal/workload"
)

// Protocol selects a coherence configuration.
type Protocol = proto.Kind

// The six coherence configurations the paper compares (Section VI).
const (
	// ProtocolNoRemoteCaching disallows caching of remote-GPU data; the
	// normalization baseline of every figure.
	ProtocolNoRemoteCaching = proto.NoRemoteCache
	// ProtocolSWNonHier is conventional software coherence with scopes
	// on a flat multi-GPM system.
	ProtocolSWNonHier = proto.SWNonHier
	// ProtocolSWHier is the hierarchical software protocol.
	ProtocolSWHier = proto.SWHier
	// ProtocolNHCC is the non-hierarchical hardware protocol of
	// Section IV.
	ProtocolNHCC = proto.NHCC
	// ProtocolHMG is the paper's contribution (Section V).
	ProtocolHMG = proto.HMG
	// ProtocolIdeal is idealized caching without coherence enforcement.
	ProtocolIdeal = proto.Ideal
)

// Protocols returns all configurations in the paper's order.
func Protocols() []Protocol { return proto.Kinds() }

// ParseProtocol resolves a protocol by its display name.
func ParseProtocol(s string) (Protocol, error) { return proto.ParseKind(s) }

// Config is an alias of the simulator configuration; DefaultConfig
// reproduces Table II.
type Config = gsim.Config

// Results is an alias of the simulation results.
type Results = gsim.Results

// Trace is an alias of the executable program representation.
type Trace = trace.Trace

// Addr is a global-memory byte address.
type Addr = topo.Addr

// TopologySpec is a partial machine shape ("GxM"); see ParseTopology.
type TopologySpec = topo.Spec

// ParseTopology parses a "GxM" machine shape such as "16x8" (16 GPUs of
// 8 GPMs each). Apply the result to a configuration's Topo to reshape
// it:
//
//	cfg := hmg.DefaultConfig(hmg.ProtocolHMG)
//	sp, _ := hmg.ParseTopology("16x8")
//	cfg.Topo = sp.Apply(cfg.Topo)
func ParseTopology(s string) (TopologySpec, error) { return topo.ParseSpec(s) }

// DefaultConfig returns the paper's Table II system (4 GPUs × 4 GPMs,
// 12MB L2 and 12K directory entries per GPU, 200 GB/s inter-GPU links at
// 1.3 GHz) with 8 modeled SMs per GPM.
func DefaultConfig(p Protocol) Config { return gsim.DefaultConfig(8, p) }

// Event is one simulator protocol event (a store reaching its home, an
// invalidation delivery, a cache fill, ...). Subscribe with
// WithEventSink.
type Event = gsim.Event

// EventKind discriminates events.
type EventKind = gsim.EventKind

// The event kinds a sink may observe.
const (
	EvKernelLaunch  = gsim.EvKernelLaunch
	EvKernelDrained = gsim.EvKernelDrained
	EvLoadDone      = gsim.EvLoadDone
	EvStoreIssue    = gsim.EvStoreIssue
	EvHomeStore     = gsim.EvHomeStore
	EvGPUHomeStore  = gsim.EvGPUHomeStore
	EvAtomicApply   = gsim.EvAtomicApply
	EvInvDeliver    = gsim.EvInvDeliver
	EvInvForward    = gsim.EvInvForward
	EvFill          = gsim.EvFill
	EvL2Evict       = gsim.EvL2Evict
	EvAcquire       = gsim.EvAcquire
)

// Violation is one invariant breach reported by the conformance
// checker, with the cycle it was detected at and a trail of the events
// leading up to it.
type Violation = check.Violation

// Option configures a System at construction time. Options apply in
// the order given.
type Option func(*System)

// WithInvariantChecks attaches the runtime protocol-conformance checker
// (package internal/check) to the system. Detected violations are
// available through (*System).Violations after Run; RunLitmus returns
// them as an error.
func WithInvariantChecks() Option {
	return func(s *System) {
		if s.ck == nil {
			s.ck = check.Attach(s.sys)
		}
	}
}

// WithEventSink subscribes fn to the simulator's protocol event stream.
// Multiple sinks compose; sinks run synchronously on the simulated
// cycle the event occurs.
func WithEventSink(fn func(Event)) Option {
	return func(s *System) { s.sys.Observe(fn) }
}

// System is a simulated multi-GPU machine.
type System struct {
	sys *gsim.System
	ck  *check.Checker
}

// NewSystem builds a system; the configuration is validated. Options
// attach optional instrumentation — hmg.NewSystem(cfg) alone builds the
// plain simulator:
//
//	sys, err := hmg.NewSystem(cfg, hmg.WithInvariantChecks(),
//		hmg.WithEventSink(func(ev hmg.Event) { ... }))
func NewSystem(cfg Config, opts ...Option) (*System, error) {
	s, err := gsim.New(cfg)
	if err != nil {
		return nil, err
	}
	return wrap(s, opts), nil
}

// wrap builds the System around a constructed simulator, applying opts.
func wrap(raw *gsim.System, opts []Option) *System {
	s := &System{sys: raw}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Violations returns the invariant violations detected so far. It is
// nil unless the system was built with WithInvariantChecks.
func (s *System) Violations() []Violation {
	if s.ck == nil {
		return nil
	}
	return s.ck.Violations()
}

// CheckErr summarizes detected violations as an error (nil when checks
// are disabled or clean).
func (s *System) CheckErr() error {
	if s.ck == nil {
		return nil
	}
	return s.ck.Err()
}

// Run executes a trace to completion.
func (s *System) Run(tr *Trace) (*Results, error) { return s.sys.Run(tr) }

// Raw exposes the underlying simulator for advanced inspection (cache
// contents, DRAM values, per-link statistics).
func (s *System) Raw() *gsim.System { return s.sys }

// Benchmarks returns the Table III benchmark names in figure order.
func Benchmarks() []string { return workload.Names() }

// GenerateBenchmark synthesizes a Table III benchmark trace for the
// given configuration's topology at the given scale in (0, 1]. An
// unknown name, an out-of-range scale or an invalid topology is an
// error. Only the topology is checked: a trace depends on nothing else
// in cfg.
func GenerateBenchmark(name string, cfg Config, scale float64) (*Trace, error) {
	p, err := workload.Get(name)
	if err != nil {
		return nil, err
	}
	if err := workload.CheckScale(scale); err != nil {
		return nil, fmt.Errorf("hmg: benchmark %s: %w", name, err)
	}
	if err := cfg.Topo.Validate(); err != nil {
		return nil, fmt.Errorf("hmg: benchmark %s: %w", name, err)
	}
	return p.Generate(cfg.Topo, scale), nil
}

// HardwareCost reports the Section VII-C storage analysis of an HMG
// coherence directory: bits per entry and total bytes per GPM for a
// system of the given shape.
type HardwareCostReport struct {
	MaxSharers   int // M + N - 2
	BitsPerEntry int
	BytesPerGPM  int
	L2Fraction   float64
}

// HardwareCost computes the directory storage cost for a configuration.
func HardwareCost(cfg Config) HardwareCostReport {
	maxSharers, bits := directory.EntryCost(cfg.Topo.NumGPUs, cfg.Topo.GPMsPerGPU, true)
	bytes := cfg.Dir.Entries * bits / 8
	return HardwareCostReport{
		MaxSharers:   maxSharers,
		BitsPerEntry: bits,
		BytesPerGPM:  bytes,
		L2Fraction:   float64(bytes) / float64(cfg.L2Slice.CapacityBytes),
	}
}

// Speedup runs a benchmark under a protocol and under the no-caching
// baseline on fresh systems, returning baselineCycles / protocolCycles —
// the normalized speedup every figure of the paper reports.
//
// The baseline is canonicalized to the Table II defaults (the paper's
// normalization point): only the machine shape and clock carry over
// from cfg, while variant knobs such as WriteBack, ScatterCTAs,
// Policy.Downgrade, and swept capacities reset to their defaults — a
// write-back experiment is still normalized against the write-through
// no-caching baseline, exactly as the experiment harness does.
func Speedup(name string, cfg Config, scale float64) (float64, error) {
	base := gsim.DefaultConfig(cfg.Topo.SMsPerGPM, proto.NoRemoteCache)
	base.Topo = cfg.Topo
	base.FrequencyHz = cfg.FrequencyHz
	// Both runs share the topology, so they share one trace: Run never
	// writes its trace.
	tr, err := GenerateBenchmark(name, cfg, scale)
	if err != nil {
		return 0, err
	}
	var cycles [2]float64
	for i, c := range []Config{base, cfg} {
		sys, err := NewSystem(c)
		if err != nil {
			return 0, err
		}
		res, err := sys.Run(tr)
		if err != nil {
			return 0, err
		}
		cycles[i] = float64(res.Cycles)
	}
	if cycles[1] == 0 {
		return 0, fmt.Errorf("hmg: zero-cycle run")
	}
	return cycles[0] / cycles[1], nil
}
