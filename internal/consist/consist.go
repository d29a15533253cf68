// Package consist is a litmus-test harness for the scoped memory model:
// it builds small multi-threaded programs (threads pinned to GPMs via
// CTA slots), executes them on the functional simulator with value
// tracking, and collects every load's observed value so tests can check
// the visibility rules the protocols must enforce — and the relaxations
// (stale reads without synchronization) they are allowed.
package consist

import (
	"fmt"

	"hmg/internal/gsim"
	"hmg/internal/proto"
	"hmg/internal/topo"
	"hmg/internal/trace"
)

// Thread is one litmus thread: a warp of ops on a chosen CTA slot.
// Under contiguous scheduling with one CTA slot per GPM, slot i runs on
// GPM i.
type Thread struct {
	Slot int
	Ops  []trace.Op
}

// Program is a single-kernel litmus program. Construct one directly or
// through the New builder.
type Program struct {
	Name string
	// Slots is the number of CTA slots (defaults to the total GPM count
	// so slot i → GPM i).
	Slots   int
	Threads []Thread
	// HomeGPM owns every page the program touches (default GPM 0).
	HomeGPM topo.GPMID
	// Warmup, when set, prepends a kernel in which the given slot loads
	// each listed address, seeding stale copies in its caches.
	Warmup     []topo.Addr
	WarmupSlot int
}

// Builder assembles a Program fluently:
//
//	prog := consist.New("mp").
//		Thread(0, storeData, releaseFlag).
//		Thread(3, acquireFlag, loadData).
//		Build()
type Builder struct {
	prog Program
}

// New starts a program builder.
func New(name string) *Builder {
	return &Builder{prog: Program{Name: name}}
}

// Slots sets the CTA slot count (0 = one slot per GPM).
func (b *Builder) Slots(n int) *Builder {
	b.prog.Slots = n
	return b
}

// Home places every page the program touches on GPM g.
func (b *Builder) Home(g topo.GPMID) *Builder {
	b.prog.HomeGPM = g
	return b
}

// Warmup prepends a kernel in which slot loads each address, seeding
// potentially-stale copies in that slot's caches.
func (b *Builder) Warmup(slot int, addrs ...topo.Addr) *Builder {
	b.prog.WarmupSlot = slot
	b.prog.Warmup = append(b.prog.Warmup, addrs...)
	return b
}

// Thread appends a thread running ops on the given CTA slot.
func (b *Builder) Thread(slot int, ops ...trace.Op) *Builder {
	b.prog.Threads = append(b.prog.Threads, Thread{Slot: slot, Ops: ops})
	return b
}

// Build returns the assembled program.
func (b *Builder) Build() Program { return b.prog }

// Observation records one load's result.
type Observation struct {
	Thread int
	Index  int      // op index within the thread
	Op     trace.Op // the thread's op at Index
	Value  uint64
}

// Result holds a completed litmus run: the program, every load
// observation in completion order, and the simulation results.
type Result struct {
	prog Program
	obs  []Observation
	res  *gsim.Results
}

// Observations returns every load observation in completion order.
func (r *Result) Observations() []Observation { return r.obs }

// Value returns the value thread's op at index op observed, or false if
// that op never completed a load.
func (r *Result) Value(thread, op int) (uint64, bool) {
	for _, o := range r.obs {
		if o.Thread == thread && o.Index == op {
			return o.Value, true
		}
	}
	return 0, false
}

// Results returns the underlying simulation results.
func (r *Result) Results() *gsim.Results { return r.res }

// Program returns the program that produced this result.
func (r *Result) Program() Program { return r.prog }

// SmallConfig is the conformance-testing configuration: a 2 GPU × 2 GPM
// × 2 SM system with small caches and a small directory (so capacity
// evictions actually happen in short programs), value tracking on. The
// litmus suites, fuzzer, and mutation tests all run on it.
func SmallConfig(k proto.Kind) gsim.Config {
	cfg := gsim.DefaultConfig(2, k)
	cfg.Topo = topo.Topology{
		NumGPUs: 2, GPMsPerGPU: 2, SMsPerGPM: 2,
		LineSize: 128, PageSize: 4096,
	}
	cfg.DRAM.BandwidthGBs = 250
	cfg.DRAM.Latency = 100
	cfg.L1.CapacityBytes = 8 * 1024
	cfg.L1.Ways = 4
	cfg.L2Slice.CapacityBytes = 64 * 1024
	cfg.L2Slice.Ways = 8
	cfg.Dir.Entries = 256
	cfg.Dir.Ways = 8
	cfg.Dir.GranLines = 4
	cfg.L1Latency = 10
	cfg.L2Latency = 30
	cfg.MaxWarpInflight = 4
	cfg.MaxSMInflight = 16
	cfg.TrackValues = true
	return cfg
}

// Run executes the program under the configuration (value tracking is
// forced on) and returns the collected result. Loads are observed
// through their EvLoadDone events. Each hook is invoked on the
// constructed system before execution — the conformance harness uses
// this to attach its invariant checker — and attaches sinks with
// Observe, which keeps the load observer.
func Run(cfg gsim.Config, prog Program, hooks ...func(*gsim.System)) (*Result, error) {
	cfg.TrackValues = true
	sys, err := gsim.New(cfg)
	if err != nil {
		return nil, err
	}
	slots := prog.Slots
	if slots == 0 {
		slots = cfg.Topo.TotalGPMs()
	}
	tr := &trace.Trace{Name: "litmus-" + prog.Name}
	if len(prog.Warmup) > 0 {
		k := trace.Kernel{CTAs: make([]trace.CTA, slots)}
		var ops []trace.Op
		for _, a := range prog.Warmup {
			ops = append(ops, trace.Op{Kind: trace.Load, Addr: a})
		}
		k.CTAs[prog.WarmupSlot] = trace.CTA{Warps: []trace.Warp{{Ops: ops}}}
		tr.Kernels = append(tr.Kernels, k)
	}
	main := trace.Kernel{CTAs: make([]trace.CTA, slots)}
	for ti, th := range prog.Threads {
		if th.Slot < 0 || th.Slot >= slots {
			return nil, fmt.Errorf("consist: thread %d slot %d out of range", ti, th.Slot)
		}
		main.CTAs[th.Slot].Warps = append(main.CTAs[th.Slot].Warps, trace.Warp{Ops: th.Ops})
	}
	tr.Kernels = append(tr.Kernels, main)
	// Place every touched page on the home GPM.
	seen := map[topo.Page]bool{}
	for _, k := range tr.Kernels {
		for _, c := range k.CTAs {
			for _, w := range c.Warps {
				for _, op := range w.Ops {
					pg := cfg.Topo.PageOf(op.Addr)
					if !seen[pg] {
						seen[pg] = true
						tr.Placement = append(tr.Placement, trace.PlacementHint{Page: pg, GPM: prog.HomeGPM})
					}
				}
			}
		}
	}
	// Match observations back to threads by the issuing warp. The main
	// kernel's CTA i holds slot i's threads in program order, and gsim
	// numbers a kernel's warps CTA by CTA, skipping warps with no ops.
	// Within a thread, a load is credited to the thread's first
	// unobserved load with its kind, scope and address: plain loads of
	// one warp may be in flight together and complete out of order. Two
	// such loads of one address with one kind and scope cannot be told
	// apart, so if they complete out of order their values are credited
	// in program order.
	bySlot := make([][]int, slots)
	for ti, th := range prog.Threads {
		bySlot[th.Slot] = append(bySlot[th.Slot], ti)
	}
	var warpThread []int // the main kernel's warp index → thread
	for _, ts := range bySlot {
		for _, ti := range ts {
			if len(prog.Threads[ti].Ops) > 0 {
				warpThread = append(warpThread, ti)
			}
		}
	}
	observed := make([][]bool, len(prog.Threads))
	for ti, th := range prog.Threads {
		observed[ti] = make([]bool, len(th.Ops))
	}
	mainKernel, kernel := len(tr.Kernels)-1, -1
	r := &Result{prog: prog}
	sys.Observe(func(ev gsim.Event) {
		switch {
		case ev.Kind == gsim.EvKernelLaunch:
			kernel = ev.Aux
			return
		case ev.Kind != gsim.EvLoadDone || kernel != mainKernel:
			// The warm-up kernel's loads belong to no thread.
			return
		}
		ti := warpThread[ev.Warp]
		for oi, o := range prog.Threads[ti].Ops {
			if !observed[ti][oi] && o.Kind == ev.Op && o.Scope == ev.Scope && o.Addr == ev.Addr {
				observed[ti][oi] = true
				r.obs = append(r.obs, Observation{Thread: ti, Index: oi, Op: o, Value: ev.Val})
				return
			}
		}
	})
	for _, h := range hooks {
		h(sys)
	}
	res, err := sys.Run(tr)
	if err != nil {
		return nil, err
	}
	r.res = res
	return r, nil
}

// WrittenValues extracts every value any thread stores to addr
// (including 0, the initial memory value) — the candidate set a load of
// addr may legally observe in a data-race-free-or-not program.
func WrittenValues(prog Program, addr topo.Addr) map[uint64]bool {
	vals := map[uint64]bool{0: true}
	for _, th := range prog.Threads {
		for _, op := range th.Ops {
			if op.Addr != addr {
				continue
			}
			switch op.Kind {
			case trace.Store, trace.StoreRel:
				vals[op.Val] = true
			case trace.Atomic:
				// Atomics produce sums; callers with atomics should
				// check bounds instead.
			case trace.Load, trace.LoadAcq:
				// Loads write nothing.
			}
		}
	}
	return vals
}
