package gsim

import (
	"fmt"

	"hmg/internal/cache"
	"hmg/internal/directory"
	"hmg/internal/engine"
	"hmg/internal/link"
	"hmg/internal/memory"
	"hmg/internal/msg"
	"hmg/internal/proto"
	"hmg/internal/topo"
	"hmg/internal/trace"
)

// GPM is one GPU module: an L2 slice, its coherence directory (hardware
// policies only), and a DRAM partition.
type GPM struct {
	sys *System
	id  topo.GPMID
	gpu topo.GPUID

	L2   *cache.Cache
	Dir  *proto.DirCtrl // nil for software and ideal policies
	DRAM *memory.DRAM

	// invAll tracks background invalidations originated by this GPM's
	// directory (counted until the full hierarchical fan-out delivers);
	// invIntra tracks the subset whose entire fan-out stays within this
	// GPM's GPU. Release fences wait on these.
	invAll   drain
	invIntra drain

	// mshr holds the GPM's miss-status holding registers (mshr.go). It
	// merges concurrent fetches of the same line toward the same next
	// level, as a real L2's MSHRs do, and marks lines whose in-flight
	// fill was overtaken by an invalidation or store. A poisoned fill
	// still satisfies its waiting requests (their loads raced the write,
	// which the memory model allows) but is not installed in the cache —
	// the MSHR-level resolution of the fill/invalidation race that lets
	// the protocol itself stay free of transient states. These are cache
	// structures, not protocol state.
	mshr mshrTable
	// atomicQ serializes atomic read-modify-writes per line, modeling
	// the L2 atomic unit; multi-copy-atomic stores and loads at a system
	// home take the same locks.
	atomicQ map[topo.Line]lineLock

	// classes holds CARVE-style region classifications at system homes
	// (nil unless the policy classifies).
	classes map[directory.Region]classEntry
}

// lineLock is the lock of one line at a GPM: the context holding it and
// the FIFO of contexts waiting for it, linked through opCtx.next.
type lineLock struct {
	holder, head, tail *opCtx
}

// lockLine takes line l's lock for c, running c at once if the line is
// free, else when every context queued before it has unlocked.
func (g *GPM) lockLine(l topo.Line, c *opCtx) {
	if q, busy := g.atomicQ[l]; busy {
		if q.tail == nil {
			q.head = c
		} else {
			q.tail.next = c
		}
		q.tail = c
		g.atomicQ[l] = q
		return
	}
	g.atomicQ[l] = lineLock{holder: c}
	c.Handle()
}

// unlockLine releases the line and runs the next queued context, if any.
func (g *GPM) unlockLine(l topo.Line) {
	q, busy := g.atomicQ[l]
	if !busy {
		panic("gsim: unlockLine without lock")
	}
	next := q.head
	if next == nil {
		delete(g.atomicQ, l)
		return
	}
	q.holder, q.head, next.next = next, next.next, nil
	if q.head == nil {
		q.tail = nil
	}
	g.atomicQ[l] = q
	next.Handle()
}

// System is a complete simulated multi-GPU machine.
type System struct {
	Eng   *engine.Engine
	Cfg   Config
	Net   *link.Network
	Pages *topo.PageMap
	GPMs  []*GPM
	SMs   []*SM

	// warpsLeft counts unfinished warps in the running kernel; drained
	// is set once its implicit .sys release has completed.
	warpsLeft int
	drained   bool

	// OnLoadValue, when set, observes every completed load's value — the
	// functional-testing hook used by the consistency harness.
	OnLoadValue func(sm topo.SMID, op trace.Op, val uint64)
	// OnWarpFinished, when set, observes warp completion times.
	OnWarpFinished func(at engine.Cycle)
	// OnEvent, when set, receives every protocol-visible event (see
	// EventKind). Sinks observe only — they must not mutate simulator
	// state — so attaching one cannot perturb timing or results.
	OnEvent func(Event)

	// ctxFree is the free list of pooled op and continuation contexts
	// (see opctx.go); steady-state hops schedule without allocating.
	// ctxs counts the contexts allocated and liveCtxs those in use.
	ctxFree  []*opCtx
	ctxs     int
	liveCtxs int
	// flushBuf is the reused buffer of dirty lines a flush walks.
	flushBuf []cache.Entry
	// downgrading counts downgrade notices in flight.
	downgrading int
	// waitLists is the pool of empty MSHR waiter lists; numWaitLists
	// counts the lists made.
	waitLists    [][]*opCtx
	numWaitLists int

	// counters for results not covered by component stats
	ops, loads, stores, atomics uint64
	interGPULoadResponses       uint64
	loadLatSum                  uint64
	maxLoadLat                  uint64
	lastWarpAt                  engine.Cycle
	drainCycles                 engine.Cycle
}

// New builds a system from a configuration.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng := engine.New(cfg.FrequencyHz)
	s := &System{
		Eng:   eng,
		Cfg:   cfg,
		Net:   link.NewNetwork(eng, cfg.Topo, cfg.Net),
		Pages: topo.NewPageMap(cfg.Topo, cfg.Placement),
	}
	for g := 0; g < cfg.Topo.TotalGPMs(); g++ {
		gpm := &GPM{
			sys:     s,
			id:      topo.GPMID(g),
			gpu:     cfg.Topo.GPUOf(topo.GPMID(g)),
			L2:      cache.New(cfg.L2Slice),
			DRAM:    memory.New(eng, cfg.DRAM),
			mshr:    newMSHRTable(mshrMinSlots),
			atomicQ: make(map[topo.Line]lineLock),
		}
		if cfg.Policy.Hardware {
			dcfg := cfg.Dir
			if dcfg.Shards == 0 {
				// Shard directory storage by address slice in proportion
				// to machine size, so per-GPM allocation scales lazily
				// with the footprint each directory actually tracks.
				// Sharding never changes lookup results or statistics.
				dcfg.Shards = cfg.Topo.TotalGPMs()
			}
			gpm.Dir = proto.NewDirCtrl(dcfg)
			gpm.Dir.Mutate = cfg.Mutation
		}
		if cfg.Policy.Classify {
			gpm.classes = make(map[directory.Region]classEntry)
		}
		s.GPMs = append(s.GPMs, gpm)
	}
	for i := 0; i < cfg.Topo.TotalSMs(); i++ {
		id := topo.SMID(i)
		gpm := cfg.Topo.GPMOfSM(id)
		s.SMs = append(s.SMs, &SM{
			sys: s,
			id:  id,
			gpm: gpm,
			gpu: cfg.Topo.GPUOf(gpm),
			L1:  cache.New(cfg.L1),
		})
	}
	return s, nil
}

// gpmOf returns the GPM structure for an id.
func (s *System) gpmOf(id topo.GPMID) *GPM { return s.GPMs[id] }

// Run executes a trace to completion and returns the results. Kernels
// run in order with an implicit .sys release/acquire pair at every
// boundary: the next kernel starts only after all warps finish, every
// posted store has reached its system home, and every background
// invalidation has been delivered. A trace naming a page at or beyond
// topo.MaxPages, in an op or a placement hint, is an error.
func (s *System) Run(tr *trace.Trace) (*Results, error) {
	pages, err := tr.ValidatePages(s.Cfg.Topo.PageSize, topo.MaxPages)
	if err != nil {
		return nil, err
	}
	// Size the page table once, so no Touch during the run allocates.
	s.Pages.Reserve(pages)
	// Pre-place hinted pages, standing in for a prior first-touch run.
	for _, h := range tr.Placement {
		if int(h.GPM) >= len(s.GPMs) {
			return nil, fmt.Errorf("gsim: placement hint GPM %d out of range", h.GPM)
		}
		s.Pages.Touch(topo.Addr(uint64(h.Page)*uint64(s.Cfg.Topo.PageSize)), h.GPM)
	}
	var kernelCycles []engine.Cycle
	for ki := range tr.Kernels {
		start := s.Eng.Now()
		s.emit(Event{Kind: EvKernelLaunch, SM: NoSM, Aux: ki})
		s.drained = false
		s.launchKernel(&tr.Kernels[ki])
		s.lastWarpAt = s.Eng.Now()
		s.Eng.Run(engine.MaxCycle)
		s.drainCycles += s.Eng.Now() - s.lastWarpAt
		if !s.drained {
			return nil, fmt.Errorf("gsim: kernel %d of %s deadlocked at cycle %d with %d warps left",
				ki, tr.Name, s.Eng.Now(), s.warpsLeft)
		}
		// The quiescent point: warps done, stores at their system homes,
		// invalidations delivered. The conformance checker scans global
		// state on this event.
		s.emit(Event{Kind: EvKernelDrained, SM: NoSM, Aux: ki})
		kernelCycles = append(kernelCycles, s.Eng.Now()-start)
	}
	res := s.collectResults(tr)
	res.KernelCycles = kernelCycles
	return res, nil
}

// launchKernel applies kernel-boundary acquire effects and schedules the
// kernel's CTAs onto SMs.
func (s *System) launchKernel(k *trace.Kernel) {
	s.kernelBoundaryInvalidate()
	// Contiguous CTA scheduling across all GPMs; round-robin across the
	// SMs of each GPM.
	n := len(k.CTAs)
	perGPMNext := make([]int, len(s.GPMs))
	s.warpsLeft = 0
	type assignment struct {
		sm   *SM
		warp *trace.Warp
	}
	var assigns []assignment
	for i := range k.CTAs {
		g := trace.AssignCTA(i, n, s.Cfg.Topo.TotalGPMs())
		if s.Cfg.ScatterCTAs {
			g = topo.GPMID(i % s.Cfg.Topo.TotalGPMs())
		}
		smLocal := perGPMNext[g] % s.Cfg.Topo.SMsPerGPM
		perGPMNext[g]++
		sm := s.SMs[s.Cfg.Topo.SM(g, smLocal)]
		for w := range k.CTAs[i].Warps {
			wp := &k.CTAs[i].Warps[w]
			if len(wp.Ops) == 0 {
				continue
			}
			assigns = append(assigns, assignment{sm, wp})
			s.warpsLeft++
		}
	}
	if s.warpsLeft == 0 {
		// Degenerate kernel: finish at once (still draining).
		s.Eng.ScheduleHandler(0, s.newCtx(stageDrainStores))
		return
	}
	// One slab holds the kernel's warp contexts.
	warps := make([]warpCtx, len(assigns))
	for i, a := range assigns {
		a.sm.addWarp(&warps[i], a.warp)
	}
}

// kernelBoundaryInvalidate applies the implicit .sys acquire at kernel
// start: every configuration invalidates the software-managed L1s;
// software protocols additionally bulk-invalidate all L2 slices, while
// hardware, classified (CARVE), and idealized configurations keep L2
// contents.
func (s *System) kernelBoundaryInvalidate() {
	p := s.Cfg.Policy
	// The implicit acquire is a protocol-visible transition like any
	// explicit one: surface it to the event stream so the conformance
	// checker sees the bulk invalidation rather than inferring it.
	s.emit(Event{Kind: EvAcquire, GPM: 0, SM: NoSM, Scope: trace.ScopeSys, Op: trace.LoadAcq})
	// L1s are software-managed on every configuration, including Ideal:
	// a new kernel's implicit acquire always flushes them. What Ideal
	// idealizes is the caching of remote data in the L2 hierarchy.
	for _, sm := range s.SMs {
		sm.L1.InvalidateWhere(nil)
	}
	if p.Hardware || p.NoCoherence || p.Classify {
		return
	}
	for _, g := range s.GPMs {
		g.L2.InvalidateWhere(nil)
	}
}

// Dirty data is always flushed by the kernel-end barrier before the next
// kernelBoundaryInvalidate runs, so the flash-clear above loses nothing
// even under the write-back option.

// warpFinished is called by SMs as warps complete.
func (s *System) warpFinished() {
	if s.OnWarpFinished != nil {
		s.OnWarpFinished(s.Eng.Now())
	}
	s.warpsLeft--
	if s.warpsLeft == 0 {
		s.lastWarpAt = s.Eng.Now()
		s.newCtx(stageDrainStores).drainKernel()
	}
}

// drainKernel runs the implicit .sys release at kernel end on the
// kernel-drain context c: wait for every SM's posted stores to reach
// their system home, then for every directory's background
// invalidations to be delivered. Store gates are drained first:
// invalidations are started synchronously when a store is processed at
// its home, so once store gates drain, all triggered invalidations are
// already counted. Under write-back, absorptions may still be in flight
// when the last warp retires, so the walk passes the store gates, flushes
// dirty data (write-back only), and passes the store gates again.
//
// The walk takes one gate at a time, in order. A gate with operations
// outstanding takes c as its waiter, and c resumes at the next gate when
// that gate's epoch drains; a drained gate is passed at once.
func (c *opCtx) drainKernel() {
	s := c.s
	for {
		var gate *drain
		switch {
		case c.stage != stageDrainInvs && c.drainIdx < len(s.SMs):
			gate = &s.SMs[c.drainIdx].sysHomeGate
		case c.stage == stageDrainStores:
			s.flushAllDirty()
			c.stage, c.drainIdx = stageDrainFlushed, 0
			continue
		case c.stage == stageDrainFlushed:
			c.stage, c.drainIdx = stageDrainInvs, 0
			continue
		case c.drainIdx < len(s.GPMs):
			gate = &s.GPMs[c.drainIdx].invAll
		default:
			c.release()
			s.drained = true
			s.Eng.Stop()
			return
		}
		c.drainIdx++
		if gate.Pending() > 0 {
			gate.Wait(c)
			return
		}
	}
}

// send routes a protocol message between GPMs, running deliver on
// arrival.
func (s *System) send(from, to topo.GPMID, k msg.Kind, deliver engine.Handler) {
	s.Net.SendHandler(from, to, k, deliver)
}
