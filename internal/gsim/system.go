package gsim

import (
	"fmt"
	"math/bits"
	"slices"

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
}

// lineKey names a line at a GPM: the key of the System's line locks.
type lineKey struct {
	g topo.GPMID
	l topo.Line
}

// lineLock is the lock of one line at a GPM: the context holding it and
// the FIFO of contexts waiting for it, linked through opCtx.next.
type lineLock struct {
	holder, head, tail *opCtx
}

// lockLine takes line l's lock at g for c, running c at once if the
// line is free, else when every context queued before it has unlocked.
func (g *GPM) lockLine(l topo.Line, c *opCtx) {
	locks, k := g.sys.locks, lineKey{g.id, l}
	if q, busy := locks[k]; busy {
		if q.tail == nil {
			q.head = c
		} else {
			q.tail.next = c
		}
		q.tail = c
		locks[k] = q
		return
	}
	locks[k] = lineLock{holder: c}
	c.Handle()
}

// unlockLine releases line l at g and runs the next queued context, if
// any.
func (g *GPM) unlockLine(l topo.Line) {
	locks, k := g.sys.locks, lineKey{g.id, l}
	q, busy := locks[k]
	if !busy {
		panic("gsim: unlockLine without lock")
	}
	next := q.head
	if next == nil {
		delete(locks, k)
		return
	}
	q.holder, q.head, next.next = next, next.next, nil
	if q.head == nil {
		q.tail = nil
	}
	locks[k] = q
	next.Handle()
}

// lockHolder returns the context holding line l's lock at g, or nil.
func (g *GPM) lockHolder(l topo.Line) *opCtx { return g.sys.locks[lineKey{g.id, l}].holder }

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

	// OnEvent, when set, receives every protocol-visible event (see
	// EventKind); it is the simulator's one observation hook. Sinks
	// observe only — they must not mutate simulator state — so
	// attaching one cannot perturb timing or results. Observe chains
	// further sinks after it.
	OnEvent func(Event)

	// ctxFree heads the free list of pooled op and continuation
	// contexts, linked through opCtx.next (see opctx.go); steady-state
	// hops schedule without allocating. ctxs counts the contexts
	// allocated and liveCtxs those in use.
	ctxFree  *opCtx
	ctxs     int
	liveCtxs int
	// lineShift is log2 of the line size: a context derives its line
	// from its address with it.
	lineShift uint8
	// downgrading counts downgrade notices in flight.
	downgrading int
	// locks serializes atomic read-modify-writes per line and GPM,
	// modeling each L2's atomic unit; multi-copy-atomic stores and loads
	// at a system home take the same locks. A line is a key exactly
	// while its lock is held.
	locks map[lineKey]lineLock
	// classes holds the CARVE-style region classifications (nil unless
	// the policy classifies). A region has one system home, which alone
	// classifies it, so one table serves every home.
	classes map[directory.Region]classEntry

	// counters for results not covered by component stats
	ops, loads, stores, atomics uint64
	interGPULoadResponses       uint64
	loadLatSum                  uint64
	maxLoadLat                  uint64
	lastWarpAt                  engine.Cycle
	drainCycles                 engine.Cycle

	storage
}

// storage is what a System keeps across Reset: the slabs its parts are
// built in, the context pool's slabs, and the scratch of its runs.
type storage struct {
	gpms     []GPM
	sms      []SM
	l2s, l1s cache.Set
	drams    []memory.DRAM
	dirs     proto.DirCtrlSet
	mshr     []mshrSlot
	// classTable is the classes map, kept while the policy does not
	// classify.
	classTable map[directory.Region]classEntry
	// ctxSlabs[:numCtxSlabs] are the slabs the context pool grew from,
	// so Reset can return every context to the free list, in flight or
	// not. Each slab doubles the pool, so maxCtxSlabs is never reached.
	ctxSlabs    [maxCtxSlabs][]opCtx
	numCtxSlabs int
	// ctxData holds the line data a response or write-back context
	// carries, from setData to its release. Only value-tracking runs
	// have any, so timing runs never make it.
	ctxData map[*opCtx]fillData

	// flushBuf is the reused buffer of dirty lines a flush walks.
	flushBuf []cache.Entry
	// launchGPM, launchSM and launchWarps are launchKernel's scratch,
	// reset by every launch: the CTAs placed on each GPM, the warps
	// assigned to each SM, and the kernel's warps in assignment order.
	launchGPM, launchSM []int
	launchWarps         []warpAssignment
	// warps holds the running kernel's warp contexts in launch order,
	// which a warp-bound opCtx names by index (owner), and warpLists the
	// SMs' warp lists, which point into it. A launch reuses both: the
	// previous kernel has drained, so no context still holds a warp.
	warps     []warpCtx
	warpLists []*warpCtx
}

// New builds a system from a configuration: Reset on an empty System.
// Its parts come from a fixed set of slabs — one per kind of part, each
// holding that part for every GPM or SM — so the number of allocations
// does not depend on the machine's size.
func New(cfg Config) (*System, error) {
	s := &System{}
	if err := s.Reset(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset rebuilds s in place as the machine New(cfg) builds, whatever
// configuration s had and whether or not its last run finished. It
// reuses every slab of s that still fits: the context pool, the
// engine's node slab and far heap, the route pool, the page table, the
// cache, directory, DRAM and MSHR slabs, the launch scratch, and the
// lock and class maps. Whatever was in flight is dropped — a run that
// ends with downgrade notices pending (DowngradesInFlight) leaves their
// events, contexts and routes behind — and every context and route
// returns to its pool. Reset also clears OnEvent. Results returned
// before share no memory with s, so they stay valid. An invalid cfg
// leaves s unchanged.
func (s *System) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	eng, net, pages, locks := s.Eng, s.Net, s.Pages, s.locks
	if eng == nil {
		eng, net, pages, locks = engine.New(cfg.FrequencyHz), new(link.Network), new(topo.PageMap), make(map[lineKey]lineLock)
	} else {
		eng.Reset(cfg.FrequencyHz)
		clear(locks)
	}
	net.Reset(eng, cfg.Topo, cfg.Net)
	pages.Reset(cfg.Topo)
	// With no context live, every context is already zeroed on the free
	// list; otherwise the pool is rebuilt from its slabs.
	ctxFree, ctxs, whole := s.ctxFree, s.ctxs, s.liveCtxs == 0
	st := s.storage
	if cfg.Policy.Classify && st.classTable == nil {
		st.classTable = make(map[directory.Region]classEntry)
	}
	clear(st.classTable)
	clear(st.ctxData)
	// Drop the last run's pointers into its trace.
	clear(st.launchWarps[:cap(st.launchWarps)])
	clear(st.warps[:cap(st.warps)])
	clear(st.warpLists[:cap(st.warpLists)])
	*s = System{Eng: eng, Cfg: cfg, Net: net, Pages: pages, GPMs: s.GPMs, SMs: s.SMs, locks: locks, storage: st,
		lineShift: uint8(bits.TrailingZeros(uint(cfg.Topo.LineSize)))}
	if cfg.Policy.Classify {
		s.classes = st.classTable
	}
	if whole {
		s.ctxFree, s.ctxs = ctxFree, ctxs
	} else {
		for _, slab := range s.ctxSlabs[:s.numCtxSlabs] {
			s.threadCtxs(slab)
		}
	}

	numGPMs, numSMs := cfg.Topo.TotalGPMs(), cfg.Topo.TotalSMs()
	s.gpms, s.GPMs = reuseParts(s.gpms, s.GPMs, numGPMs)
	l2s := s.l2s.Reset(cfg.L2Slice, numGPMs)
	s.drams = slices.Grow(s.drams[:0], numGPMs)[:numGPMs]
	perGPM := mshrSlotsFor(cfg)
	s.mshr = slices.Grow(s.mshr[:0], numGPMs*perGPM)[:numGPMs*perGPM]
	clear(s.mshr)
	var dirs []proto.DirCtrl
	if cfg.Policy.Hardware {
		dirs = s.dirs.Reset(cfg.Dir, numGPMs)
	}
	for i := range s.gpms {
		g := &s.gpms[i]
		lo := i * perGPM
		*g = GPM{
			sys:      s,
			id:       topo.GPMID(i),
			gpu:      cfg.Topo.GPUOf(topo.GPMID(i)),
			L2:       &l2s[i],
			DRAM:     &s.drams[i],
			mshr:     newMSHRTable(s.mshr[lo : lo+perGPM : lo+perGPM]),
			invAll:   g.invAll.emptied(),
			invIntra: g.invIntra.emptied(),
		}
		g.DRAM.Reset(eng, cfg.DRAM)
		if dirs != nil {
			g.Dir = &dirs[i]
			g.Dir.Mutate = cfg.Mutation
		}
		s.GPMs[i] = g
	}
	s.sms, s.SMs = reuseParts(s.sms, s.SMs, numSMs)
	l1s := s.l1s.Reset(cfg.L1, numSMs)
	for i := range s.sms {
		sm := &s.sms[i]
		id := topo.SMID(i)
		gpm := cfg.Topo.GPMOfSM(id)
		*sm = SM{sys: s, id: id, gpm: gpm, gpu: cfg.Topo.GPUOf(gpm), L1: &l1s[i],
			gpuHomeGate: sm.gpuHomeGate.emptied(), sysHomeGate: sm.sysHomeGate.emptied()}
		s.SMs[i] = sm
	}
	return nil
}

// reuseParts resizes a slab of n parts and the list of pointers to them,
// reallocating each only when it is too small. The parts keep their old
// contents for the caller to rebuild; a reallocated slab starts zeroed.
func reuseParts[T any](slab []T, ptrs []*T, n int) ([]T, []*T) {
	return slices.Grow(slab[:0], n)[:n], slices.Grow(ptrs[:0], n)[:n]
}

// lineOf returns the line address a falls in: Topology.LineOf, as a
// shift.
func (s *System) lineOf(a topo.Addr) topo.Line { return topo.Line(uint64(a) >> s.lineShift) }

// wordOf returns the line-relative word address a names: cache.WordOf,
// as a mask and a shift.
func (s *System) wordOf(a topo.Addr) uint16 {
	return uint16((uint64(a) & (1<<s.lineShift - 1)) / cache.WordSize)
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
	var kernelCycles []engine.Cycle // fresh: Results share no memory with s
	if n := len(tr.Kernels); n > 0 {
		kernelCycles = make([]engine.Cycle, 0, n)
	}
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

// warpAssignment places one warp on an SM.
type warpAssignment struct {
	sm   *SM
	warp *trace.Warp
}

// resetCounts returns *buf resized to n zeroed counts, allocating only
// when n exceeds its capacity.
func resetCounts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}

// launchKernel applies kernel-boundary acquire effects and schedules the
// kernel's CTAs onto SMs. Every warp of the previous kernel has finished
// by now, so each SM's warp list restarts with this kernel's warps, in
// assignment order.
func (s *System) launchKernel(k *trace.Kernel) {
	s.kernelBoundaryInvalidate()
	// Contiguous CTA scheduling across all GPMs; round-robin across the
	// SMs of each GPM.
	n := len(k.CTAs)
	perGPMNext := resetCounts(&s.launchGPM, len(s.GPMs))
	perSM := resetCounts(&s.launchSM, len(s.SMs))
	s.warpsLeft = 0
	maxWarps := 0
	for i := range k.CTAs {
		maxWarps += len(k.CTAs[i].Warps)
	}
	assigns := slices.Grow(s.launchWarps[:0], maxWarps)
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
			assigns = append(assigns, warpAssignment{sm, wp})
			perSM[sm.id]++
			s.warpsLeft++
		}
	}
	s.launchWarps = assigns
	// One slab holds the kernel's warp contexts and one more the SMs'
	// warp lists, each SM's list carved to its own warp count.
	s.warpLists = slices.Grow(s.warpLists[:0], len(assigns))[:len(assigns)]
	at := 0
	for i, sm := range s.SMs {
		sm.warps = s.warpLists[at : at : at+perSM[i]]
		at += perSM[i]
	}
	if s.warpsLeft == 0 {
		// Degenerate kernel: finish at once (still draining).
		s.Eng.ScheduleHandler(0, s.newCtx(stageDrainStores))
		return
	}
	s.warps = slices.Grow(s.warps[:0], len(assigns))[:len(assigns)]
	for i, a := range assigns {
		a.sm.addWarp(int32(i), a.warp)
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
		sm.L1.InvalidateAll()
	}
	if p.Hardware || p.NoCoherence || p.Classify {
		return
	}
	for _, g := range s.GPMs {
		g.L2.InvalidateAll()
	}
}

// Dirty data is always flushed by the kernel-end barrier before the next
// kernelBoundaryInvalidate runs, so the flash-clear above loses nothing
// even under the write-back option.

// warpFinished is called by SMs as warps complete.
func (s *System) warpFinished() {
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
		case c.stage != stageDrainInvs && int(c.pending) < len(s.SMs):
			gate = &s.SMs[c.pending].sysHomeGate
		case c.stage == stageDrainStores:
			s.flushAllDirty()
			c.stage, c.pending = stageDrainFlushed, 0
			continue
		case c.stage == stageDrainFlushed:
			c.stage, c.pending = stageDrainInvs, 0
			continue
		case int(c.pending) < len(s.GPMs):
			gate = &s.GPMs[c.pending].invAll
		default:
			c.release()
			s.drained = true
			s.Eng.Stop()
			return
		}
		c.pending++
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
