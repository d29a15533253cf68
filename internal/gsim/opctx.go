package gsim

// Pooled op and continuation contexts.
//
// Every step of the simulator that waits on simulated time, on a
// message, on a response, on a line lock, or on a drain gate runs on an
// opCtx drawn from a per-System free list. The caller fills in the
// fields its step needs and either schedules the context through the
// engine's allocation-free ScheduleHandler path or a network send
// (Handle dispatches on the stage tag), registers it as a waiter (line
// locks and drain gates run Handle too), or hands it to a responder as
// the sink of a line fill (filled dispatches on the same tag). The stage
// always names the context's next step. A context waits on one trigger
// at a time, so a stage that both can run (stageHomeLoad,
// stageMSHRFill) names one step per trigger.
//
// Some contexts live for one hop; others live as long as the operation
// they carry:
//
//   - a load context carries a load from issue to opDone: the L1
//     lookup, the requester-side L2 probe, and the L1 fill and
//     completion bookkeeping when the response arrives. A load whose
//     response may not fill the requester's slice is its own LoadReq:
//     the same context runs the home steps (the MCA line-lock wait, the
//     home L2 lookup, the wait on the home's fetch) and carries the
//     DataResp back;
//   - an atomic context carries an atomic from issue to its reply: it
//     is the line-lock waiter at the home, the L2-latency event, and the
//     sink of the line fetch when the home misses;
//   - a write context carries a write-through from issue, or a
//     write-back from its flush or eviction, to the system home, where
//     it ends: the L1 and L2 legs of a store, the route (routeWrite),
//     the StoreReq or WriteBack to each home, the GPU-home step and the
//     system-home step (storeDone), with the line lock and InvAcks in
//     between under MCA;
//   - a release context carries a store-release through its gate waits
//     and invalidation fence to its completion;
//   - a request context carries the LoadReq of one MSHR fetch from a
//     GPM to the next home up, runs the home steps there as a load
//     context does, and carries the DataResp back to fill the GPM's
//     slice. It exists because an MSHR entry's next already links its
//     MSHR table and cannot also link a line-lock queue;
//   - an MSHR entry holds the waiters merged on one outstanding line
//     fetch until the fill arrives; at a system home it is also the
//     DRAM read's handler;
//   - an invalidation context lives until its whole fan-out, forwards
//     included, has been delivered; an MCA write context likewise
//     until every InvAck is back, and a release context until every
//     fence probe has acked. Their children count down the parent's
//     pending (childDone);
//   - the kernel-drain context walks every store and invalidation gate
//     at a kernel boundary.
//
// A warp's own steps take no context: its timed wakeup and the
// completion of a posted store are scheduled on the warp itself
// (warpWake and storePosted in sm.go).
//
// Pooling invariant: a context has exactly one owner at a time — the
// event queue or network (scheduled or in flight), the context it is
// the sink of (waiting for a fill), the MSHR entry, line lock or drain
// gate it waits in, or the step now running on it. The step that ends a
// context's life releases it exactly once and never touches it
// afterwards; it copies the fields it still needs into locals and
// releases before running anything that may draw from the pool. The one
// exception is an MSHR entry: it leaves its GPM's MSHR table first, so
// nothing can reach it while its waiters run, and is released after
// them.
// Every context is therefore back on the free list once its operation
// is done, which the conformance checker asserts at each drained kernel
// boundary (LiveContexts), and release panics on a double release.
//
// Byte-identity: every step schedules exactly one event per modeled hop
// (an L1 or L2 latency, a link, a DRAM access), at the point in
// execution where the hop begins, so event sequence numbers — and
// therefore cycle-level results — match the committed baselines.

import (
	"hmg/internal/engine"
	"hmg/internal/msg"
	"hmg/internal/proto"
	"hmg/internal/topo"
	"hmg/internal/trace"
)

// ctxStage names the next step of a pooled opCtx.
type ctxStage uint8

const (
	stageNone ctxStage = iota
	// stageFree marks a context on the free list.
	stageFree

	// Loads, from the SM up the home hierarchy and back.

	// stageLoadValue completes a load that hit in the L1.
	stageLoadValue
	// stageLoadMiss runs the SM-side L1-miss step of a load: route it
	// into the L2 hierarchy.
	stageLoadMiss
	// stageRequesterProbe runs the requester-side local L2 probe of a
	// load before it escalates to the home hierarchy.
	stageRequesterProbe
	// stageLoadFill (on fill) installs the response in the L1 when
	// permitted and completes the load.
	stageLoadFill
	// stageLoadReq runs when a LoadReq, carried by the load itself or by
	// a request context, reaches its home node.
	stageLoadReq
	// stageHomeLoad runs the home's L2 lookup of a load one L2 latency
	// after it arrived; on fill, once the home's fetch of a missed line
	// fills, it serves the load (served).
	stageHomeLoad
	// stageDataResp runs when the DataResp reaches the requester: an
	// unmerged load completes; a request context fills the requester's
	// L2 slice and completes its MSHR entry.
	stageDataResp
	// stageMSHRFill completes an MSHR entry: every merged waiter
	// receives the data, in arrival order. On fill it completes with
	// the response; scheduled, its home's DRAM read has completed and
	// the line is installed in the home's slice first.
	stageMSHRFill

	// Writes: a write-through carries one store from issue, a
	// write-back one dirty line from its flush or eviction; both take
	// the same route to the system home.

	// stageStartStore runs the SM-side post-L1 leg of a store.
	stageStartStore
	// stageStoreWB runs the write-back-option L2 leg of a store: absorb
	// the store into a dirty local slice hit, or fall through to the
	// write-through path.
	stageStoreWB
	// stageStoreReqGPUHome and stageStoreReqSysHome run when a StoreReq
	// or WriteBack reaches a GPU home or the system home.
	stageStoreReqGPUHome
	stageStoreReqSysHome
	// stageGPUHomeStore applies a write at a GPU home node and forwards
	// it to the system home.
	stageGPUHomeStore
	// stageSysHomeStore applies a write at the system home, where it
	// ends.
	stageSysHomeStore

	// Invalidations and downgrades.

	// stageInvDeliver delivers an invalidation of any kind (invDelivered);
	// while a GPU-home target's forwards are in flight, it marks their
	// parent.
	stageInvDeliver
	// stageDowngrade delivers a clean-eviction downgrade to the home.
	stageDowngrade

	// Atomics (one context from issue to reply) and synchronizing-op
	// completion.

	// stageAtomicRoute sends a .gpu or .sys atomic's AtomicReq to the
	// scope's home one L1 latency after issue.
	stageAtomicRoute
	// stageAtomicLock waits for the line lock at the GPM that performs
	// the atomic: the home, or the issuing GPM for .gpm.
	stageAtomicLock
	// stageAtomicLocked runs when the atomic holds its line lock: start
	// the L2 access.
	stageAtomicLocked
	// stageAtomicAtL2 performs the atomic one L2 latency after it took
	// the lock.
	stageAtomicAtL2
	// stageAtomicL1Hit applies a .cta atomic that hit its L1, whose
	// result val already holds, one L1 latency after issue.
	stageAtomicL1Hit
	// stageSyncDone unblocks a warp whose atomic or release completed
	// and retires the op.
	stageSyncDone

	// Multi-copy atomicity (the GPU-VI baseline).

	// stageMCALoadLocked continues a system-home load once no store
	// holds its line.
	stageMCALoadLocked
	// stageMCAStoreLocked runs when a store holds its system-home line:
	// start the L2 access.
	stageMCAStoreLocked
	// stageMCAStoreAtL2 applies the store's Table I transitions and
	// sends its acknowledged invalidations; while their InvAcks are
	// outstanding, it marks their parent.
	stageMCAStoreAtL2

	// Release fences.

	// stageReleaseFlush runs when a release's prior stores reached the
	// scope home: flush dirty data (write-back) and wait again.
	stageReleaseFlush
	// stageReleaseFence runs when the flush writes reached the scope
	// home: fence in-flight invalidations.
	stageReleaseFence
	// stageFenceProbe runs when a fence probe reaches its target: wait
	// for the invalidations the target has in flight.
	stageFenceProbe
	// stageFenceDrained sends the probe's RelAck back.
	stageFenceDrained

	// stageChildDone counts a finished child against its parent
	// (childDone): an InvAck or RelAck that reached its parent, or a
	// probe of the release's own GPM whose gate drained.
	stageChildDone

	// The implicit .sys release at kernel end: a pass over every SM's
	// store gate, the dirty flush (write-back only) and a second pass,
	// then a pass over every directory's invalidation gate (drainKernel).
	stageDrainStores
	stageDrainFlushed
	stageDrainInvs
)

// gateSet names the store gates of an SM that a write-through or
// write-back releases as it is processed at its home nodes.
type gateSet uint8

const (
	gateGPU gateSet = 1 << iota // the SM's GPU-home gate
	gateSys                     // the SM's system-home gate
)

// finishGates releases the named gates, the GPU-home gate first.
func (sm *SM) finishGates(gs gateSet) {
	if gs&gateGPU != 0 {
		sm.gpuHomeGate.Finish()
	}
	if gs&gateSys != 0 {
		sm.sysHomeGate.Finish()
	}
}

// opCtx is the pooled context. It is a union: each step reads only the
// fields its site filled in. Release zeroes it, so the pool never pins
// caches, contexts, or fill maps. It is one 64-byte cache line
// (TestOpCtxFitsOneLine), so each hop touches one host line and release
// zeroes one: ids and counters are 32 bits or less, the bools share one
// flags byte, and what a context implies is derived rather than stored —
// the line and word from addr, an MSHR entry's key from its line and
// from, an invalidation's region and granularity from the System's
// directory configuration or classification, a warp-bound context's SM
// from its warp, and the kernel drain's gate index lives in pending.
// The line data a response or a write-back carries lives beside the
// pool (ctxData), because only value-tracking runs have any.
//
// DESIGN.md "Pooled contexts" tables the fields each role uses.
//
// Folding rule: two roles share a field only where the pooling
// invariant proves a context never holds both. A context reports to one
// context at a time — a request context's sink or a fan-out child's
// parent — and an MSHR entry reports to none, so all three live in up.
// A context is linked into one list at a time — a line lock's queue,
// its line's MSHR chain (entries), an MSHR entry's waiters, or the free
// list — because it waits on one trigger at a time, so every list links
// through next. A load's op value is never read (EvLoadDone carries the
// loaded value), so its L1-hit value takes val; a load has no requester
// and no children, so its issue cycle takes reqID and pending.
type opCtx struct {
	s *System
	// up is the context this one reports to: a request context's sink
	// (the MSHR entry its DataResp fills), or a fan-out child's parent.
	// An MSHR entry's up heads its merged waiters, newest first (linked
	// through next); fetchDone runs them oldest first.
	up *opCtx
	// next links the context into the one list it is on (see above).
	next *opCtx

	// addr is the op's address; a role that carries only a line stores
	// the line's base address (setLine).
	addr topo.Addr
	// val is the op's value: what a store writes or an atomic adds (a
	// .cta atomic that hit its L1 holds its result); a load's L1-hit
	// value.
	val uint64
	// reqID is the requester id a write or downgrade applies for; its
	// kind is flagReqGPU.
	reqID int32
	// pending counts an invalidation's forwards, an MCA store's InvAcks
	// or a release's fence acks still outstanding; the kernel drain's
	// next gate within its pass.
	pending int32
	// owner is a warp-bound context's warp (load, atomic, release), an
	// index into System.warps, or a write's SM, an index into System.SMs.
	owner int32
	// g16 is the home, destination, or acting GPM of the step; from16 the
	// requesting or originating GPM, or an MSHR entry's fetch
	// destination. Config.Validate bounds machines at MaxGPMs so both
	// fit 16 bits (g and from).
	g16, from16 int16

	stage ctxStage
	flags ctxFlags
	gates gateSet
	kind  trace.OpKind
	scope trace.Scope
}

// ctxFlags packs a context's booleans.
type ctxFlags uint8

const (
	flagL1OK     ctxFlags = 1 << iota // the load may fill the L1
	flagFillHere                      // the response may fill the requester's L2
	flagLocal                         // a home-side store issued by the home itself
	flagWB                            // the write is a write-back carrying data
	flagForward                       // the invalidation targets a GPU home, which forwards it
	flagIntra                         // intra-GPU invalidation, or a .gpu fence probe
	flagReqGPU                        // reqID names a GPU
	flagPoisoned                      // an MSHR entry's line fill was overtaken (mshr.go)
)

// is reports whether every flag in f is set.
func (c *opCtx) is(f ctxFlags) bool { return c.flags&f == f }

// setFlag sets or clears the flags in f.
func (c *opCtx) setFlag(f ctxFlags, on bool) {
	if on {
		c.flags |= f
	} else {
		c.flags &^= f
	}
}

// req returns the requester a write or downgrade applies for.
func (c *opCtx) req() proto.Requester {
	return proto.Requester{IsGPU: c.is(flagReqGPU), ID: int(c.reqID)}
}

// setReq records the requester a write or downgrade applies for.
func (c *opCtx) setReq(r proto.Requester) {
	c.reqID = int32(r.ID)
	c.setFlag(flagReqGPU, r.IsGPU)
}

// g returns the home, destination, or acting GPM of the step.
func (c *opCtx) g() topo.GPMID { return topo.GPMID(c.g16) }

// from returns the requesting or originating GPM, or an MSHR entry's
// fetch destination.
func (c *opCtx) from() topo.GPMID { return topo.GPMID(c.from16) }

// setG records the GPM the next step acts at.
func (c *opCtx) setG(g topo.GPMID) { c.g16 = int16(g) }

// setFrom records the requesting or originating GPM.
func (c *opCtx) setFrom(g topo.GPMID) { c.from16 = int16(g) }

// line returns the line the context's address falls in.
func (c *opCtx) line() topo.Line { return c.s.lineOf(c.addr) }

// setLine makes a context that carries only a line address the line's
// base.
func (c *opCtx) setLine(l topo.Line) { c.addr = topo.Addr(uint64(l) << c.s.lineShift) }

// word returns the line-relative word the context's op addresses.
func (c *opCtx) word() uint16 { return c.s.wordOf(c.addr) }

// op returns the op the context carries. Its Gap is zero: a gap is
// spent before issue.
func (c *opCtx) op() trace.Op {
	return trace.Op{Addr: c.addr, Val: c.val, Kind: c.kind, Scope: c.scope}
}

// setOp records the op the context carries.
func (c *opCtx) setOp(op trace.Op) {
	c.addr, c.val, c.kind, c.scope = op.Addr, op.Val, op.Kind, op.Scope
}

// warp returns the warp a load, atomic or release context belongs to.
func (c *opCtx) warp() *warpCtx { return &c.s.warps[c.owner] }

// writer returns the SM whose store gates a write context releases.
func (c *opCtx) writer() *SM { return c.s.SMs[c.owner] }

// issued returns a load's issue cycle, kept in reqID (low half) and
// pending (high half).
func (c *opCtx) issued() engine.Cycle {
	return engine.Cycle(uint64(uint32(c.reqID)) | uint64(uint32(c.pending))<<32)
}

// setIssued records a load's issue cycle.
func (c *opCtx) setIssued(t engine.Cycle) {
	c.reqID, c.pending = int32(uint32(t)), int32(uint32(t>>32))
}

// data returns the line data a response or a write-back context
// carries: nil unless the run tracks values.
func (c *opCtx) data() fillData {
	if !c.s.Cfg.TrackValues {
		return nil
	}
	return c.s.ctxData[c]
}

// setData makes c carry line data; a no-op unless the run tracks
// values, whose contexts keep it in the System's ctxData until release.
//
//lint:allow hotalloc value-tracking side store; timing runs never reach the map
func (c *opCtx) setData(d fillData) {
	s := c.s
	if !s.Cfg.TrackValues {
		return
	}
	if s.ctxData == nil {
		s.ctxData = make(map[*opCtx]fillData)
	}
	s.ctxData[c] = d
}

// ctxSlabMin is the size of the first slab of contexts; later slabs
// double the pool, up to maxCtxSlabs slabs: ctxSlabMin << 31 contexts,
// far beyond any machine's memory. A slab of ctxSlabMin contexts is
// 32 KB, which the Go allocator places as a large object on a page
// boundary, so every context starts a host cache line; a smaller slab
// is a small object whose 8-byte type header would put each context
// across two lines (TestOpCtxFitsOneLine).
const (
	ctxSlabMin  = 512
	maxCtxSlabs = 32
)

// newCtx draws a context from the free list and tags it with a stage,
// growing the pool by a slab when the list is empty.
func (s *System) newCtx(stage ctxStage) *opCtx {
	c := s.ctxFree
	if c == nil {
		c = s.growCtxs()
	}
	s.ctxFree, c.next = c.next, nil
	c.stage = stage
	s.liveCtxs++
	return c
}

// growCtxs adds a slab of free contexts to the pool, threading the free
// list through them, and returns the list's new head.
//
//lint:allow hotalloc pool growth: slabs double the pool, so warm-up is logarithmic in the peak number of live contexts
func (s *System) growCtxs() *opCtx {
	if s.numCtxSlabs == maxCtxSlabs {
		panic("gsim: context pool exceeds its slab limit")
	}
	slab := make([]opCtx, max(ctxSlabMin, s.ctxs))
	s.ctxSlabs[s.numCtxSlabs] = slab
	s.numCtxSlabs++
	s.threadCtxs(slab)
	return s.ctxFree
}

// threadCtxs makes every context of slab free and adds it to the pool.
func (s *System) threadCtxs(slab []opCtx) {
	s.ctxs += len(slab)
	for i := range slab {
		slab[i] = opCtx{s: s, stage: stageFree, next: s.ctxFree}
		s.ctxFree = &slab[i]
	}
}

// release zeroes the context, drops any line data it carries, and
// returns it to the free list. Releasing a context twice panics.
func (c *opCtx) release() {
	if c.stage == stageFree {
		panic("gsim: opCtx released twice")
	}
	s := c.s
	if s.Cfg.TrackValues {
		delete(s.ctxData, c)
	}
	*c = opCtx{s: s, stage: stageFree, next: s.ctxFree}
	s.ctxFree = c
	s.liveCtxs--
}

// LiveContexts reports the pooled contexts currently in use: op and
// continuation contexts plus the network's route contexts. Every one
// belongs to an operation or message still in flight.
func (s *System) LiveContexts() int { return s.liveCtxs + s.Net.LiveRoutes() }

// DowngradesInFlight reports the downgrade notices sent but not yet
// delivered. They are the one message a drained kernel boundary does
// not wait for; each holds its own context and at most one route.
func (s *System) DowngradesInFlight() int { return s.downgrading }

// Handle runs a scheduled step. Per the pooling invariant, an arm that
// ends its context's life copies the fields it needs into locals and
// releases the context before running the step body.
func (c *opCtx) Handle() {
	s := c.s
	switch c.stage {
	case stageLoadValue:
		c.loadDone(c.val)
	case stageLoadMiss:
		s.requesterL2Load(c)
	case stageRequesterProbe:
		gpm, line := s.gpmOf(c.from()), c.line()
		if _, hit := gpm.L2.Lookup(line); hit {
			c.loadFilled(gpm.L2.Values(line))
			return
		}
		c.stage = stageLoadFill
		s.fetchLine(gpm, c.g(), c)
	case stageLoadReq:
		s.homeLoad(c)
	case stageHomeLoad:
		s.homeLoadAtL2(c)
	case stageDataResp:
		if c.up == nil {
			// An unmerged load, back on its own context.
			c.loadFilled(c.data())
			return
		}
		from, line, fill, fillHere, sink := c.from(), c.line(), c.data(), c.is(flagFillHere), c.up
		c.release()
		s.fillL2(from, line, fill, fillHere)
		sink.filled(fill)
	case stageMSHRFill:
		s.dramFilled(c)
	case stageStartStore:
		s.storeAfterL1(c)
	case stageStoreWB:
		sm := c.writer()
		if s.tryWriteBackHit(sm.gpm, c.line(), c.word(), c.val) {
			c.release()
			sm.finishGates(gateGPU | gateSys)
			return
		}
		s.l2Store(c)
	case stageStoreReqGPUHome:
		c.stage = stageGPUHomeStore
		s.Eng.ScheduleHandler(s.Cfg.L2Latency, c)
	case stageStoreReqSysHome:
		s.atSysHome(c)
	case stageGPUHomeStore:
		s.gpuHomeStore(c)
	case stageSysHomeStore:
		s.sysHomeStore(c)
	case stageInvDeliver:
		s.invDelivered(c)
	case stageDowngrade:
		home, line, req, from := c.g(), c.line(), c.req(), c.from()
		c.release()
		s.downgrading--
		if d := s.gpmOf(home).Dir; d != nil {
			d.DropSharer(line, req)
			s.emit(Event{Kind: EvDowngrade, GPM: home, SM: NoSM, Line: line, Aux: int(from)})
		}
	case stageAtomicRoute:
		s.atomicRoute(c)
	case stageAtomicLock:
		c.stage = stageAtomicLocked
		s.gpmOf(c.g()).lockLine(c.line(), c)
	case stageAtomicLocked:
		c.stage = stageAtomicAtL2
		s.Eng.ScheduleHandler(s.Cfg.L2Latency, c)
	case stageAtomicAtL2:
		s.atomicAtL2(c)
	case stageAtomicL1Hit:
		c.atomicWrite(c.val)
	case stageSyncDone:
		w := c.warp()
		c.release()
		w.blocked = false
		w.opDone()
	case stageMCALoadLocked:
		s.gpmOf(c.g()).unlockLine(c.line())
		s.sysHomeLoadUnlocked(c)
	case stageMCAStoreLocked:
		c.stage = stageMCAStoreAtL2
		s.Eng.ScheduleHandler(s.Cfg.L2Latency, c)
	case stageMCAStoreAtL2:
		s.sysHomeStoreMCA(c)
	case stageReleaseFlush:
		// "Release operations trigger a writeback of all dirty data, at
		// least to the home node for the scope being released." The
		// flush runs after prior stores' absorptions have settled (the
		// gate wait that ran this step) and its own writes are covered
		// by the next wait.
		sm := c.warp().sm
		if s.Cfg.WriteBack {
			s.flushDirtySlice(sm.gpm, sm)
		}
		c.stage = stageReleaseFence
		sm.releaseGate(c.scope).Wait(c)
	case stageReleaseFence:
		c.warp().sm.fenceInvalidations(c)
	case stageFenceProbe:
		c.stage = stageFenceDrained
		c.fencedGate().Wait(c)
	case stageFenceDrained:
		c.stage = stageChildDone
		s.send(c.g(), c.from(), msg.RelAck, c)
	case stageChildDone:
		c.childDone()
	case stageDrainStores, stageDrainFlushed, stageDrainInvs:
		c.drainKernel()
	default:
		panic("gsim: opCtx dispatched with no stage")
	}
}

// childDone ends c, one child of its parent's fan-out, and counts it
// against the parent, whose stage names what its last child continues:
// an invalidation waiting on its forwards ends (invFinished), an MCA
// store waiting on its InvAcks ends (storeDone), and a release waiting
// on its fence probes performs its store (releaseStore).
func (c *opCtx) childDone() {
	p := c.up
	c.release()
	if p.pending--; p.pending > 0 {
		return
	}
	switch p.stage {
	case stageInvDeliver:
		p.invFinished()
	case stageMCAStoreAtL2:
		p.storeDone()
	case stageReleaseFence:
		p.releaseStore()
	default:
		panic("gsim: opCtx child done with no parent stage")
	}
}

// filled hands a context the line data it waits for, running the
// fill-triggered step its stage names.
func (c *opCtx) filled(fill fillData) {
	switch c.stage {
	case stageLoadFill:
		c.loadFilled(fill)
	case stageHomeLoad:
		c.served(fill)
	case stageMSHRFill:
		c.s.gpmOf(c.g()).fetchDone(c, fill)
	default:
		panic("gsim: opCtx filled with no fill stage")
	}
}
