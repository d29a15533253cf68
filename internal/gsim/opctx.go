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
// always names the context's next step, whichever trigger runs it.
//
// Some contexts live for one hop; others live as long as the operation
// they carry:
//
//   - a load context carries a load from issue to opDone: the L1
//     lookup, the requester-side L2 probe, and the L1 fill and
//     completion bookkeeping when the response arrives;
//   - an atomic context carries an atomic from issue to its reply: it
//     is the line-lock waiter at the home, the L2-latency event, and the
//     sink of the line fetch when the home misses;
//   - a release context carries a store-release through its gate waits
//     and invalidation fence to its completion;
//   - a request context carries one LoadReq from a requester to a home
//     node, waits there for the home's response, and carries the
//     DataResp back;
//   - an MSHR entry holds the waiters merged on one outstanding line
//     fetch until the fill arrives;
//   - an invalidation context lives until its whole fan-out, forwards
//     included, has been delivered; an MCA store context likewise until
//     every InvAck is back, and a release context until every fence
//     probe has acked. Their children count down the parent's pending;
//   - the kernel-drain context walks every store and invalidation gate
//     at a kernel boundary.
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
	"hmg/internal/directory"
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
	// stageLoadReq runs when a request context's LoadReq reaches its
	// home node.
	stageLoadReq
	// stageHomeReply (on fill) sends the home's response back to the
	// requester as a DataResp.
	stageHomeReply
	// stageDataResp runs when the DataResp reaches the requester: fill
	// its L2 slice when permitted and pass the data on to the sink.
	stageDataResp
	// stageSysHomeLoad runs the system-home L2 lookup of a load.
	stageSysHomeLoad
	// stageGPUHomeLoad runs the GPU-home L2 lookup of a load.
	stageGPUHomeLoad
	// stageDRAMFill runs when a home's DRAM read completes: install the
	// line in the home slice and answer the sink.
	stageDRAMFill
	// stageMSHRFill (on fill) completes an MSHR entry: every merged
	// waiter receives the data, in arrival order.
	stageMSHRFill

	// Warps.

	// stageOpDone retires a posted op at its warp: w.opDone().
	stageOpDone
	// stageWarpWake clears a warp's timed-wakeup flag and re-issues.
	stageWarpWake

	// Stores and write-backs.

	// stageStartStore runs the SM-side post-L1 leg of a store.
	stageStartStore
	// stageStoreWB runs the write-back-option L2 leg of a store: absorb
	// the store into a dirty local slice hit, or fall through to the
	// write-through path.
	stageStoreWB
	// stageStoreReqGPUHome and stageStoreReqSysHome run when a StoreReq
	// reaches a GPU home or the system home.
	stageStoreReqGPUHome
	stageStoreReqSysHome
	// stageGPUHomeStore applies a write-through at a GPU home node.
	stageGPUHomeStore
	// stageSysHomeStore applies a write-through at the system home.
	stageSysHomeStore
	// stageWBReqGPUHome and stageWBReqSysHome run when a WriteBack
	// reaches a GPU home or the system home.
	stageWBReqGPUHome
	stageWBReqSysHome
	// stageWBGPUHome applies a write-back at a GPU home node.
	stageWBGPUHome
	// stageWBSysHome applies a write-back at the system home.
	stageWBSysHome

	// Invalidations and downgrades.

	// stageInvDeliver delivers a directory invalidation; a GPU-home
	// target forwards it to its own sharers.
	stageInvDeliver
	// stageInvForward delivers one forwarded invalidation and counts it
	// against its parent's fan-out.
	stageInvForward
	// stageCarveInv delivers one CARVE broadcast invalidation.
	stageCarveInv
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
	// sends its acknowledged invalidations.
	stageMCAStoreAtL2
	// stageMCAInv delivers one acknowledged invalidation and sends the
	// InvAck back.
	stageMCAInv
	// stageMCAInvAck counts an InvAck against its store.
	stageMCAInvAck

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
	// stageFenceAck counts a probe's acknowledgment against its release.
	stageFenceAck

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
// fields its site filled in. Fields are reset on release so the pool
// never pins caches, contexts, or fill maps.
type opCtx struct {
	s     *System
	stage ctxStage
	live  bool

	sm   *SM
	w    *warpCtx
	g    topo.GPMID // home, destination, or acting GPM of the step
	from topo.GPMID // requesting or originating GPM
	op   trace.Op
	line topo.Line
	word uint16
	v    uint64
	req  proto.Requester

	issued     engine.Cycle // load issue time, for latency statistics
	l1OK       bool         // the load may fill the L1
	fillHere   bool         // the response may fill the requester's L2
	track      bool         // the home records the requester as a sharer
	viaGPUHome bool         // the request targets a GPU home node
	local      bool         // a home-side store issued by the home itself
	gates      gateSet

	// sink receives the line data this context fetches.
	sink *opCtx
	data fillData

	// MSHR entries: the fetch and the contexts merged on it.
	key     fetchKey
	waiters []*opCtx

	// Fan-out: an invalidation's forwards, an MCA store's InvAcks or a
	// release's fence acks still outstanding (pending), each child
	// pointing back at its parent.
	region  directory.Region
	gran    int
	forward bool
	intra   bool // intra-GPU invalidation, or a .gpu fence probe
	pending int
	parent  *opCtx

	// next links the waiters of a line lock (GPM.lockLine), or the MSHR
	// entries of one line (mshrTable).
	next *opCtx
	// drainIdx is the kernel drain's next gate within its pass.
	drainIdx int
}

// ctxSlabMin is the size of the first slab of contexts; later slabs
// double the pool.
const ctxSlabMin = 256

// newCtx draws a context from the free list and tags it with a stage,
// growing the pool by a slab when the list is empty.
//
//lint:allow hotalloc pool growth: slabs double the pool, so warm-up is logarithmic in the peak number of live contexts
func (s *System) newCtx(stage ctxStage) *opCtx {
	if len(s.ctxFree) == 0 {
		slab := make([]opCtx, max(ctxSlabMin, s.ctxs))
		s.ctxs += len(slab)
		// Room for every context, so release never grows the list.
		s.ctxFree = make([]*opCtx, len(slab), s.ctxs)
		for i := range slab {
			slab[i].s = s
			s.ctxFree[i] = &slab[i]
		}
	}
	last := len(s.ctxFree) - 1
	c := s.ctxFree[last]
	s.ctxFree = s.ctxFree[:last]
	c.stage, c.live = stage, true
	s.liveCtxs++
	return c
}

// release zeroes the context and returns it to the free list.
// Releasing a context twice panics.
func (c *opCtx) release() {
	if !c.live {
		panic("gsim: opCtx released twice")
	}
	s := c.s
	*c = opCtx{s: s}
	s.liveCtxs--
	s.ctxFree = s.ctxFree[:len(s.ctxFree)+1]
	s.ctxFree[len(s.ctxFree)-1] = c
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
		c.loadDone(c.v)
	case stageLoadMiss:
		s.requesterL2Load(c)
	case stageRequesterProbe:
		if e, hit := s.gpmOf(c.sm.gpm).L2.Lookup(c.line); hit {
			c.loadFilled(e.Data)
			return
		}
		s.loadRound(c)
	case stageLoadReq:
		c.stage = stageHomeReply
		if c.viaGPUHome {
			s.gpuHomeLoad(c.g, c.from, c.op, c.line, c)
		} else {
			s.sysHomeLoad(c.g, c.req, c.track, c.line, c)
		}
	case stageDataResp:
		from, line, fill, fillHere, sink := c.from, c.line, c.data, c.fillHere, c.sink
		c.release()
		s.fillL2(from, line, fill, fillHere)
		sink.filled(fill)
	case stageSysHomeLoad:
		sh, line, sink := c.g, c.line, c.sink
		c.release()
		s.sysHomeLoadAtL2(sh, line, sink)
	case stageGPUHomeLoad:
		h, op, line, sink := c.g, c.op, c.line, c.sink
		c.release()
		s.gpuHomeLoadAtL2(h, op, line, sink)
	case stageDRAMFill:
		sh, line, sink := c.g, c.line, c.sink
		c.release()
		s.dramFilled(sh, line, sink)
	case stageOpDone:
		w := c.w
		c.release()
		w.opDone()
	case stageWarpWake:
		w := c.w
		c.release()
		w.wakeup = false
		w.tryIssue()
	case stageStartStore:
		sm, op, line, word := c.sm, c.op, c.line, c.word
		c.release()
		sm.storeAfterL1(op, line, word)
	case stageStoreWB:
		sm, op, line, word := c.sm, c.op, c.line, c.word
		c.release()
		if s.tryWriteBackHit(sm.gpm, line, word, op.Val) {
			sm.finishGates(gateGPU | gateSys)
			return
		}
		s.l2Store(sm, op, line, word)
	case stageStoreReqGPUHome:
		h, from, op, line, word, sm, gates := c.g, c.from, c.op, c.line, c.word, c.sm, c.gates
		c.release()
		s.gpuHomeStore(h, from, op, line, word, sm, gates)
	case stageStoreReqSysHome:
		sh, req, op, line, word, sm, gates := c.g, c.req, c.op, c.line, c.word, c.sm, c.gates
		c.release()
		s.sysHomeStore(sh, req, false, op, line, word, sm, gates)
	case stageGPUHomeStore:
		h, from, op, line, word, sm, gates := c.g, c.from, c.op, c.line, c.word, c.sm, c.gates
		c.release()
		s.gpuHomeStoreAtL2(h, from, op, line, word, sm, gates)
	case stageSysHomeStore:
		sh, req, local, op, line, word, sm, gates := c.g, c.req, c.local, c.op, c.line, c.word, c.sm, c.gates
		c.release()
		s.sysHomeStoreAtL2(sh, req, local, op, line, word, sm, gates)
	case stageWBReqGPUHome:
		h, from, line, data, sm, gates := c.g, c.from, c.line, c.data, c.sm, c.gates
		c.release()
		s.wbAtGPUHome(h, from, line, data, sm, gates)
	case stageWBReqSysHome:
		sh, req, line, data, sm, gates := c.g, c.req, c.line, c.data, c.sm, c.gates
		c.release()
		s.wbAtSysHome(sh, req, false, line, data, sm, gates)
	case stageWBGPUHome:
		h, from, line, data, sm, gates := c.g, c.from, c.line, c.data, c.sm, c.gates
		c.release()
		s.wbAtGPUHomeL2(h, from, line, data, sm, gates)
	case stageWBSysHome:
		sh, req, local, line, data, sm, gates := c.g, c.req, c.local, c.line, c.data, c.sm, c.gates
		c.release()
		s.wbAtSysHomeL2(sh, req, local, line, data, sm, gates)
	case stageInvDeliver:
		s.invDelivered(c)
	case stageInvForward:
		parent, dest, line, gran := c.parent, c.g, c.line, c.gran
		c.release()
		s.invalidateAt(dest, line, gran)
		parent.pending--
		if parent.pending == 0 {
			parent.invFinished()
		}
	case stageCarveInv:
		home, dest, first, intra := c.from, c.g, c.line, c.intra
		c.release()
		s.carveInvDelivered(home, dest, first, intra)
	case stageDowngrade:
		home, line, req, from := c.g, c.line, c.req, c.from
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
		s.gpmOf(c.g).lockLine(c.line, c)
	case stageAtomicLocked:
		c.stage = stageAtomicAtL2
		s.Eng.ScheduleHandler(s.Cfg.L2Latency, c)
	case stageAtomicAtL2:
		s.atomicAtL2(c)
	case stageSyncDone:
		w := c.w
		c.release()
		w.blocked = false
		w.opDone()
	case stageMCALoadLocked:
		sh, req, track, line, sink := c.g, c.req, c.track, c.line, c.sink
		c.release()
		s.gpmOf(sh).unlockLine(line)
		s.sysHomeLoadUnlocked(sh, req, track, line, sink)
	case stageMCAStoreLocked:
		c.stage = stageMCAStoreAtL2
		s.Eng.ScheduleHandler(s.Cfg.L2Latency, c)
	case stageMCAStoreAtL2:
		s.sysHomeStoreMCA(c)
	case stageMCAInv:
		s.invalidateAt(c.g, c.line, c.gran)
		c.stage = stageMCAInvAck
		s.send(c.g, c.from, msg.InvAck, c)
	case stageMCAInvAck:
		store := c.parent
		c.release()
		store.pending--
		if store.pending == 0 {
			store.mcaStoreDone()
		}
	case stageReleaseFlush:
		// "Release operations trigger a writeback of all dirty data, at
		// least to the home node for the scope being released." The
		// flush runs after prior stores' absorptions have settled (the
		// gate wait that ran this step) and its own writes are covered
		// by the next wait.
		if s.Cfg.WriteBack {
			s.flushDirtySlice(c.sm.gpm, c.sm)
		}
		c.stage = stageReleaseFence
		c.sm.releaseGate(c.op.Scope).Wait(c)
	case stageReleaseFence:
		c.sm.fenceInvalidations(c)
	case stageFenceProbe:
		c.stage = stageFenceDrained
		c.fencedGate().Wait(c)
	case stageFenceDrained:
		c.stage = stageFenceAck
		s.send(c.g, c.from, relAckKind, c)
	case stageFenceAck:
		rel := c.parent
		c.release()
		rel.pending--
		if rel.pending == 0 {
			rel.releaseStore()
		}
	case stageDrainStores, stageDrainFlushed, stageDrainInvs:
		c.drainKernel()
	default:
		panic("gsim: opCtx dispatched with no stage")
	}
}

// filled hands a context the line data it waits for, running the
// fill-triggered step its stage names.
func (c *opCtx) filled(fill fillData) {
	switch c.stage {
	case stageLoadFill:
		c.loadFilled(fill)
	case stageHomeReply:
		c.data = fill
		c.stage = stageDataResp
		c.s.send(c.g, c.from, msg.DataResp, c)
	case stageMSHRFill:
		c.s.gpmOf(c.g).fetchDone(c, fill)
	default:
		panic("gsim: opCtx filled with no fill stage")
	}
}
