package gsim

import (
	"hmg/internal/cache"
	"hmg/internal/engine"
	"hmg/internal/msg"
	"hmg/internal/topo"
	"hmg/internal/trace"
)

// SM is one streaming multiprocessor: an L1 cache plus a set of resident
// warps issuing memory operations with bounded memory-level parallelism.
type SM struct {
	sys *System
	id  topo.SMID
	gpm topo.GPMID
	gpu topo.GPUID
	L1  *cache.Cache

	// warps lists the running kernel's warps resident on this SM, in
	// assignment order; launchKernel carves it from the System's
	// warp-list slab, sized to the SM's warp count, so addWarp never
	// grows it.
	warps    []*warpCtx
	inflight int // ops outstanding across the SM

	// gpuHomeGate tracks posted stores by this SM that have not yet been
	// processed at their GPU home node (their system home under flat
	// protocols); sysHomeGate tracks those not yet at the system home.
	// Releases wait on the gate matching their scope.
	gpuHomeGate drain
	sysHomeGate drain
}

// warpCtx is one resident warp executing its op stream in order (with up
// to MaxWarpInflight posted ops outstanding; synchronizing ops are
// blocking).
type warpCtx struct {
	sm       *SM
	ops      []trace.Op
	next     int
	inflight int
	readyAt  engine.Cycle
	// id is the warp's index in the kernel's launch order
	// (System.warps).
	id       int32
	blocked  bool
	wakeup   bool // a timed wakeup event is scheduled
	finished bool
}

// addWarp makes warp w resident in the kernel's warp slot id and starts
// issuing it.
func (sm *SM) addWarp(id int32, w *trace.Warp) {
	ctx := &sm.sys.warps[id]
	*ctx = warpCtx{sm: sm, ops: w.Ops, id: id, readyAt: sm.sys.Eng.Now() + engine.Cycle(w.Ops[0].Gap)}
	sm.warps = append(sm.warps, ctx)
	ctx.tryIssue()
}

// A warp schedules its own steps: the engine holds handlers as
// interface values, so a warp may be in the queue several times at once
// under the two handler types below, and no pooled context is drawn.

// warpWake is a warp's timed wakeup: clear the flag and re-issue.
type warpWake warpCtx

// Handle implements engine.Handler.
func (ww *warpWake) Handle() {
	w := (*warpCtx)(ww)
	w.wakeup = false
	w.tryIssue()
}

// storePosted retires one of a warp's posted stores one L1 latency
// after issue; the write-through goes on in the background.
type storePosted warpCtx

// Handle implements engine.Handler.
func (sp *storePosted) Handle() { (*warpCtx)(sp).opDone() }

// poke re-attempts issue on every warp, called when SM-level resources
// free up.
func (sm *SM) poke() {
	for _, w := range sm.warps {
		w.tryIssue()
	}
}

// opDone is the completion bookkeeping shared by all op kinds.
func (w *warpCtx) opDone() {
	w.inflight--
	w.sm.inflight--
	w.sm.poke()
}

// tryIssue issues as many ops as resource limits allow.
func (w *warpCtx) tryIssue() {
	for {
		if w.finished || w.blocked {
			return
		}
		if w.next >= len(w.ops) {
			if w.inflight == 0 {
				w.finished = true
				w.sm.sys.warpFinished()
			}
			return
		}
		now := w.sm.sys.Eng.Now()
		if now < w.readyAt {
			if !w.wakeup {
				w.wakeup = true
				w.sm.sys.Eng.ScheduleHandlerAt(w.readyAt, (*warpWake)(w))
			}
			return
		}
		op := w.ops[w.next]
		if op.Kind.IsSync() && w.inflight > 0 {
			return // sync ops wait for all prior ops of the warp
		}
		if w.inflight >= w.sm.sys.Cfg.MaxWarpInflight || w.sm.inflight >= w.sm.sys.Cfg.MaxSMInflight {
			return // re-poked on completions
		}
		w.next++
		if w.next < len(w.ops) {
			w.readyAt = now + engine.Cycle(w.ops[w.next].Gap)
		}
		w.issue(op)
	}
}

// issue dispatches one op into the memory system. A load, release or
// atomic travels on one pooled context from here to its completion.
func (w *warpCtx) issue(op trace.Op) {
	sm := w.sm
	sys := sm.sys
	sys.ops++
	w.inflight++
	sm.inflight++
	// First touch places the page on the accessing GPM.
	sys.Pages.Touch(op.Addr, sm.gpm)
	switch op.Kind {
	case trace.Load, trace.LoadAcq:
		sys.loads++
		if op.Kind == trace.LoadAcq {
			w.blocked = true
			sm.acquireInvalidate(op.Scope)
		}
		c := w.newOpCtx(op)
		c.setIssued(sys.Eng.Now())
		sm.startLoad(c)
	case trace.Store:
		sys.stores++
		// Posted: the warp sees completion after L1 access; the
		// write-through proceeds in the background.
		sm.startStore(op)
		sys.Eng.ScheduleHandler(sys.Cfg.L1Latency, (*storePosted)(w))
	case trace.StoreRel:
		sys.stores++
		w.blocked = true
		sm.release(w.newOpCtx(op))
	case trace.Atomic:
		sys.atomics++
		w.blocked = true
		sm.startAtomic(w.newOpCtx(op))
	}
}

// newOpCtx draws the context that carries op of warp w from issue to
// completion; the op's start function sets its first stage.
func (w *warpCtx) newOpCtx(op trace.Op) *opCtx {
	c := w.sm.sys.newCtx(stageNone)
	c.owner = w.id
	c.setOp(op)
	return c
}

// acquireInvalidate applies the protocol's acquire actions for the given
// scope. Bulk invalidations are modeled as flash-clears; their cost is
// the refetch traffic they cause.
func (sm *SM) acquireInvalidate(scope trace.Scope) {
	p := sm.sys.Cfg.Policy
	sm.sys.emit(Event{Kind: EvAcquire, GPM: sm.gpm, SM: sm.id, Scope: scope, Op: trace.LoadAcq})
	if scope <= trace.ScopeCTA {
		return // .cta acquires synchronize through the L1 itself
	}
	sm.L1.InvalidateAll()
	if scope == trace.ScopeGPM {
		// The GPM-local L2 is the .gpm coherence point and is current
		// for .gpm-visible stores under every protocol: only the L1
		// needs invalidating.
		return
	}
	if p.Hardware || p.NoCoherence || p.Classify {
		return // L2s are hardware-coherent (or idealized, or classified)
	}
	// Software coherence: bulk-invalidate L2s between the SM and the
	// scope's coherence point, flushing dirty data first under the
	// write-back option so the flash-clear loses nothing.
	if sm.sys.Cfg.WriteBack {
		sm.sys.flushDirtySlice(sm.gpm, sm)
	}
	sm.sys.gpmOf(sm.gpm).L2.InvalidateAll()
	if scope == trace.ScopeSys && p.Hierarchical {
		// Hierarchical software coherence: .sys acquires invalidate all
		// L2 slices of the issuing GPU.
		for local := 0; local < sm.sys.Cfg.Topo.GPMsPerGPU; local++ {
			g := sm.sys.Cfg.Topo.GPM(sm.gpu, local)
			if g != sm.gpm {
				if sm.sys.Cfg.WriteBack {
					sm.sys.flushDirtySlice(g, sm)
				}
				sm.sys.gpmOf(g).L2.InvalidateAll()
			}
		}
	}
}

// release implements the store-release carried by c: wait for this SM's
// prior stores to reach the scope's home, fence in-flight invalidations
// for the scope's domain (hardware protocols), then perform the
// releasing store and wait for it to reach the scope's home.
func (sm *SM) release(c *opCtx) {
	s := sm.sys
	if s.Cfg.Policy.NoCoherence || c.scope <= trace.ScopeCTA {
		// Ideal: the release is an ordinary posted store. A .cta release
		// orders through the L1 only; prior warp ops have already
		// drained (sync ops issue with zero warp inflight).
		sm.startStore(c.op())
		c.stage = stageSyncDone
		s.Eng.ScheduleHandler(s.Cfg.L1Latency, c)
		return
	}
	c.stage = stageReleaseFlush
	sm.releaseGate(c.scope).Wait(c)
}

// releaseGate returns the store gate a release of the given scope waits
// on: the GPU-home gate for .gpu and narrower scopes under hierarchical
// protocols, else the system-home gate.
func (sm *SM) releaseGate(scope trace.Scope) *drain {
	if scope <= trace.ScopeGPU && sm.sys.Cfg.Policy.Hierarchical {
		return &sm.gpuHomeGate
	}
	return &sm.sysHomeGate
}

// fenceInvalidations fences the release rel: it probes the L2 slices in
// the scope's domain, and each acks once the invalidations it had in
// flight at probe arrival are delivered. The release's own GPM is
// probed in place. Software protocols send no probes (they have no
// background invalidations).
func (sm *SM) fenceInvalidations(rel *opCtx) {
	s := sm.sys
	scope := rel.scope
	if !s.Cfg.Policy.Hardware || scope <= trace.ScopeGPM {
		// .gpm releases need no invalidation fence: a GPM's threads all
		// read through the one local slice, so no stale sibling copies
		// are involved.
		rel.releaseStore()
		return
	}
	n := s.Cfg.Topo.TotalGPMs()
	if scope == trace.ScopeGPU {
		n = s.Cfg.Topo.GPMsPerGPU
	}
	rel.pending = int32(n)
	for i := 0; i < n; i++ {
		tgt := topo.GPMID(i)
		if scope == trace.ScopeGPU {
			tgt = s.Cfg.Topo.GPM(sm.gpu, i)
		}
		p := s.newCtx(stageChildDone)
		p.up = rel
		p.setG(tgt)
		p.setFrom(sm.gpm)
		p.setFlag(flagIntra, scope == trace.ScopeGPU)
		if tgt == sm.gpm {
			p.fencedGate().Wait(p)
			continue
		}
		p.stage = stageFenceProbe
		s.send(sm.gpm, tgt, msg.RelFence, p)
	}
}

// fencedGate returns the invalidation gate a fence probe waits on at its
// target: intra-GPU invalidations for a .gpu fence, all of them for .sys.
func (c *opCtx) fencedGate() *drain {
	g := c.s.gpmOf(c.g())
	if c.is(flagIntra) {
		return &g.invIntra
	}
	return &g.invAll
}

// releaseStore performs the releasing store of a fenced release and
// waits for it to reach the scope's home.
func (c *opCtx) releaseStore() {
	sm := c.warp().sm
	sm.startStore(c.op())
	c.stage = stageSyncDone
	sm.releaseGate(c.scope).Wait(c)
}
