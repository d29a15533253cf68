package gsim

import (
	"hmg/internal/cache"
	"hmg/internal/engine"
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
	blocked  bool
	readyAt  engine.Cycle
	wakeup   bool // a timed wakeup event is scheduled
	finished bool
}

// addWarp makes warp w resident in the context slot ctx and starts
// issuing it.
func (sm *SM) addWarp(ctx *warpCtx, w *trace.Warp) {
	*ctx = warpCtx{sm: sm, ops: w.Ops, readyAt: sm.sys.Eng.Now() + engine.Cycle(w.Ops[0].Gap)}
	sm.warps = append(sm.warps, ctx)
	ctx.tryIssue()
}

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
				c := w.sm.sys.newCtx(stageWarpWake)
				c.w = w
				w.sm.sys.Eng.ScheduleHandlerAt(w.readyAt, c)
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

// issue dispatches one op into the memory system. A load travels on one
// pooled context from here to its completion (loadDone).
//
//lint:allow hotalloc release and atomic completion closures; synchronizing ops, not the load/store datapath
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
		c := sm.newLoad(op, nil)
		c.w, c.issued = w, sys.Eng.Now()
		sm.startLoad(c)
	case trace.Store:
		sys.stores++
		// Posted: the warp sees completion after L1 access; the
		// write-through proceeds in the background.
		sm.startStore(op)
		c := sys.newCtx(stageOpDone)
		c.w = w
		sys.Eng.ScheduleHandler(sys.Cfg.L1Latency, c)
	case trace.StoreRel:
		sys.stores++
		w.blocked = true
		sm.release(op, func() {
			w.blocked = false
			w.opDone()
		})
	case trace.Atomic:
		sys.atomics++
		w.blocked = true
		sm.startAtomic(op, func(uint64) {
			w.blocked = false
			w.opDone()
		})
	}
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
	sm.L1.InvalidateWhere(nil)
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
	sm.sys.gpmOf(sm.gpm).L2.InvalidateWhere(nil)
	if scope == trace.ScopeSys && p.Hierarchical {
		// Hierarchical software coherence: .sys acquires invalidate all
		// L2 slices of the issuing GPU.
		for local := 0; local < sm.sys.Cfg.Topo.GPMsPerGPU; local++ {
			g := sm.sys.Cfg.Topo.GPM(sm.gpu, local)
			if g != sm.gpm {
				if sm.sys.Cfg.WriteBack {
					sm.sys.flushDirtySlice(g, sm)
				}
				sm.sys.gpmOf(g).L2.InvalidateWhere(nil)
			}
		}
	}
}

// release implements store-release: wait for this SM's prior stores to
// reach the scope's home, fence in-flight invalidations for the scope's
// domain (hardware protocols), then perform the releasing store and wait
// for it to reach the scope's home.
//
//lint:allow hotalloc per-op completion closures; budget gated by the hmgperf allocs/event baseline
func (sm *SM) release(op trace.Op, done func()) {
	p := sm.sys.Cfg.Policy
	if p.NoCoherence {
		// Ideal: the release is an ordinary posted store.
		sm.startStore(op)
		sm.sys.Eng.Schedule(sm.sys.Cfg.L1Latency, done)
		return
	}
	if op.Scope <= trace.ScopeCTA {
		// .cta release: ordering through the L1 only; prior warp ops have
		// already drained (sync ops issue with zero warp inflight).
		sm.startStore(op)
		sm.sys.Eng.Schedule(sm.sys.Cfg.L1Latency, done)
		return
	}
	gate := &sm.sysHomeGate
	if op.Scope <= trace.ScopeGPU && p.Hierarchical {
		gate = &sm.gpuHomeGate
	}
	gate.Wait(func() {
		// "Release operations trigger a writeback of all dirty data, at
		// least to the home node for the scope being released." The
		// flush runs after prior stores' absorptions have settled (the
		// gate wait above) and its own writes are covered by the wait
		// below.
		if sm.sys.Cfg.WriteBack {
			sm.sys.flushDirtySlice(sm.gpm, sm)
		}
		gate.Wait(func() {
			sm.fenceInvalidations(op.Scope, func() {
				// The releasing store itself must reach the scope home.
				sm.startStore(op)
				gate.Wait(done)
			})
		})
	})
}

// fenceInvalidations sends release-fence probes to the L2 slices in the
// scope's domain; each acks once the invalidations it had in flight at
// probe arrival are delivered. Software protocols send none (they have
// no background invalidations).
//
//lint:allow hotalloc fence fan-out targets and continuations; fences are synchronization points, not steady-state events
func (sm *SM) fenceInvalidations(scope trace.Scope, done func()) {
	p := sm.sys.Cfg.Policy
	if !p.Hardware || scope <= trace.ScopeGPM {
		// .gpm releases need no invalidation fence: a GPM's threads all
		// read through the one local slice, so no stale sibling copies
		// are involved.
		done()
		return
	}
	var targets []topo.GPMID
	if scope == trace.ScopeGPU {
		for local := 0; local < sm.sys.Cfg.Topo.GPMsPerGPU; local++ {
			targets = append(targets, sm.sys.Cfg.Topo.GPM(sm.gpu, local))
		}
	} else {
		for g := 0; g < sm.sys.Cfg.Topo.TotalGPMs(); g++ {
			targets = append(targets, topo.GPMID(g))
		}
	}
	pending := len(targets)
	for _, tgt := range targets {
		tgt := tgt
		ack := func() {
			pending--
			if pending == 0 {
				done()
			}
		}
		gpm := sm.sys.gpmOf(tgt)
		gateFor := func() *drain {
			if scope == trace.ScopeGPU {
				return &gpm.invIntra
			}
			return &gpm.invAll
		}
		if tgt == sm.gpm {
			gateFor().Wait(ack)
			continue
		}
		sm.sys.sendFunc(sm.gpm, tgt, relFenceKind, func() {
			gateFor().Wait(func() {
				sm.sys.sendFunc(tgt, sm.gpm, relAckKind, ack)
			})
		})
	}
}
