package gsim

// The write-back L2 design option of Section IV. Plain (.cta-or-weaker)
// stores that hit in the GPM-local L2 slice dirty it instead of writing
// through. Dirty data flushes to the home hierarchy:
//
//   - on release operations and kernel boundaries ("release operations
//     trigger a writeback of all dirty data to the respective home
//     nodes"),
//   - on acquire-driven bulk invalidations under software coherence (the
//     data would otherwise be lost with the flash-clear),
//   - on dirty-line evictions, using the WriteBack message whose issuing
//     GPM "need not be tracked as a sharer going forward".
//
// Synchronizing stores always write through, preserving forward
// progress. All flushes are tracked by the issuing SM's store gates, so
// releases and kernel barriers wait for them exactly as they wait for
// write-throughs.

import (
	"hmg/internal/msg"
	"hmg/internal/proto"
	"hmg/internal/topo"
)

// tryWriteBackHit attempts to absorb a plain store into the local L2
// slice. It returns true when absorbed; the caller then releases the
// store's gates (the flush mechanism takes over the visibility
// obligation).
func (s *System) tryWriteBackHit(g topo.GPMID, line topo.Line, word uint16, val uint64) bool {
	e, hit := s.gpmOf(g).L2.Lookup(line)
	if !hit {
		return false
	}
	//lint:allow eventemit absorption is covered by the caller's EvStoreIssue; the flush path emits the home-side events
	e.Dirty = true
	if s.Cfg.TrackValues {
		//lint:allow eventemit same absorption; the value surfaces via EvHomeStore when the dirty line flushes
		e.SetValue(word, val)
	}
	return true
}

// flushDirtySlice writes every dirty line of one GPM's L2 slice back to
// its home hierarchy, in set/way order, charging the given SM's store
// gates.
func (s *System) flushDirtySlice(g topo.GPMID, sm *SM) {
	//lint:allow eventemit FlushDirty only clears dirty bits; each flushed line's home-side events are emitted by the scheduled wbAtGPUHomeL2/wbAtSysHomeL2 continuations
	s.flushBuf = s.gpmOf(g).L2.FlushDirty(s.flushBuf[:0])
	for _, e := range s.flushBuf {
		s.writeBackLine(g, sm, e.Line, e.Data)
	}
	clear(s.flushBuf) // do not pin the flushed lines' value maps
}

// flushAllDirty flushes every GPM's dirty lines, charging each GPM's
// first SM — the implicit .sys release of a kernel boundary.
func (s *System) flushAllDirty() {
	if !s.Cfg.WriteBack {
		return
	}
	for _, g := range s.GPMs {
		sm := s.SMs[s.Cfg.Topo.SM(g.id, 0)]
		s.flushDirtySlice(g.id, sm)
	}
}

// writeBackLine sends one dirty line toward its home nodes. Routing
// follows the store path (GPU home, then system home, under hierarchical
// policies); the line's data is carried whole.
//
//lint:allow hotalloc write-back data snapshot; value-tracking configurations only
func (s *System) writeBackLine(g topo.GPMID, sm *SM, line topo.Line, data fillData) {
	sm.gpuHomeGate.Start()
	sm.sysHomeGate.Start()
	const gates = gateGPU | gateSys
	sysHome := s.Pages.SysHome(line)
	hier := s.Cfg.Policy.Hierarchical
	gpuHome := sysHome
	if hier {
		gpuHome = s.Pages.GPUHome(s.Cfg.Topo.GPUOf(g), line)
	}
	var snapshot fillData
	if s.Cfg.TrackValues {
		snapshot = make(fillData, len(data))
		//lint:allow determinism word-keyed map copy; every word is written to a distinct key, so order cannot matter
		for w, v := range data {
			snapshot[w] = v
		}
	}
	switch {
	case g == sysHome:
		s.wbAtSysHome(g, proto.Requester{}, true, line, snapshot, sm, gates)
	case hier && gpuHome != sysHome && g == gpuHome:
		s.wbAtGPUHome(g, g, line, snapshot, sm, gates)
	case hier && gpuHome != sysHome:
		c := s.newCtx(stageWBReqGPUHome)
		c.g, c.from, c.line, c.data, c.sm, c.gates = gpuHome, g, line, snapshot, sm, gates
		s.send(g, gpuHome, msg.WriteBack, c)
	default:
		s.sendWBReqSys(g, sysHome, s.flatRequester(g, sysHome), line, snapshot, sm, gates)
	}
}

// sendWBReqSys sends a write-back to the system home, where it is
// processed for requester req and releases gates of sm.
func (s *System) sendWBReqSys(from, sysHome topo.GPMID, req proto.Requester, line topo.Line, data fillData, sm *SM, gates gateSet) {
	c := s.newCtx(stageWBReqSysHome)
	c.g, c.req, c.line, c.data, c.sm, c.gates = sysHome, req, line, data, sm, gates
	s.send(from, sysHome, msg.WriteBack, c)
}

// wbAtGPUHome applies a writeback at a GPU home node and forwards it to
// the system home. Per the Section IV option, the issuing GPM is not
// recorded as a sharer; other sharers of changed data are invalidated.
func (s *System) wbAtGPUHome(h, fromGPM topo.GPMID, line topo.Line, data fillData, sm *SM, gates gateSet) {
	c := s.newCtx(stageWBGPUHome)
	c.g, c.from, c.line, c.data, c.sm, c.gates = h, fromGPM, line, data, sm, gates
	s.Eng.ScheduleHandler(s.Cfg.L2Latency, c)
}

// wbAtGPUHomeL2 is the GPU-home step of a writeback one L2 latency
// after arrival.
func (s *System) wbAtGPUHomeL2(h, fromGPM topo.GPMID, line topo.Line, data fillData, sm *SM, gates gateSet) {
	gpm := s.gpmOf(h)
	sysHome := s.Pages.SysHome(line)
	s.wbApply(gpm, proto.GPMRequester(s.Cfg.Topo.LocalOf(fromGPM)), fromGPM == h, line, data)
	sm.finishGates(gates & gateGPU)
	s.sendWBReqSys(h, sysHome, proto.GPURequester(int(gpm.gpu)), line, data, sm, gates&^gateGPU)
}

// wbApply applies a writeback at a home node: the directory store
// transition without retaining the writer as a sharer ("need not be
// tracked going forward"), and the home-copy merge. local marks a
// writeback issued by the home GPM itself.
//
// A writeback carries only values its absorbed stores already surfaced
// as EvStoreIssue; the invalidations it triggers surface as
// EvInvDeliver when they land.
func (s *System) wbApply(gpm *GPM, req proto.Requester, local bool, line topo.Line, data fillData) {
	if gpm.Dir != nil {
		if local {
			//lint:allow eventemit writeback store transition; its invalidations emit EvInvDeliver on delivery
			s.sendInvs(gpm, gpm.Dir.Dir.RegionOf(line), gpm.Dir.LocalStore(line))
		} else {
			//lint:allow eventemit writeback store transition; its invalidations emit EvInvDeliver on delivery
			inv, evR, evT := gpm.Dir.RemoteStore(line, req)
			s.sendInvs(gpm, gpm.Dir.Dir.RegionOf(line), inv)
			s.sendInvs(gpm, evR, evT)
			//lint:allow eventemit the writer is not tracked after a writeback; no reader-visible change
			gpm.Dir.DropSharer(line, req)
		}
	}
	if e, hit := gpm.L2.Peek(line); hit {
		if s.Cfg.TrackValues {
			//lint:allow eventemit merged values were emitted by their stores' EvStoreIssue
			e.MergeFrom(data)
		}
	} else {
		gpm.poisonLine(line)
	}
}

// wbAtSysHome applies a writeback at the system home: directory store
// transition without retaining the writer as a sharer, home-copy merge,
// and the DRAM write.
func (s *System) wbAtSysHome(sh topo.GPMID, req proto.Requester, local bool, line topo.Line, data fillData, sm *SM, gates gateSet) {
	c := s.newCtx(stageWBSysHome)
	c.g, c.req, c.local, c.line, c.data, c.sm, c.gates = sh, req, local, line, data, sm, gates
	s.Eng.ScheduleHandler(s.Cfg.L2Latency, c)
}

// wbAtSysHomeL2 is the system-home step of a writeback one L2 latency
// after arrival.
func (s *System) wbAtSysHomeL2(sh topo.GPMID, req proto.Requester, local bool, line topo.Line, data fillData, sm *SM, gates gateSet) {
	gpm := s.gpmOf(sh)
	s.wbApply(gpm, req, local, line, data)
	if s.Cfg.TrackValues {
		base := topo.Addr(uint64(line) * uint64(s.Cfg.Topo.LineSize))
		//lint:allow determinism each word stores to its own address; per-word DRAM writes commute
		for w, v := range data {
			//lint:allow eventemit written-back values were emitted by their stores' EvStoreIssue
			gpm.DRAM.StoreValue(base+topo.Addr(w)*4, v)
		}
	}
	gpm.DRAM.Write(s.Cfg.Topo.LineSize, nil)
	sm.finishGates(gates)
}
