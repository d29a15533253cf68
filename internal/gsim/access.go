package gsim

import (
	"hmg/internal/cache"
	"hmg/internal/directory"
	"hmg/internal/msg"
	"hmg/internal/proto"
	"hmg/internal/topo"
	"hmg/internal/trace"
)

// Message kind aliases used by the SM layer.
const (
	relFenceKind = msg.RelFence
	relAckKind   = msg.RelAck
)

// fillData is the sparse word-value payload of a load response. It is
// nil when value tracking is off. Receivers only read it.
type fillData map[uint16]uint64

// valOf extracts one word's value from response data (0 for untracked
// words and nil data, matching never-written memory).
func valOf(fill fillData, word uint16) uint64 { return fill[word] }

// cacheableAt reports whether the policy allows caches on GPM g to hold
// line l (NoRemoteCache forbids caching lines owned by other GPUs).
func (s *System) cacheableAt(g topo.GPMID, l topo.Line) bool {
	if s.Cfg.Policy.Classify && g != s.Pages.SysHome(l) && s.classOf(l) == classReadWrite {
		// CARVE: read-write shared regions are never cached remotely.
		return false
	}
	if s.Cfg.Policy.CacheRemoteGPU {
		return true
	}
	return s.Cfg.Topo.GPUOf(s.Pages.SysHome(l)) == s.Cfg.Topo.GPUOf(g)
}

// effScope returns the scope the datapath enforces: Ideal ignores scope
// bypass entirely (loads may hit anywhere).
func (s *System) effScope(sc trace.Scope) trace.Scope {
	if s.Cfg.Policy.NoCoherence {
		return trace.ScopeNone
	}
	return sc
}

// ---------------------------------------------------------------------
// Loads
// ---------------------------------------------------------------------

// startLoad begins the load carried by c at the SM: L1 first (when the
// scope permits), then the L2 hierarchy.
func (sm *SM) startLoad(c *opCtx) {
	s := sm.sys
	op := c.op
	c.line = s.Cfg.Topo.LineOf(op.Addr)
	c.word = cache.WordOf(op.Addr, s.Cfg.Topo.LineSize)
	scope := s.effScope(op.Scope)
	c.l1OK = scope <= trace.ScopeCTA && s.cacheableAt(sm.gpm, c.line)
	c.stage = stageLoadMiss
	if c.l1OK {
		if e, hit := sm.L1.Lookup(c.line); hit {
			c.v, _ = e.Value(c.word)
			c.stage = stageLoadValue
		}
	}
	s.Eng.ScheduleHandler(s.Cfg.L1Latency, c)
}

// loadFilled is the SM-side end of a load: install the response in the
// L1 when the scope permitted an L1 lookup, then complete the load.
func (c *opCtx) loadFilled(fill fillData) {
	if c.l1OK {
		e, _ := c.sm.L1.Fill(c.line)
		if c.s.Cfg.TrackValues {
			e.MergeFrom(fill)
		}
	}
	c.loadDone(valOf(fill, c.word))
}

// loadDone completes a load with its value and releases its context: a
// warp load records its latency (plain loads), surfaces the value, and
// retires at its warp. An atomic's context runs the load path to fetch
// its line and hands the value to atomicApply instead.
func (c *opCtx) loadDone(v uint64) {
	if c.op.Kind == trace.Atomic {
		c.atomicApply(v)
		return
	}
	s, sm, w, op, issued := c.s, c.sm, c.w, c.op, c.issued
	c.release()
	if op.Kind == trace.Load {
		lat := uint64(s.Eng.Now() - issued)
		s.loadLatSum += lat
		if lat > s.maxLoadLat {
			s.maxLoadLat = lat
		}
	}
	if s.OnLoadValue != nil {
		s.OnLoadValue(sm.id, op, v)
	}
	s.emit(Event{Kind: EvLoadDone, GPM: sm.gpm, SM: sm.id,
		Line: s.Cfg.Topo.LineOf(op.Addr), Addr: op.Addr,
		Scope: op.Scope, Op: op.Kind, Val: v})
	if op.Kind == trace.LoadAcq {
		w.blocked = false
	}
	w.opDone()
}

// requesterL2Load handles the load carried by c at the requesting GPM's
// L2 slice and routes misses up the home hierarchy. c receives the
// response line data once it has been installed in this GPM's L2 (when
// permitted). The route is decided here, at request time.
func (s *System) requesterL2Load(c *opCtx) {
	sm, op, line := c.sm, c.op, c.line
	g := sm.gpm
	scope := s.effScope(op.Scope)
	sysHome := s.Pages.SysHome(line)
	hier := s.Cfg.Policy.Hierarchical
	gpuHome := sysHome
	if hier {
		gpuHome = s.Pages.GPUHome(sm.gpu, line)
	}
	cacheable := s.cacheableAt(g, line)
	// The requester may fill its own L2 with the response for loads of
	// .gpm scope or weaker (the GPM-local slice is the .gpm coherence
	// point) on cacheable lines.
	fillHere := scope <= trace.ScopeGPM && cacheable

	c.stage = stageLoadFill
	if g == sysHome {
		// Local load at the system home: Table I takes no action.
		s.sysHomeLoad(g, proto.GPMRequester(int(g)), false, line, c)
		return
	}
	if hier && g == gpuHome && gpuHome != sysHome && scope <= trace.ScopeGPU {
		// This GPM is the GPU home node for the line.
		s.gpuHomeLoad(g, g, op, line, c)
		return
	}
	c.fillHere = fillHere
	if scope == trace.ScopeSys || !hier || gpuHome == sysHome {
		// Route directly to the system home. Track the requester only if
		// it will cache the response.
		c.g = sysHome
		c.req = s.flatRequester(g, sysHome)
		c.track = fillHere && s.Cfg.Policy.Hardware
	} else {
		// Hierarchical: route via the GPU home node.
		c.g, c.viaGPUHome = gpuHome, true
	}
	if fillHere {
		// Probe the local slice before going out.
		c.stage = stageRequesterProbe
		s.Eng.ScheduleHandler(s.Cfg.L2Latency, c)
		return
	}
	s.loadRound(c)
}

// loadRound sends the load carried by c to the home requesterL2Load
// chose, merging it in this GPM's MSHRs when the response may fill the
// local slice.
func (s *System) loadRound(c *opCtx) {
	c.stage = stageLoadFill
	g := c.sm.gpm
	if !c.fillHere {
		s.sendLoadReq(g, c.g, c.viaGPUHome, c.req, c.track, false, c.op, c.line, c)
		return
	}
	if m := s.gpmOf(g).fetch(fetchKey{c.line, c.g}, c); m != nil {
		s.sendLoadReq(g, c.g, c.viaGPUHome, c.req, c.track, true, c.op, c.line, m)
	}
}

// sendLoadReq sends a LoadReq from one GPM to a home node on a request
// context. At the home it runs the system-home load (or, viaGPUHome,
// the GPU-home load) with req and track; the response returns as a
// DataResp, fills the requester's slice when fillHere, and goes to sink.
func (s *System) sendLoadReq(from, home topo.GPMID, viaGPUHome bool, req proto.Requester, track, fillHere bool, op trace.Op, line topo.Line, sink *opCtx) {
	r := s.newCtx(stageLoadReq)
	r.from, r.g, r.viaGPUHome, r.req, r.track, r.fillHere = from, home, viaGPUHome, req, track, fillHere
	r.op, r.line, r.sink = op, line, sink
	s.send(from, home, msg.LoadReq, r)
}

// flatRequester encodes the requester for a system-home directory under
// flat protocols (global GPM id) or, under HMG, for a requester inside
// the owner GPU (local module index) or outside it (GPU id). A GPU home
// node's requesters all sit inside its GPU, so it names them the same.
func (s *System) flatRequester(g, sysHome topo.GPMID) proto.Requester {
	if !s.Cfg.Policy.Hierarchical {
		return proto.GPMRequester(int(g))
	}
	if s.Cfg.Topo.SameGPU(g, sysHome) {
		return proto.GPMRequester(s.Cfg.Topo.LocalOf(g))
	}
	return proto.GPURequester(int(s.Cfg.Topo.GPUOf(g)))
}

// gpuHomeLoad handles a load at a GPU home node that is not the system
// home (hierarchical policies only). fromGPM is the requesting module of
// the same GPU (possibly the home itself). Concurrent misses merge in
// the home's MSHRs; each still records its requester in the directory at
// request arrival.
func (s *System) gpuHomeLoad(h, fromGPM topo.GPMID, op trace.Op, line topo.Line, sink *opCtx) {
	gpm := s.gpmOf(h)
	// Record the requesting GPM at request time; the system home will
	// only ever learn the GPU.
	if gpm.Dir != nil && fromGPM != h {
		//lint:allow eventemit sharer record of a load; the load surfaces as EvFill/EvLoadDone where its response lands
		evR, evT := gpm.Dir.RemoteLoad(line, proto.GPMRequester(s.Cfg.Topo.LocalOf(fromGPM)))
		s.sendInvs(gpm, evR, evT)
	}
	c := s.newCtx(stageGPUHomeLoad)
	c.g, c.op, c.line, c.sink = h, op, line, sink
	s.Eng.ScheduleHandler(s.Cfg.L2Latency, c)
}

// gpuHomeLoadAtL2 is the GPU-home step of gpuHomeLoad one L2 latency
// after request arrival: home L2 lookup, then a merged fetch from the
// system home on a miss.
func (s *System) gpuHomeLoadAtL2(h topo.GPMID, op trace.Op, line topo.Line, sink *opCtx) {
	gpm := s.gpmOf(h)
	scope := s.effScope(op.Scope)
	if scope <= trace.ScopeGPU {
		if e, hit := gpm.L2.Lookup(line); hit {
			sink.filled(e.Data)
			return
		}
	}
	s.fetchFromSysHome(gpm, op, line, sink)
}

// fetchFromSysHome fetches a line into a GPU home node's slice from the
// system home, merged in the GPU home's MSHRs. The request carries only
// the GPU id: the GPU home caches the response on behalf of its whole
// GPU.
func (s *System) fetchFromSysHome(gpm *GPM, op trace.Op, line topo.Line, sink *opCtx) {
	sysHome := s.Pages.SysHome(line)
	if m := gpm.fetch(fetchKey{line, sysHome}, sink); m != nil {
		s.sendLoadReq(gpm.id, sysHome, false, proto.GPURequester(int(gpm.gpu)), true, true, op, line, m)
	}
}

// sysHomeLoad handles a load at the system home node: hit in the home L2
// or fetch from the local DRAM partition. When track is set the
// requester is recorded as a sharer (Table I remote load).
func (s *System) sysHomeLoad(sh topo.GPMID, req proto.Requester, track bool, line topo.Line, sink *opCtx) {
	if gpm := s.gpmOf(sh); s.Cfg.Policy.MCA && gpm.atomicQ[line].holder != sink {
		// Multi-copy-atomicity: reads of a line with a store awaiting
		// invalidation acknowledgments must wait behind it. A .gpm
		// atomic at its own system home already holds the line, so its
		// fetch reads through instead of queueing behind itself.
		c := s.newCtx(stageMCALoadLocked)
		c.g, c.req, c.track, c.line, c.sink = sh, req, track, line, sink
		gpm.lockLine(line, c)
		return
	}
	s.sysHomeLoadUnlocked(sh, req, track, line, sink)
}

func (s *System) sysHomeLoadUnlocked(sh topo.GPMID, req proto.Requester, track bool, line topo.Line, sink *opCtx) {
	gpm := s.gpmOf(sh)
	if gpm.Dir != nil && track {
		//lint:allow eventemit sharer record of a load; the load surfaces as EvFill/EvLoadDone where its response lands
		evR, evT := gpm.Dir.RemoteLoad(line, req)
		s.sendInvs(gpm, evR, evT)
	}
	if gpm.classes != nil && !req.IsGPU {
		s.classifyLoad(gpm, line, topo.GPMID(req.ID))
	}
	c := s.newCtx(stageSysHomeLoad)
	c.g, c.line, c.sink = sh, line, sink
	s.Eng.ScheduleHandler(s.Cfg.L2Latency, c)
}

// sysHomeLoadAtL2 is the system-home step of a load one L2 latency
// after request arrival: home L2 lookup, then a merged DRAM fetch on a
// miss.
func (s *System) sysHomeLoadAtL2(sh topo.GPMID, line topo.Line, sink *opCtx) {
	gpm := s.gpmOf(sh)
	if e, hit := gpm.L2.Lookup(line); hit {
		sink.filled(e.Data)
		return
	}
	s.fetchFromDRAM(gpm, line, sink)
}

// fetchFromDRAM fetches a line into a system home's slice from its DRAM
// partition, merged in the home's MSHRs.
func (s *System) fetchFromDRAM(gpm *GPM, line topo.Line, sink *opCtx) {
	if m := gpm.fetch(fetchKey{line, gpm.id}, sink); m != nil {
		c := s.newCtx(stageDRAMFill)
		c.g, c.line, c.sink = gpm.id, line, m
		gpm.DRAM.ReadHandler(line, c)
	}
}

// dramFilled installs a line read from the home's DRAM in its slice and
// answers the sink with the slice copy.
func (s *System) dramFilled(sh topo.GPMID, line topo.Line, sink *opCtx) {
	gpm := s.gpmOf(sh)
	var fill fillData
	if s.Cfg.TrackValues {
		fill = gpm.DRAM.LineValues(line)
	}
	e, _ := gpm.L2.Fill(line)
	e.MergeFrom(fill)
	sink.filled(e.Data)
}

// fillL2 installs a load response into an L2 slice when allowed. Under
// the optional Downgrade optimization (Section IV, off by default and in
// the paper's evaluation), a displaced clean remote line notifies its
// home so the sharer can be dropped before it costs an invalidation.
func (s *System) fillL2(g topo.GPMID, line topo.Line, fill fillData, allowed bool) {
	if !allowed || s.gpmOf(g).mshr.poisoned(line) {
		// A poisoned fill was overtaken by an invalidation or store
		// while in flight: serve the waiters but do not cache it.
		return
	}
	e, victim := s.gpmOf(g).L2.Fill(line)
	if s.Cfg.TrackValues {
		e.MergeFrom(fill)
	}
	s.emit(Event{Kind: EvFill, GPM: g, SM: NoSM, Line: line})
	if victim != nil {
		s.emit(Event{Kind: EvL2Evict, GPM: g, SM: NoSM, Line: victim.Line})
	}
	switch {
	case victim == nil:
	case victim.Dirty && s.Cfg.WriteBack:
		// Evicted dirty data writes back to its home (charged to the
		// GPM's first SM; the kernel barrier waits on it).
		s.writeBackLine(g, s.SMs[s.Cfg.Topo.SM(g, 0)], victim.Line, victim.Data)
	case s.Cfg.Policy.Downgrade && s.Cfg.Policy.Hardware:
		s.sendDowngrade(g, victim.Line)
	}
}

// sendDowngrade notifies the home node of a clean eviction so it can
// drop this GPM from the sharer set.
func (s *System) sendDowngrade(g topo.GPMID, line topo.Line) {
	sysHome := s.Pages.SysHome(line)
	home := sysHome
	if s.Cfg.Policy.Hierarchical {
		home = s.Pages.GPUHome(s.Cfg.Topo.GPUOf(g), line)
	}
	if home == g {
		return // the home itself holds no sharer entry for itself
	}
	req := proto.GPMRequester(int(g))
	if s.Cfg.Policy.Hierarchical {
		req = proto.GPMRequester(s.Cfg.Topo.LocalOf(g))
	}
	c := s.newCtx(stageDowngrade)
	c.g, c.line, c.req, c.from = home, line, req, g
	s.downgrading++
	s.send(g, home, msg.Downgrade, c)
}

// ---------------------------------------------------------------------
// Stores
// ---------------------------------------------------------------------

// startStore begins a posted write-through store at the SM.
func (sm *SM) startStore(op trace.Op) {
	s := sm.sys
	line := s.Cfg.Topo.LineOf(op.Addr)
	word := cache.WordOf(op.Addr, s.Cfg.Topo.LineSize)
	sm.gpuHomeGate.Start()
	sm.sysHomeGate.Start()
	s.emit(Event{Kind: EvStoreIssue, GPM: sm.gpm, SM: sm.id, Line: line,
		Addr: op.Addr, Scope: op.Scope, Op: op.Kind, Val: op.Val})
	// Update any L1 copy in place (write-through, no allocate).
	if s.Cfg.TrackValues {
		if e, hit := sm.L1.Peek(line); hit {
			e.SetValue(word, op.Val)
		}
	}
	c := s.newCtx(stageStartStore)
	c.sm, c.op, c.line, c.word = sm, op, line, word
	s.Eng.ScheduleHandler(s.Cfg.L1Latency, c)
}

// storeAfterL1 is the SM-side continuation of startStore one L1 latency
// after issue: absorb into the local slice under the write-back option,
// or route the write-through toward the home hierarchy.
func (sm *SM) storeAfterL1(op trace.Op, line topo.Line, word uint16) {
	s := sm.sys
	if s.Cfg.WriteBack && op.Kind == trace.Store && op.Scope <= trace.ScopeCTA {
		// Write-back option: a plain store that hits the local slice
		// dirties it; the flush machinery assumes the visibility
		// obligation, so the store's gates are released here
		// (stageStoreWB in opctx.go).
		c := s.newCtx(stageStoreWB)
		c.sm, c.op, c.line, c.word = sm, op, line, word
		s.Eng.ScheduleHandler(s.Cfg.L2Latency, c)
		return
	}
	s.l2Store(sm, op, line, word)
}

// l2Store routes a write-through from the requester's L2 slice toward
// the home hierarchy. The SM's gates are released as the store is
// processed at the GPU home and system home points.
func (s *System) l2Store(sm *SM, op trace.Op, line topo.Line, word uint16) {
	g := sm.gpm
	sysHome := s.Pages.SysHome(line)
	hier := s.Cfg.Policy.Hierarchical
	gpuHome := sysHome
	if hier {
		gpuHome = s.Pages.GPUHome(sm.gpu, line)
	}
	// Update the local slice copy in place (and poison any in-flight
	// fill, which would otherwise install pre-store data).
	if g != sysHome && g != gpuHome {
		if e, hit := s.gpmOf(g).L2.Peek(line); hit {
			if s.Cfg.TrackValues {
				e.SetValue(word, op.Val)
			}
		} else {
			s.gpmOf(g).poisonLine(line)
		}
	}
	const gates = gateGPU | gateSys
	switch {
	case g == sysHome:
		s.sysHomeStore(g, proto.Requester{}, true, op, line, word, sm, gates)
	case hier && g == gpuHome && gpuHome != sysHome:
		s.gpuHomeStore(g, g, op, line, word, sm, gates)
	case hier && gpuHome != sysHome:
		c := s.newCtx(stageStoreReqGPUHome)
		c.g, c.from, c.op, c.line, c.word, c.sm, c.gates = gpuHome, g, op, line, word, sm, gates
		s.send(g, gpuHome, msg.StoreReq, c)
	default:
		// Flat protocols, or the owner GPU where the GPU home node and
		// the system home node coincide.
		s.sendStoreReqSys(g, sysHome, s.flatRequester(g, sysHome), op, line, word, sm, gates)
	}
}

// sendStoreReqSys sends a write-through to the system home, where it is
// processed for requester req and releases gates of sm.
func (s *System) sendStoreReqSys(from, sysHome topo.GPMID, req proto.Requester, op trace.Op, line topo.Line, word uint16, sm *SM, gates gateSet) {
	c := s.newCtx(stageStoreReqSysHome)
	c.g, c.req, c.op, c.line, c.word, c.sm, c.gates = sysHome, req, op, line, word, sm, gates
	s.send(from, sysHome, msg.StoreReq, c)
}

// gpuHomeStore processes a write-through at a GPU home node that is not
// the system home, then forwards it to the system home.
func (s *System) gpuHomeStore(h, fromGPM topo.GPMID, op trace.Op, line topo.Line, word uint16, sm *SM, gates gateSet) {
	c := s.newCtx(stageGPUHomeStore)
	c.g, c.from, c.op, c.line, c.word, c.sm, c.gates = h, fromGPM, op, line, word, sm, gates
	s.Eng.ScheduleHandler(s.Cfg.L2Latency, c)
}

// gpuHomeStoreAtL2 is the GPU-home step of a write-through one L2
// latency after request arrival: directory transitions, home-copy
// update, and the forward to the system home.
func (s *System) gpuHomeStoreAtL2(h, fromGPM topo.GPMID, op trace.Op, line topo.Line, word uint16, sm *SM, gates gateSet) {
	gpm := s.gpmOf(h)
	sysHome := s.Pages.SysHome(line)
	if gpm.Dir != nil {
		if fromGPM == h {
			s.sendInvs(gpm, gpm.Dir.Dir.RegionOf(line), gpm.Dir.LocalStore(line))
		} else {
			inv, evR, evT := gpm.Dir.RemoteStore(line, proto.GPMRequester(s.Cfg.Topo.LocalOf(fromGPM)))
			s.sendInvs(gpm, gpm.Dir.Dir.RegionOf(line), inv)
			s.sendInvs(gpm, evR, evT)
		}
	}
	if e, hit := gpm.L2.Peek(line); hit {
		if s.Cfg.TrackValues {
			e.SetValue(word, op.Val)
		}
	} else {
		gpm.poisonLine(line)
	}
	s.emit(Event{Kind: EvGPUHomeStore, GPM: h, SM: NoSM, Line: line,
		Addr: op.Addr, Scope: op.Scope, Op: op.Kind, Val: op.Val})
	sm.finishGates(gates & gateGPU)
	s.sendStoreReqSys(h, sysHome, proto.GPURequester(int(gpm.gpu)), op, line, word, sm, gates&^gateGPU)
}

// sysHomeStore processes a write-through at the system home: Table I
// directory transitions, home L2 update, and the DRAM write. local marks
// stores issued by the home GPM itself.
func (s *System) sysHomeStore(sh topo.GPMID, req proto.Requester, local bool, op trace.Op, line topo.Line, word uint16, sm *SM, gates gateSet) {
	c := s.newCtx(stageSysHomeStore)
	c.g, c.req, c.local, c.op, c.line, c.word, c.sm, c.gates = sh, req, local, op, line, word, sm, gates
	if s.Cfg.Policy.MCA {
		// Multi-copy atomicity: the store holds its home line until
		// every sharer has acknowledged its invalidation.
		c.stage = stageMCAStoreLocked
		s.gpmOf(sh).lockLine(line, c)
		return
	}
	s.Eng.ScheduleHandler(s.Cfg.L2Latency, c)
}

// sysHomeStoreAtL2 is the system-home step of a write-through one L2
// latency after request arrival: classification, Table I directory
// transitions, home-copy update, and the DRAM write.
func (s *System) sysHomeStoreAtL2(sh topo.GPMID, req proto.Requester, local bool, op trace.Op, line topo.Line, word uint16, sm *SM, gates gateSet) {
	gpm := s.gpmOf(sh)
	if gpm.classes != nil {
		accessor := topo.GPMID(req.ID)
		if local {
			accessor = sh
		}
		if s.classifyStore(gpm, line, accessor) {
			s.broadcastInv(gpm, line)
		}
	}
	if gpm.Dir != nil {
		if local {
			s.sendInvs(gpm, gpm.Dir.Dir.RegionOf(line), gpm.Dir.LocalStore(line))
		} else {
			inv, evR, evT := gpm.Dir.RemoteStore(line, req)
			s.sendInvs(gpm, gpm.Dir.Dir.RegionOf(line), inv)
			s.sendInvs(gpm, evR, evT)
		}
	}
	if e, hit := gpm.L2.Peek(line); hit {
		if s.Cfg.TrackValues {
			e.SetValue(word, op.Val)
		}
	} else {
		gpm.poisonLine(line)
	}
	if s.Cfg.TrackValues {
		gpm.DRAM.StoreValue(op.Addr, op.Val)
	}
	gpm.DRAM.Write(s.Cfg.Net.Sizes.StorePayload, nil)
	s.emit(Event{Kind: EvHomeStore, GPM: sh, SM: NoSM, Line: line,
		Addr: op.Addr, Scope: op.Scope, Op: op.Kind, Val: op.Val})
	sm.finishGates(gates)
}

// ---------------------------------------------------------------------
// Invalidations
// ---------------------------------------------------------------------

// sendInvs dispatches background invalidations for a region to the given
// targets. GPM targets resolve within the sender's GPU under
// hierarchical protocols and globally under flat ones; GPU targets
// resolve to that GPU's home node, which forwards to its own sharers
// (the HMG-only Table I transition). The sender's drain gates count each
// invalidation until its entire fan-out has been delivered.
//
// targets is usually a buffer its proto.DirCtrl reuses on the next call.
// Callers pass it on from the directory call with at most other target
// walks in between, and neither this walk nor sendInvsAcked's nor
// invDelivered's forward loop calls into a directory, so the list stays
// intact while it is read.
func (s *System) sendInvs(from *GPM, region directory.Region, targets []proto.InvTarget) {
	if len(targets) == 0 {
		return
	}
	line := from.Dir.Dir.FirstLine(region)
	gran := from.Dir.Dir.Config().GranLines
	for _, t := range targets {
		dest := s.invDest(from, t, line)
		intra := !t.IsGPU && s.Cfg.Topo.SameGPU(from.id, dest)
		from.invAll.Start()
		if intra {
			from.invIntra.Start()
		}
		c := s.newCtx(stageInvDeliver)
		c.from, c.g, c.region, c.line, c.gran, c.forward, c.intra = from.id, dest, region, line, gran, t.IsGPU, intra
		s.send(from.id, dest, msg.Inv, c)
	}
}

// invDest resolves an invalidation target of from's directory for a
// region starting at line: a GPM within from's GPU under hierarchical
// protocols and globally under flat ones, or a GPU's home node for line.
func (s *System) invDest(from *GPM, t proto.InvTarget, line topo.Line) topo.GPMID {
	switch {
	case t.IsGPU:
		return s.Pages.GPUHome(topo.GPUID(t.ID), line)
	case s.Cfg.Policy.Hierarchical:
		return s.Cfg.Topo.GPM(from.gpu, t.ID)
	default:
		return topo.GPMID(t.ID)
	}
}

// invalidateAt applies a delivered invalidation of gran lines at GPM g:
// drop the lines from its slice and poison their in-flight fills.
func (s *System) invalidateAt(g topo.GPMID, line topo.Line, gran int) {
	d := s.gpmOf(g)
	d.L2.InvalidateRegion(line, gran)
	d.poisonRegion(line, gran)
	s.emit(Event{Kind: EvInvDeliver, GPM: g, SM: NoSM, Line: line, Aux: gran})
}

// invDelivered runs when the invalidation carried by c reaches its
// target. A GPU-home target forwards it to its own sharers; c stays live
// until the last forward is delivered.
func (s *System) invDelivered(c *opCtx) {
	dest, line, gran := c.g, c.line, c.gran
	s.invalidateAt(dest, line, gran)
	d := s.gpmOf(dest)
	if !c.forward || d.Dir == nil {
		c.invFinished()
		return
	}
	fw := d.Dir.Invalidation(c.region)
	if len(fw) == 0 {
		c.invFinished()
		return
	}
	s.emit(Event{Kind: EvInvForward, GPM: dest, SM: NoSM, Line: line, Aux: len(fw)})
	c.pending = len(fw)
	for _, ft := range fw {
		f := s.newCtx(stageInvForward)
		f.parent, f.g, f.line, f.gran = c, s.Cfg.Topo.GPM(d.gpu, ft.ID), line, gran
		s.send(dest, f.g, msg.Inv, f)
	}
}

// invFinished ends an invalidation whose whole fan-out has been
// delivered: release its context, then count it done at the sender.
func (c *opCtx) invFinished() {
	from, intra := c.s.gpmOf(c.from), c.intra
	c.release()
	from.invAll.Finish()
	if intra {
		from.invIntra.Finish()
	}
}

// sendInvsAcked dispatches invalidations like sendInvs but additionally
// collects an InvAck from every target on the MCA store context store,
// which completes once the last acknowledgment returns — the
// multi-copy-atomic (GPU-VI) variant that HMG exists to avoid. targets
// must be non-empty; they resolve exactly as in sendInvs.
func (s *System) sendInvsAcked(from *GPM, region directory.Region, targets []proto.InvTarget, store *opCtx) {
	line := from.Dir.Dir.FirstLine(region)
	gran := from.Dir.Dir.Config().GranLines
	store.pending = len(targets)
	for _, t := range targets {
		c := s.newCtx(stageMCAInv)
		c.parent, c.from, c.g, c.line, c.gran = store, from.id, s.invDest(from, t, line), line, gran
		s.send(from.id, c.g, msg.Inv, c)
	}
}

// ---------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------

// startAtomic begins the scoped read-modify-write carried by c, whose
// warp resumes when it completes. .cta atomics perform at the L1 and
// .gpm atomics at the local slice's atomic unit (the Section VII-D
// extension scope); .gpu and .sys atomics at the home node of their
// scope, where the L2 atomic unit serializes them per line. The result
// writes through toward the system home.
//
// A .cta atomic runs the load path from the L1, and a .gpm atomic that
// misses its slice enters it at the slice. The load path treats every
// scope up to .gpm alike, so the atomic's own op drives the fetch, and
// loadDone hands the value on to atomicApply.
func (sm *SM) startAtomic(c *opCtx) {
	s := sm.sys
	if c.op.Scope <= trace.ScopeCTA {
		// RMW through the L1: fetch the line if absent, modify locally,
		// write the result through as an ordinary store.
		sm.startLoad(c)
		return
	}
	c.line = s.Cfg.Topo.LineOf(c.op.Addr)
	c.word = cache.WordOf(c.op.Addr, s.Cfg.Topo.LineSize)
	c.g, c.stage = sm.gpm, stageAtomicLock
	if c.op.Scope > trace.ScopeGPM {
		sm.gpuHomeGate.Start()
		sm.sysHomeGate.Start()
		c.stage = stageAtomicRoute
	}
	s.Eng.ScheduleHandler(s.Cfg.L1Latency, c)
}

// atomicRoute sends a .gpu or .sys atomic to the home node of its scope
// one L1 latency after issue.
func (s *System) atomicRoute(c *opCtx) {
	sm := c.sm
	c.g = s.Pages.SysHome(c.line)
	if c.op.Scope == trace.ScopeGPU && s.Cfg.Policy.Hierarchical {
		if gpuHome := s.Pages.GPUHome(sm.gpu, c.line); gpuHome != c.g {
			c.g, c.viaGPUHome = gpuHome, true
		}
	}
	c.stage = stageAtomicLock
	s.send(sm.gpm, c.g, msg.AtomicReq, c)
}

// atomicAtL2 performs the atomic carried by c at GPM c.g one L2 latency
// after it took its line lock. At a home node the atomic makes the
// directory transitions of a store first. The read-modify-write then
// applies to the slice copy, fetching the line first when the slice
// misses: a .gpm atomic through the normal hierarchy, a GPU home from
// the system home, and the system home from its DRAM.
func (s *System) atomicAtL2(c *opCtx) {
	sm, line, gpm := c.sm, c.line, s.gpmOf(c.g)
	if c.op.Scope > trace.ScopeGPM {
		if gpm.classes != nil && s.classifyStore(gpm, line, sm.gpm) {
			s.broadcastInv(gpm, line)
		}
		if gpm.Dir != nil {
			if sm.gpm == gpm.id {
				s.sendInvs(gpm, gpm.Dir.Dir.RegionOf(line), gpm.Dir.LocalStore(line))
			} else {
				inv, evR, evT := gpm.Dir.RemoteStore(line, s.flatRequester(sm.gpm, gpm.id))
				s.sendInvs(gpm, gpm.Dir.Dir.RegionOf(line), inv)
				s.sendInvs(gpm, evR, evT)
			}
		}
	}
	if e, hit := gpm.L2.Lookup(line); hit {
		v, _ := e.Value(c.word)
		c.atomicApply(v)
		return
	}
	switch {
	case c.op.Scope == trace.ScopeGPM:
		s.requesterL2Load(c)
	case c.viaGPUHome:
		c.stage = stageLoadFill
		s.fetchFromSysHome(gpm, c.op, line, c)
	default:
		c.stage = stageLoadFill
		s.fetchFromDRAM(gpm, line, c)
	}
}

// atomicApply completes the read-modify-write of the atomic carried by
// c on old, the value its line held. A .cta or .gpm atomic writes its
// result through as a plain store and resumes its warp at once. At a
// home node the atomic releases its line and replies to the requester;
// a GPU home also writes the result through to the system home.
func (c *opCtx) atomicApply(old uint64) {
	s, sm, w, op, line, word := c.s, c.sm, c.w, c.op, c.line, c.word
	newVal := old + op.Val
	if op.Val == 0 {
		newVal = old + 1
	}
	stOp := op
	stOp.Val = newVal
	switch {
	case op.Scope <= trace.ScopeCTA:
		c.release()
		if s.Cfg.TrackValues {
			if e, hit := sm.L1.Peek(line); hit {
				e.SetValue(word, newVal)
			}
		}
		stOp.Kind = trace.Store
		sm.startStore(stOp)
		w.blocked = false
		w.opDone()
	case op.Scope == trace.ScopeGPM:
		c.release()
		gpm := s.gpmOf(sm.gpm)
		if s.Cfg.TrackValues {
			if e, hit := gpm.L2.Peek(line); hit {
				e.SetValue(word, newVal)
			}
		}
		gpm.unlockLine(line)
		stOp.Kind, stOp.Scope = trace.Store, trace.ScopeNone
		sm.startStore(stOp)
		w.blocked = false
		w.opDone()
	case c.viaGPUHome:
		h := c.g
		gpm := s.gpmOf(h)
		if s.Cfg.TrackValues {
			e, hit := gpm.L2.Peek(line)
			if !hit {
				e, _ = gpm.L2.Fill(line)
			}
			e.SetValue(word, newVal)
		}
		s.emit(Event{Kind: EvAtomicApply, GPM: h, SM: NoSM, Line: line,
			Addr: op.Addr, Scope: op.Scope, Op: op.Kind, Val: newVal})
		gpm.unlockLine(line)
		sm.finishGates(gateGPU)
		// Reply to the requester and write the result through.
		c.stage = stageSyncDone
		s.send(h, sm.gpm, msg.AtomicResp, c)
		s.sendStoreReqSys(h, s.Pages.SysHome(line), proto.GPURequester(int(gpm.gpu)), stOp, line, word, sm, gateSys)
	default:
		sh := c.g
		gpm := s.gpmOf(sh)
		if s.Cfg.TrackValues {
			e, hit := gpm.L2.Peek(line)
			if !hit {
				e, _ = gpm.L2.Fill(line)
				e.MergeFrom(gpm.DRAM.LineValues(line))
			}
			e.SetValue(word, newVal)
			gpm.DRAM.StoreValue(op.Addr, newVal)
		}
		gpm.DRAM.Write(s.Cfg.Net.Sizes.StorePayload, nil)
		s.emit(Event{Kind: EvAtomicApply, GPM: sh, SM: NoSM, Line: line,
			Addr: op.Addr, Scope: op.Scope, Op: op.Kind, Val: newVal})
		gpm.unlockLine(line)
		sm.finishGates(gateGPU | gateSys)
		c.stage = stageSyncDone
		s.send(sh, sm.gpm, msg.AtomicResp, c)
	}
}

// sysHomeStoreMCA is the multi-copy-atomic store path of the GPU-VI
// baseline, run on the store context c one L2 latency after it took its
// home line's lock. The line stays locked while invalidations fan out,
// and the store (and therefore the storing SM's release-visible
// completion) only finishes when every sharer has acknowledged. This is
// the latency HMG's non-multi-copy-atomic design eliminates.
func (s *System) sysHomeStoreMCA(c *opCtx) {
	gpm := s.gpmOf(c.g)
	var inv []proto.InvTarget
	if gpm.Dir != nil {
		var evR directory.Region
		var evT []proto.InvTarget
		if c.local {
			inv = gpm.Dir.LocalStore(c.line)
		} else {
			inv, evR, evT = gpm.Dir.RemoteStore(c.line, c.req)
		}
		// Eviction fan-out keeps the ack-free background path; only the
		// store's own invalidations require acks.
		s.sendInvs(gpm, evR, evT)
	}
	if len(inv) == 0 {
		c.mcaStoreDone()
		return
	}
	s.sendInvsAcked(gpm, gpm.Dir.Dir.RegionOf(c.line), inv, c)
}

// mcaStoreDone completes an MCA store once its invalidations are
// acknowledged: home-copy update, the DRAM write, and the line unlock.
func (c *opCtx) mcaStoreDone() {
	s, sh, op, line, word, sm, gates := c.s, c.g, c.op, c.line, c.word, c.sm, c.gates
	c.release()
	gpm := s.gpmOf(sh)
	if e, hit := gpm.L2.Peek(line); hit {
		if s.Cfg.TrackValues {
			e.SetValue(word, op.Val)
		}
	} else {
		gpm.poisonLine(line)
	}
	if s.Cfg.TrackValues {
		gpm.DRAM.StoreValue(op.Addr, op.Val)
	}
	gpm.DRAM.Write(s.Cfg.Net.Sizes.StorePayload, nil)
	s.emit(Event{Kind: EvHomeStore, GPM: sh, SM: NoSM, Line: line,
		Addr: op.Addr, Scope: op.Scope, Op: op.Kind, Val: op.Val})
	gpm.unlockLine(line)
	sm.finishGates(gates)
}
