package gsim

import (
	"hmg/internal/cache"
	"hmg/internal/directory"
	"hmg/internal/msg"
	"hmg/internal/proto"
	"hmg/internal/topo"
	"hmg/internal/trace"
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
	line := c.line()
	scope := s.effScope(c.scope)
	l1OK := scope <= trace.ScopeCTA && s.cacheableAt(sm.gpm, line)
	c.setFlag(flagL1OK, l1OK)
	c.stage = stageLoadMiss
	if l1OK {
		if _, hit := sm.L1.Lookup(line); hit {
			v, _ := sm.L1.Value(line, c.word())
			if c.kind == trace.Atomic {
				// val holds the atomic's operand until it becomes the
				// result.
				c.val, c.stage = atomicResult(v, c.val), stageAtomicL1Hit
			} else {
				c.val, c.stage = v, stageLoadValue
			}
		}
	}
	s.Eng.ScheduleHandler(s.Cfg.L1Latency, c)
}

// loadFilled is the SM-side end of a load: install the response in the
// L1 when the scope permitted an L1 lookup, then complete the load.
func (c *opCtx) loadFilled(fill fillData) {
	if c.is(flagL1OK) {
		l1, line := c.warp().sm.L1, c.line()
		l1.Fill(line)
		if c.s.Cfg.TrackValues {
			l1.MergeFrom(line, fill)
		}
	}
	c.loadDone(valOf(fill, c.word()))
}

// loadDone completes a load with its value and releases its context: a
// warp load records its latency (plain loads), surfaces the value, and
// retires at its warp. An atomic's context runs the load path to fetch
// its line and hands the value to atomicApply instead.
func (c *opCtx) loadDone(v uint64) {
	if c.kind == trace.Atomic {
		c.atomicApply(v)
		return
	}
	s, w, addr, line, kind, scope, issued := c.s, c.warp(), c.addr, c.line(), c.kind, c.scope, c.issued()
	c.release()
	if kind == trace.Load {
		lat := uint64(s.Eng.Now() - issued)
		s.loadLatSum += lat
		if lat > s.maxLoadLat {
			s.maxLoadLat = lat
		}
	}
	s.emit(Event{Kind: EvLoadDone, GPM: w.sm.gpm, SM: w.sm.id, Warp: w.id,
		Line: line, Addr: addr,
		Scope: scope, Op: kind, Val: v})
	if kind == trace.LoadAcq {
		w.blocked = false
	}
	w.opDone()
}

// requesterL2Load handles the load carried by c at the requesting GPM's
// L2 slice and routes misses up the home hierarchy. The route is decided
// here, at request time. A load whose response may fill this GPM's slice
// merges in its MSHRs; any other load travels to its home on its own
// context and comes back on it.
func (s *System) requesterL2Load(c *opCtx) {
	g, line := c.warp().sm.gpm, c.line()
	scope := s.effScope(c.scope)
	sysHome, gpuHome := s.homes(g, line)
	hier := s.Cfg.Policy.Hierarchical
	c.setFrom(g)
	if g == sysHome || hier && g == gpuHome && scope <= trace.ScopeGPU {
		// This GPM is the load's home: its own system home, or the GPU
		// home node of a .gpu-or-weaker load. Table I takes no action for
		// a load by the home itself.
		c.setG(g)
		s.homeLoad(c)
		return
	}
	c.setG(sysHome)
	if hier && scope != trace.ScopeSys {
		// Hierarchical: route via the GPU home node.
		c.setG(gpuHome)
	}
	// The requester may fill its own L2 with the response for loads of
	// .gpm scope or weaker (the GPM-local slice is the .gpm coherence
	// point) on cacheable lines.
	fillHere := scope <= trace.ScopeGPM && s.cacheableAt(g, line)
	c.setFlag(flagFillHere, fillHere)
	if fillHere {
		// Probe the local slice before going out.
		c.stage = stageRequesterProbe
		s.Eng.ScheduleHandler(s.Cfg.L2Latency, c)
		return
	}
	c.stage = stageLoadReq
	s.send(g, c.g(), msg.LoadReq, c)
}

// fetchLine merges c in gpm's MSHRs as a waiter for c.line from dest,
// and starts the fetch when c is its first waiter: a read of gpm's own
// DRAM partition when dest is gpm itself, run on the MSHR entry, or
// else a LoadReq to dest on a request context, whose response fills
// gpm's slice.
func (s *System) fetchLine(gpm *GPM, dest topo.GPMID, c *opCtx) {
	m := gpm.fetch(fetchKey{c.line(), dest}, c)
	if m == nil {
		return // merged into an outstanding fetch
	}
	if dest == gpm.id {
		gpm.DRAM.ReadHandler(c.line(), m)
		return
	}
	r := s.newCtx(stageLoadReq)
	r.setFrom(gpm.id)
	r.setG(dest)
	r.setLine(c.line())
	r.up, r.flags = m, flagFillHere
	s.send(gpm.id, dest, msg.LoadReq, r)
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

// homeLoad starts the home step of the load carried by c, a load or
// request context from GPM c.from, at its home c.g: a GPU home node when
// c.g is not the line's system home (hierarchical policies only), and
// otherwise the system home.
func (s *System) homeLoad(c *opCtx) {
	if c.g() != s.Pages.SysHome(c.line()) {
		s.gpuHomeLoad(c)
		return
	}
	s.sysHomeLoad(c)
}

// gpuHomeLoad is the arrival of the load carried by c at GPU home node
// c.g, from a module of the same GPU (possibly the home itself). Each
// requester is recorded in the directory at request arrival, even when
// concurrent misses merge in the home's MSHRs; the system home will only
// ever learn the GPU.
func (s *System) gpuHomeLoad(c *opCtx) {
	gpm := s.gpmOf(c.g())
	if gpm.Dir != nil && c.from() != c.g() {
		//lint:allow eventemit sharer record of a load; the load surfaces as EvFill/EvLoadDone where its response lands
		evR, evict := gpm.Dir.RemoteLoad(c.line(), s.flatRequester(c.from(), c.g()))
		s.sendInvs(gpm, evR, evict, nil)
	}
	c.stage = stageHomeLoad
	s.Eng.ScheduleHandler(s.Cfg.L2Latency, c)
}

// sysHomeLoad is the arrival of the load carried by c at system home
// c.g.
func (s *System) sysHomeLoad(c *opCtx) {
	if gpm := s.gpmOf(c.g()); s.Cfg.Policy.MCA && gpm.lockHolder(c.line()) != c {
		// Multi-copy-atomicity: reads of a line with a store awaiting
		// invalidation acknowledgments must wait behind it. A .gpm
		// atomic at its own system home already holds the line, so its
		// fetch reads through instead of queueing behind itself.
		c.stage = stageMCALoadLocked
		gpm.lockLine(c.line(), c)
		return
	}
	s.sysHomeLoadUnlocked(c)
}

// sysHomeLoadUnlocked makes the system home's Table I remote-load
// transition for the load carried by c, recording requester c.from as a
// sharer when the response may fill its slice (under a hardware
// protocol; only those have a directory), or classifies the load under
// CARVE, which is flat. The L2 lookup follows one L2 latency on.
func (s *System) sysHomeLoadUnlocked(c *opCtx) {
	gpm := s.gpmOf(c.g())
	if gpm.Dir != nil && c.is(flagFillHere) {
		//lint:allow eventemit sharer record of a load; the load surfaces as EvFill/EvLoadDone where its response lands
		evR, evict := gpm.Dir.RemoteLoad(c.line(), s.flatRequester(c.from(), c.g()))
		s.sendInvs(gpm, evR, evict, nil)
	}
	if s.classes != nil {
		s.classifyLoad(c.line(), c.from())
	}
	c.stage = stageHomeLoad
	s.Eng.ScheduleHandler(s.Cfg.L2Latency, c)
}

// homeLoadAtL2 is the home step of the load carried by c one L2 latency
// after it reached home c.g: the home L2 lookup, then on a miss a merged
// fetch from the line's system home, which at the system home itself is
// a read of its DRAM. The fetch serves c when it fills.
func (s *System) homeLoadAtL2(c *opCtx) {
	gpm := s.gpmOf(c.g())
	if _, hit := gpm.L2.Lookup(c.line()); hit {
		c.served(gpm.L2.Values(c.line()))
		return
	}
	s.fetchLine(gpm, s.Pages.SysHome(c.line()), c)
}

// served answers the load carried by c with its line data at home c.g:
// a DataResp back to requester c.from, or, when the home is the
// requester itself, the load's completion.
func (c *opCtx) served(fill fillData) {
	if c.from() == c.g() {
		c.loadFilled(fill)
		return
	}
	c.setData(fill)
	c.stage = stageDataResp
	c.s.send(c.g(), c.from(), msg.DataResp, c)
}

// dramFilled completes the MSHR entry m of a home's DRAM read: install
// the line in the home's slice and serve the waiters the slice copy. The
// line it displaces sends no downgrade: in the benchmark sweep such
// downgrades raced re-fetches of their region and broke inclusion.
func (s *System) dramFilled(m *opCtx) {
	gpm, line := s.gpmOf(m.g()), m.line()
	var fill fillData
	if s.Cfg.TrackValues {
		fill = gpm.DRAM.LineValues(line)
	}
	victim, values := gpm.L2.Fill(line)
	gpm.L2.MergeFrom(line, fill)
	if victim.Valid {
		s.l2Displaced(m.g(), victim, values)
	}
	gpm.fetchDone(m, gpm.L2.Values(line))
}

// fillL2 installs a load response into an L2 slice when allowed. Under
// the optional Downgrade optimization (Section IV, off by default and in
// the paper's evaluation), a displaced clean remote line notifies its
// home so the sharer can be dropped before it costs an invalidation,
// once no line of its directory region is left in the slice.
func (s *System) fillL2(g topo.GPMID, line topo.Line, fill fillData, allowed bool) {
	if !allowed || s.gpmOf(g).mshr.poisoned(line) || s.Cfg.Policy.Classify && !s.cacheableAt(g, line) {
		// A poisoned fill was overtaken by an invalidation or store
		// while in flight, and under CARVE a fill's region may have
		// turned read-write since it was requested: serve the waiters
		// but do not cache it.
		return
	}
	l2 := s.gpmOf(g).L2
	victim, values := l2.Fill(line)
	if s.Cfg.TrackValues {
		l2.MergeFrom(line, fill)
	}
	s.emit(Event{Kind: EvFill, GPM: g, SM: NoSM, Line: line})
	if !victim.Valid || s.l2Displaced(g, victim, values) {
		return
	}
	if s.Cfg.Policy.Downgrade && s.Cfg.Policy.Hardware && !s.holdsRegion(g, victim.Line) {
		s.sendDowngrade(g, victim.Line)
	}
}

// l2Displaced reports victim, a valid line a fill displaced from GPM g's
// slice with its tracked values, and writes it back to its home when it
// is dirty (charged to the GPM's first SM; the kernel barrier waits on
// it). It returns whether it wrote back. Every fill that displaces a
// slice line, a requester's or a home's, comes here, so EvL2Evict
// counts the slice's evictions exactly.
func (s *System) l2Displaced(g topo.GPMID, victim cache.Entry, values fillData) bool {
	s.emit(Event{Kind: EvL2Evict, GPM: g, SM: NoSM, Line: victim.Line})
	if !victim.Dirty || !s.Cfg.WriteBack {
		return false
	}
	s.writeBackLine(g, s.SMs[s.Cfg.Topo.SM(g, 0)], victim.Line, values)
	return true
}

// holdsRegion reports whether GPM g's slice still holds a line of l's
// directory region. The home tracks sharers per region, so a clean
// eviction downgrades only once the region's last line has left.
func (s *System) holdsRegion(g topo.GPMID, l topo.Line) bool {
	gran := topo.Line(s.Cfg.Dir.GranLines)
	first := l &^ (gran - 1)
	l2 := s.gpmOf(g).L2
	for m := first; m < first+gran; m++ {
		if _, hit := l2.Peek(m); hit {
			return true
		}
	}
	return false
}

// sendDowngrade notifies the home node of a clean eviction so it can
// drop this GPM from the sharer set.
func (s *System) sendDowngrade(g topo.GPMID, line topo.Line) {
	_, home := s.homes(g, line)
	if home == g {
		return // the home itself holds no sharer entry for itself
	}
	req := proto.GPMRequester(int(g))
	if s.Cfg.Policy.Hierarchical {
		req = proto.GPMRequester(s.Cfg.Topo.LocalOf(g))
	}
	c := s.newCtx(stageDowngrade)
	c.setG(home)
	c.setLine(line)
	c.setFrom(g)
	c.setReq(req)
	s.downgrading++
	s.send(g, home, msg.Downgrade, c)
}

// ---------------------------------------------------------------------
// Stores
// ---------------------------------------------------------------------

// startStore begins a posted write-through store at the SM.
func (sm *SM) startStore(op trace.Op) {
	s := sm.sys
	line := s.lineOf(op.Addr)
	sm.gpuHomeGate.Start()
	sm.sysHomeGate.Start()
	s.emit(Event{Kind: EvStoreIssue, GPM: sm.gpm, SM: sm.id, Line: line,
		Addr: op.Addr, Scope: op.Scope, Op: op.Kind, Val: op.Val})
	// Update any L1 copy in place (write-through, no allocate).
	s.setHeld(sm.L1, line, s.wordOf(op.Addr), op.Val)
	c := s.newCtx(stageStartStore)
	c.owner = int32(sm.id)
	c.setOp(op)
	s.Eng.ScheduleHandler(s.Cfg.L1Latency, c)
}

// setHeld writes v to word of line in cache c when the run tracks values
// and c holds the line: a write updates the copies it passes in place.
func (s *System) setHeld(c *cache.Cache, line topo.Line, word uint16, v uint64) {
	if !s.Cfg.TrackValues {
		return
	}
	if _, hit := c.Peek(line); hit {
		//lint:allow eventemit the written value was emitted by the write's EvStoreIssue or EvAtomicApply
		c.SetValue(line, word, v)
	}
}

// storeAfterL1 is the SM-side step of the store carried by c one L1
// latency after issue: absorb it into the local slice under the
// write-back option, or write it through from the L2.
func (s *System) storeAfterL1(c *opCtx) {
	if s.Cfg.WriteBack && c.kind == trace.Store && c.scope <= trace.ScopeCTA {
		// Write-back option: a plain store that hits the local slice
		// dirties it; the flush machinery assumes the visibility
		// obligation, so the store's gates are released there
		// (stageStoreWB in opctx.go).
		c.stage = stageStoreWB
		s.Eng.ScheduleHandler(s.Cfg.L2Latency, c)
		return
	}
	s.l2Store(c)
}

// l2Store writes the store carried by c through from the requester's L2
// slice: update the slice copy when the slice is neither of the line's
// homes, then route the write to them.
func (s *System) l2Store(c *opCtx) {
	g := c.writer().gpm
	sysHome, gpuHome := s.homes(g, c.line())
	if g != sysHome && g != gpuHome {
		c.writeCopy(s.gpmOf(g))
	}
	s.routeWrite(c, g, sysHome, gpuHome)
}

// homes returns line's system home and the GPU home serving GPM g's GPU,
// which is the system home itself under flat policies.
func (s *System) homes(g topo.GPMID, line topo.Line) (sysHome, gpuHome topo.GPMID) {
	sysHome = s.Pages.SysHome(line)
	if !s.Cfg.Policy.Hierarchical {
		return sysHome, sysHome
	}
	return sysHome, s.Pages.GPUHome(s.Cfg.Topo.GPUOf(g), line)
}

// routeWrite sends the write carried by c, a write-through or a
// write-back, from GPM g toward its homes. Under hierarchical policies
// the GPU home applies it first and forwards it; flat policies, and the
// owner GPU where both homes coincide, go straight to the system home.
// Each home releases the SM's gate for its scope as it applies the
// write.
func (s *System) routeWrite(c *opCtx, g, sysHome, gpuHome topo.GPMID) {
	c.gates = gateGPU | gateSys
	switch {
	case g == sysHome:
		c.setG(g)
		c.flags |= flagLocal
		s.atSysHome(c)
	case g == gpuHome && gpuHome != sysHome:
		c.setG(g)
		c.setFrom(g)
		c.stage = stageGPUHomeStore
		s.Eng.ScheduleHandler(s.Cfg.L2Latency, c)
	case gpuHome != sysHome:
		c.setG(gpuHome)
		c.setFrom(g)
		c.stage = stageStoreReqGPUHome
		s.send(g, gpuHome, c.writeKind(), c)
	default:
		s.sendSysHome(c, g, s.flatRequester(g, sysHome))
	}
}

// writeKind is the message a write travels in: a StoreReq carrying one
// sector, or a WriteBack carrying the whole line.
func (c *opCtx) writeKind() msg.Kind {
	if c.is(flagWB) {
		return msg.WriteBack
	}
	return msg.StoreReq
}

// sendSysHome sends the write carried by c from GPM from to its system
// home, where it is applied for requester req.
func (s *System) sendSysHome(c *opCtx, from topo.GPMID, req proto.Requester) {
	to := s.Pages.SysHome(c.line())
	c.setG(to)
	c.stage = stageStoreReqSysHome
	c.setReq(req)
	s.send(from, to, c.writeKind(), c)
}

// atSysHome starts the system-home step of the write carried by c at its
// system home c.g: one L2 latency on, after taking the line's lock under
// multi-copy atomicity.
func (s *System) atSysHome(c *opCtx) {
	if s.Cfg.Policy.MCA {
		// Multi-copy atomicity: the store holds its home line until
		// every sharer has acknowledged its invalidation.
		c.stage = stageMCAStoreLocked
		s.gpmOf(c.g()).lockLine(c.line(), c)
		return
	}
	c.stage = stageSysHomeStore
	s.Eng.ScheduleHandler(s.Cfg.L2Latency, c)
}

// gpuHomeStore is the GPU-home step of the write carried by c, one L2
// latency after it reached GPU home c.g from GPM c.from: the Table I
// store transition for the requesting module, the home-copy update,
// then the forward to the system home on behalf of the whole GPU.
func (s *System) gpuHomeStore(c *opCtx) {
	gpm := s.gpmOf(c.g())
	s.storeTransition(gpm, proto.GPMRequester(s.Cfg.Topo.LocalOf(c.from())), c.from() == c.g(), c.line())
	c.writeCopy(gpm)
	if !c.is(flagWB) {
		s.emit(Event{Kind: EvGPUHomeStore, GPM: c.g(), SM: NoSM, Line: c.line(),
			Addr: c.addr, Scope: c.scope, Op: c.kind, Val: c.val})
	}
	c.writer().finishGates(c.gates & gateGPU)
	c.gates &^= gateGPU
	s.sendSysHome(c, c.g(), proto.GPURequester(int(gpm.gpu)))
}

// sysHomeStore is the system-home step of the write carried by c, one L2
// latency after it reached system home c.g: the store transition, then
// the write's end (storeDone).
func (s *System) sysHomeStore(c *opCtx) {
	s.storeTransition(s.gpmOf(c.g()), c.req(), c.is(flagLocal), c.line())
	c.storeDone()
}

// storeTransition makes the store transition for a write to line at home
// gpm and sends the invalidations it calls for. Under Table I a local
// store, by the home GPM itself, invalidates every sharer; a remote
// store by req invalidates the other sharers and records req, and the
// directory entry it allocates may evict a region whose sharers are
// invalidated too. Under CARVE the store classifies its region instead
// (flat, so req names the writing GPM).
func (s *System) storeTransition(gpm *GPM, req proto.Requester, local bool, line topo.Line) {
	if s.classes != nil {
		writer := gpm.id
		if !local {
			writer = topo.GPMID(req.ID)
		}
		if s.classifyStore(line, writer) {
			s.broadcastInv(gpm, line)
		}
	}
	if gpm.Dir == nil {
		return
	}
	region := gpm.Dir.Dir.RegionOf(line)
	if local {
		//lint:allow eventemit a write's directory transition; its invalidations emit EvInvDeliver where they land
		s.sendInvs(gpm, region, gpm.Dir.LocalStore(line), nil)
		return
	}
	//lint:allow eventemit a write's directory transition; its invalidations emit EvInvDeliver where they land
	inv, evR, evict := gpm.Dir.RemoteStore(line, req)
	s.sendInvs(gpm, region, inv, nil)
	s.sendInvs(gpm, evR, evict, nil)
}

// writeCopy applies the write carried by c to gpm's copy of its line:
// set the stored word, or merge a written-back line, when the slice
// holds the line, and otherwise poison any in-flight fill of it, which
// would install pre-write data.
func (c *opCtx) writeCopy(gpm *GPM) {
	_, hit := gpm.L2.Peek(c.line())
	switch {
	case !hit:
		gpm.poisonLine(c.line())
	case !c.s.Cfg.TrackValues:
	case c.is(flagWB):
		//lint:allow eventemit written-back values were emitted by their stores' EvStoreIssue
		gpm.L2.MergeFrom(c.line(), c.data())
	default:
		//lint:allow eventemit the stored value was emitted by the store's EvStoreIssue
		gpm.L2.SetValue(c.line(), c.word(), c.val)
	}
}

// writeDRAM writes the write carried by c to gpm's DRAM partition: one
// sector for a store, the whole line for a write-back.
func (c *opCtx) writeDRAM(gpm *GPM) {
	s := c.s
	if !c.is(flagWB) {
		if s.Cfg.TrackValues {
			//lint:allow eventemit the stored value was emitted by the store's EvStoreIssue; storeDone emits EvHomeStore
			gpm.DRAM.StoreValue(c.addr, c.val)
		}
		gpm.DRAM.Write(s.Cfg.Net.Sizes.StorePayload, nil)
		return
	}
	if s.Cfg.TrackValues {
		// A write-back's address is its line's base.
		base := c.addr
		//lint:allow determinism each word stores to its own address; per-word DRAM writes commute
		for w, v := range c.data() {
			//lint:allow eventemit written-back values were emitted by their stores' EvStoreIssue
			gpm.DRAM.StoreValue(base+topo.Addr(w)*4, v)
		}
	}
	gpm.DRAM.Write(s.Cfg.Topo.LineSize, nil)
}

// storeDone ends the write carried by c at its system home c.g, after
// its Table I transition (and, under MCA, every acknowledgment): the
// home-copy update and the DRAM write, EvHomeStore for a write-through,
// then the line unlock under MCA and the SM's remaining gates.
func (c *opCtx) storeDone() {
	s, gpm := c.s, c.s.gpmOf(c.g())
	c.writeCopy(gpm)
	c.writeDRAM(gpm)
	if !c.is(flagWB) {
		s.emit(Event{Kind: EvHomeStore, GPM: c.g(), SM: NoSM, Line: c.line(),
			Addr: c.addr, Scope: c.scope, Op: c.kind, Val: c.val})
	}
	line, sm, gates := c.line(), c.writer(), c.gates
	c.release()
	if s.Cfg.Policy.MCA {
		gpm.unlockLine(line)
	}
	sm.finishGates(gates)
}

// ---------------------------------------------------------------------
// Invalidations
// ---------------------------------------------------------------------

// An invalidation is one Inv message on one context, whoever sends it: a
// directory's fan-out (NHCC, HMG), an HMG GPU home's forward to its own
// sharers, GPU-VI's acknowledged invalidations and CARVE's broadcast
// all go out through sendInv and land in invDelivered.

// sendInvs sends an invalidation of a region from from's directory to
// each sharer of targets, GPM sharers first (Sharers.Pop's order), as
// children of up, or in the background when up is nil (sendInv).
func (s *System) sendInvs(from *GPM, region directory.Region, targets directory.Sharers, up *opCtx) {
	line := from.Dir.Dir.FirstLine(region)
	for !targets.IsEmpty() {
		id, isGPU := targets.Pop()
		s.sendInv(from.id, s.invDest(from, id, isGPU, line), line, isGPU, up)
	}
}

// sendInv sends one invalidation of the region starting at line from
// GPM from to dest, a GPU's home node that forwards it to its own
// sharers when forward is set (the HMG-only Table I transition). With
// a parent up, the invalidation is one of up's children, which up's
// pending counts. Without one it runs in the background, and from's
// drain gates count it until its whole fan-out has been delivered.
func (s *System) sendInv(from, dest topo.GPMID, line topo.Line, forward bool, up *opCtx) {
	c := s.newCtx(stageInvDeliver)
	c.setFrom(from)
	c.setG(dest)
	c.setLine(line)
	c.setFlag(flagForward, forward)
	if c.up = up; up != nil {
		up.pending++
	} else {
		intra := !forward && s.Cfg.Topo.SameGPU(from, dest)
		c.setFlag(flagIntra, intra)
		g := s.gpmOf(from)
		g.invAll.Start()
		if intra {
			g.invIntra.Start()
		}
	}
	s.send(from, dest, msg.Inv, c)
}

// invDest resolves sharer id of from's directory, a GPU id when isGPU,
// for a region starting at line: a GPM within from's GPU under
// hierarchical protocols and globally under flat ones, or a GPU's home
// node for line.
func (s *System) invDest(from *GPM, id int, isGPU bool, line topo.Line) topo.GPMID {
	switch {
	case isGPU:
		return s.Pages.GPUHome(topo.GPUID(id), line)
	case s.Cfg.Policy.Hierarchical:
		return s.Cfg.Topo.GPM(from.gpu, id)
	default:
		return topo.GPMID(id)
	}
}

// invDelivered runs when the invalidation carried by c reaches its
// target c.g: the target drops the region's lines from its slice and
// poisons their in-flight fills. The region is a directory region
// (every directory shares the configuration's granularity) or, under
// CARVE, a classification granule. Then a GPU-home target forwards it
// to its own sharers and waits for them; a background invalidation
// counts itself done at its sender; a forward counts itself against
// its parent in place; and an acknowledged invalidation sends its
// InvAck back to its parent, the MCA store.
func (s *System) invDelivered(c *opCtx) {
	dest, line := c.g(), c.line()
	d := s.gpmOf(dest)
	gran := s.Cfg.Dir.GranLines
	if s.Cfg.Policy.Classify {
		gran = topo.HomeGranuleLines
	}
	d.L2.InvalidateRegion(line, gran)
	d.poisonRegion(line, gran)
	s.emit(Event{Kind: EvInvDeliver, GPM: dest, SM: NoSM, Line: line, Aux: gran})
	if c.is(flagForward) {
		region := d.Dir.Dir.RegionOf(line)
		if fw := d.Dir.Invalidation(region); !fw.IsEmpty() {
			s.emit(Event{Kind: EvInvForward, GPM: dest, SM: NoSM, Line: line, Aux: fw.Count()})
			s.sendInvs(d, region, fw, c)
			return
		}
	}
	switch {
	case c.up == nil:
		c.invFinished()
	case c.up.stage == stageInvDeliver:
		c.childDone()
	default:
		c.stage = stageChildDone
		s.send(dest, c.from(), msg.InvAck, c)
	}
}

// invFinished ends a background invalidation whose whole fan-out has
// been delivered: release its context, then count it done at the
// sender.
func (c *opCtx) invFinished() {
	from, intra := c.s.gpmOf(c.from()), c.is(flagIntra)
	c.release()
	from.invAll.Finish()
	if intra {
		from.invIntra.Finish()
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
	if c.scope <= trace.ScopeCTA {
		// RMW through the L1: fetch the line if absent, modify locally,
		// write the result through as an ordinary store.
		sm.startLoad(c)
		return
	}
	c.setG(sm.gpm)
	c.stage = stageAtomicLock
	if c.scope > trace.ScopeGPM {
		sm.gpuHomeGate.Start()
		sm.sysHomeGate.Start()
		c.stage = stageAtomicRoute
	}
	s.Eng.ScheduleHandler(s.Cfg.L1Latency, c)
}

// atomicRoute sends a .gpu or .sys atomic to the home node of its scope
// one L1 latency after issue.
func (s *System) atomicRoute(c *opCtx) {
	sm, line := c.warp().sm, c.line()
	home := s.Pages.SysHome(line)
	if c.scope == trace.ScopeGPU && s.Cfg.Policy.Hierarchical {
		home = s.Pages.GPUHome(sm.gpu, line)
	}
	c.setG(home)
	c.stage = stageAtomicLock
	s.send(sm.gpm, home, msg.AtomicReq, c)
}

// atomicAtL2 performs the atomic carried by c at GPM c.g one L2 latency
// after it took its line lock. At a home node the atomic makes a
// store's transition first (storeTransition). The read-modify-write then
// applies to the slice copy, fetching the line first when the slice
// misses: a .gpm atomic through the normal hierarchy, a GPU home from
// the system home, and the system home from its DRAM.
func (s *System) atomicAtL2(c *opCtx) {
	sm, line, gpm := c.warp().sm, c.line(), s.gpmOf(c.g())
	if c.scope > trace.ScopeGPM {
		s.storeTransition(gpm, s.flatRequester(sm.gpm, gpm.id), sm.gpm == gpm.id, line)
	}
	if _, hit := gpm.L2.Lookup(line); hit {
		v, _ := gpm.L2.Value(line, c.word())
		c.atomicApply(v)
		return
	}
	if c.scope == trace.ScopeGPM {
		s.requesterL2Load(c)
		return
	}
	c.stage = stageLoadFill
	s.fetchLine(gpm, s.Pages.SysHome(line), c)
}

// atomicResult is the value an atomic with operand v leaves in a word
// that held old: old plus v, or old plus one for a zero operand.
func atomicResult(old, v uint64) uint64 {
	if v == 0 {
		return old + 1
	}
	return old + v
}

// atomicApply completes the read-modify-write of the atomic carried by
// c on old, the value its line held.
func (c *opCtx) atomicApply(old uint64) { c.atomicWrite(atomicResult(old, c.val)) }

// atomicWrite completes the atomic carried by c with its result newVal.
// A .cta or .gpm atomic writes its result through as a plain store and
// resumes its warp at once. At a home node the atomic releases its line
// and replies to the requester; a GPU home also writes the result
// through to the system home.
func (c *opCtx) atomicWrite(newVal uint64) {
	s, w, line, word := c.s, c.warp(), c.line(), c.word()
	sm := w.sm
	op := c.op()
	stOp := op
	stOp.Val = newVal
	switch {
	case op.Scope <= trace.ScopeCTA:
		c.release()
		s.setHeld(sm.L1, line, word, newVal)
		stOp.Kind = trace.Store
		sm.startStore(stOp)
		w.blocked = false
		w.opDone()
	case op.Scope == trace.ScopeGPM:
		c.release()
		gpm := s.gpmOf(sm.gpm)
		s.setHeld(gpm.L2, line, word, newVal)
		gpm.unlockLine(line)
		stOp.Kind, stOp.Scope = trace.Store, trace.ScopeNone
		sm.startStore(stOp)
		w.blocked = false
		w.opDone()
	case c.g() != s.Pages.SysHome(line):
		// At a GPU home node.
		h := c.g()
		gpm := s.gpmOf(h)
		s.setHeld(gpm.L2, line, word, newVal)
		s.emit(Event{Kind: EvAtomicApply, GPM: h, SM: NoSM, Line: line,
			Addr: op.Addr, Scope: op.Scope, Op: op.Kind, Val: newVal})
		gpm.unlockLine(line)
		sm.finishGates(gateGPU)
		// Reply to the requester and write the result through.
		c.stage = stageSyncDone
		s.send(h, sm.gpm, msg.AtomicResp, c)
		st := s.newCtx(stageNone)
		st.owner, st.gates = int32(sm.id), gateSys
		st.setOp(stOp)
		s.sendSysHome(st, h, proto.GPURequester(int(gpm.gpu)))
	default:
		sh := c.g()
		gpm := s.gpmOf(sh)
		s.setHeld(gpm.L2, line, word, newVal)
		if s.Cfg.TrackValues {
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
	gpm := s.gpmOf(c.g())
	var inv, evict directory.Sharers
	var evR directory.Region
	if c.is(flagLocal) {
		inv = gpm.Dir.LocalStore(c.line())
	} else {
		inv, evR, evict = gpm.Dir.RemoteStore(c.line(), c.req())
	}
	// Eviction fan-out keeps the ack-free background path; only the
	// store's own invalidations require acks.
	s.sendInvs(gpm, evR, evict, nil)
	s.sendInvs(gpm, gpm.Dir.Dir.RegionOf(c.line()), inv, c)
	if c.pending == 0 {
		c.storeDone()
	}
}
