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
//   - on dirty-line evictions.
//
// A write-back is a write-through carrying a whole line in a WriteBack
// message: it takes the same route and, at each home, the same Table I
// store transition (routeWrite and storeTransition in access.go), which
// records the writer as a sharer. The paper allows an evicting writer to
// go untracked; the model keeps it tracked, because a directory entry
// covers a region whose other lines the writer may still cache, and a
// flushed line stays in its slice. Write-backs emit no EvGPUHomeStore or
// EvHomeStore: their values surfaced as their stores' EvStoreIssue.
//
// Synchronizing stores always write through, preserving forward
// progress. All flushes are tracked by the issuing SM's store gates, so
// releases and kernel barriers wait for them exactly as they wait for
// write-throughs.

import "hmg/internal/topo"

// tryWriteBackHit attempts to absorb a plain store into the local L2
// slice. It returns true when absorbed; the caller then releases the
// store's gates (the flush mechanism takes over the visibility
// obligation).
func (s *System) tryWriteBackHit(g topo.GPMID, line topo.Line, word uint16, val uint64) bool {
	l2 := s.gpmOf(g).L2
	e, hit := l2.Lookup(line)
	if !hit {
		return false
	}
	//lint:allow eventemit absorption is covered by the caller's EvStoreIssue; the write-back that flushes the line emits no home event
	e.Dirty = true
	if s.Cfg.TrackValues {
		//lint:allow eventemit same absorption; the value surfaced in the caller's EvStoreIssue
		l2.SetValue(line, word, val)
	}
	return true
}

// flushDirtySlice writes every dirty line of one GPM's L2 slice back to
// its home hierarchy, in set/way order, charging the given SM's store
// gates.
func (s *System) flushDirtySlice(g topo.GPMID, sm *SM) {
	l2 := s.gpmOf(g).L2
	s.flushBuf = l2.FlushDirty(s.flushBuf[:0])
	for _, e := range s.flushBuf {
		s.writeBackLine(g, sm, e.Line, l2.Values(e.Line))
	}
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

// writeBackLine sends one dirty line of GPM g toward its homes, charging
// sm's store gates. The write-back takes the route and the home steps
// of a write-through (routeWrite), carrying the line whole.
//
//lint:allow hotalloc write-back data snapshot; value-tracking configurations only
func (s *System) writeBackLine(g topo.GPMID, sm *SM, line topo.Line, data fillData) {
	sm.gpuHomeGate.Start()
	sm.sysHomeGate.Start()
	c := s.newCtx(stageNone)
	c.owner, c.flags = int32(sm.id), flagWB
	c.setLine(line)
	if s.Cfg.TrackValues {
		// A flushed line stays in its slice, whose stores go on
		// writing into its values, so the write-back carries a
		// snapshot.
		snap := make(fillData, len(data))
		//lint:allow determinism word-keyed map copy; every word is written to a distinct key, so order cannot matter
		for w, v := range data {
			snap[w] = v
		}
		c.setData(snap)
	}
	sysHome, gpuHome := s.homes(g, line)
	s.routeWrite(c, g, sysHome, gpuHome)
}
