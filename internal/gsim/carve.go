package gsim

// CARVE-style region classification (the related-work baseline the paper
// contrasts HMG against in Sections II-A and VII-A). Instead of tracking
// sharers, each system home classifies its regions as private,
// read-only, or read-write shared:
//
//   - private and read-only regions are cached freely with no coherence
//     traffic at all;
//   - the transition to read-write broadcasts one invalidation wave to
//     every other GPM (there is no sharer list to narrow it);
//   - read-write regions are not cached by remote GPMs afterwards, so no
//     further invalidations are needed — at the cost of every subsequent
//     access crossing the network.
//
// The classification granule matches the home-interleaving granule.

import (
	"hmg/internal/directory"
	"hmg/internal/msg"
	"hmg/internal/topo"
)

type regionClass uint8

const (
	classUntouched regionClass = iota
	classPrivate
	classReadOnly
	classReadWrite
)

// classEntry is one classified region at its system home.
type classEntry struct {
	state regionClass
	owner topo.GPMID // first accessor, meaningful in classPrivate
}

func classRegionOf(l topo.Line) directory.Region {
	return directory.Region(uint64(l) / topo.HomeGranuleLines)
}

// classOf returns the classification of a line at its system home
// (classUntouched when never classified).
func (s *System) classOf(l topo.Line) regionClass {
	return s.classes[classRegionOf(l)].state
}

// classifyLoad updates a region's class for a load by accessor, at the
// region's system home.
func (s *System) classifyLoad(l topo.Line, accessor topo.GPMID) {
	r := classRegionOf(l)
	e := s.classes[r]
	switch e.state {
	case classUntouched:
		s.classes[r] = classEntry{state: classPrivate, owner: accessor}
	case classPrivate:
		if e.owner != accessor {
			s.classes[r] = classEntry{state: classReadOnly}
		}
	case classReadOnly, classReadWrite:
		// Terminal for loads: reads never demote a classification.
	}
}

// classifyStore updates a region's class for a store by accessor, at
// the region's system home, and reports whether the transition to
// read-write requires a broadcast invalidation.
func (s *System) classifyStore(l topo.Line, accessor topo.GPMID) bool {
	r := classRegionOf(l)
	e := s.classes[r]
	switch e.state {
	case classUntouched:
		s.classes[r] = classEntry{state: classPrivate, owner: accessor}
		return false
	case classPrivate:
		if e.owner == accessor {
			return false
		}
		s.classes[r] = classEntry{state: classReadWrite}
		return true
	case classReadOnly:
		s.classes[r] = classEntry{state: classReadWrite}
		return true
	default:
		return false
	}
}

// broadcastInv invalidates a region in every other GPM's L2 — CARVE's
// untargeted fan-out, tracked by the home's invalidation gates exactly
// like directory-generated invalidations.
func (s *System) broadcastInv(home *GPM, l topo.Line) {
	first := topo.Line(uint64(classRegionOf(l)) * topo.HomeGranuleLines)
	for g := 0; g < s.Cfg.Topo.TotalGPMs(); g++ {
		dest := topo.GPMID(g)
		if dest == home.id {
			continue
		}
		intra := s.Cfg.Topo.SameGPU(home.id, dest)
		home.invAll.Start()
		if intra {
			home.invIntra.Start()
		}
		c := s.newCtx(stageCarveInv)
		c.setFrom(home.id)
		c.setG(dest)
		c.setLine(first)
		c.setFlag(flagIntra, intra)
		s.send(home.id, dest, msg.Inv, c)
	}
}

// carveInvDelivered applies one broadcast invalidation at dest and
// counts it done at the home.
func (s *System) carveInvDelivered(home, dest topo.GPMID, first topo.Line, intra bool) {
	s.gpmOf(dest).L2.InvalidateRegion(first, topo.HomeGranuleLines)
	s.emit(Event{Kind: EvInvDeliver, GPM: dest, SM: NoSM, Line: first, Aux: topo.HomeGranuleLines})
	h := s.gpmOf(home)
	h.invAll.Finish()
	if intra {
		h.invIntra.Finish()
	}
}
