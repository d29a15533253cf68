package gsim

// CARVE-style region classification (the related-work baseline the paper
// contrasts HMG against in Sections II-A and VII-A). Instead of tracking
// sharers, each system home classifies its regions as private,
// read-only, or read-write shared:
//
//   - private and read-only regions are cached freely with no coherence
//     traffic at all;
//   - the transition to read-write broadcasts one invalidation wave to
//     every other GPM (there is no sharer list to narrow it); each is an
//     ordinary background invalidation (sendInv, invDelivered);
//   - read-write regions are not cached by remote GPMs afterwards, so no
//     further invalidations are needed — at the cost of every subsequent
//     access crossing the network. fillL2 checks the class when a fill
//     lands, so a response the transition overtook does not install.
//
// The classification granule matches the home-interleaving granule, and
// a broadcast invalidates one granule.

import (
	"hmg/internal/directory"
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
// untargeted fan-out of background invalidations, tracked by the home's
// drain gates exactly like a directory's.
func (s *System) broadcastInv(home *GPM, l topo.Line) {
	first := topo.Line(uint64(classRegionOf(l)) * topo.HomeGranuleLines)
	for g := topo.GPMID(0); int(g) < s.Cfg.Topo.TotalGPMs(); g++ {
		if g != home.id {
			s.sendInv(home.id, g, first, false, nil)
		}
	}
}
