package topo

import (
	"fmt"
	"math"
	"math/bits"
)

// MaxPages caps the pages a PageMap can place: every placed page must
// lie below it. Generated traces number their pages densely from 0, so
// the cap only turns a stray address in a decoded trace into an error
// (gsim's System.Run checks it up front) instead of a table sized by a
// 64-bit address. At the default 2 MiB page it admits 32 TiB of
// simulated memory.
const MaxPages Page = 1 << 24

// PageMap tracks page-to-home-GPM assignments under first-touch
// placement, the policy the paper inherits from MCM-GPU and NUMA-aware
// multi-GPU work to maximize locality: each page is placed on the GPM
// that first accesses it (or on the GPM a trace's placement hint
// names). The GPM that owns a page holds its backing DRAM; the system
// home node for every line of the page is that GPM.
//
// The map is a dense table indexed by page, so every lookup on the
// simulator's datapath is a bounds check and a load. Reserve sizes it
// before a run; Touch grows it only for direct callers that place pages
// beyond the reserved range.
type PageMap struct {
	topo Topology
	// pageShift and lineShift are log2 of the page and line sizes.
	pageShift, lineShift uint8
	// owner holds each placed page's owner GPM plus one, indexed by
	// page; zero marks an unplaced page.
	owner []int32
	// placed counts the nonzero owner entries.
	placed int
}

// Reset empties m and binds it to topology t, which must be valid
// (Topology.Validate) and have fewer than math.MaxInt32 GPMs; the zero
// PageMap is ready for it. It keeps the table: every page it covered
// stays reserved, now unplaced.
func (m *PageMap) Reset(t Topology) {
	if t.TotalGPMs() >= math.MaxInt32 {
		panic(fmt.Sprintf("topo: %d GPMs overflow the page table's owner ids", t.TotalGPMs()))
	}
	clear(m.owner)
	*m = PageMap{
		topo:      t,
		pageShift: uint8(bits.TrailingZeros64(uint64(t.PageSize))),
		lineShift: uint8(bits.TrailingZeros64(uint64(t.LineSize))),
		owner:     m.owner,
	}
}

// Topology returns the topology this map was built for.
func (m *PageMap) Topology() Topology { return m.topo }

// Pages returns the number of pages that have been placed.
func (m *PageMap) Pages() int { return m.placed }

// Reserve sizes the table for pages 0 through n-1, keeping every
// placement, so that no later Touch of those pages allocates. It panics
// if n exceeds MaxPages.
func (m *PageMap) Reserve(n Page) {
	if n > MaxPages {
		panic(fmt.Sprintf("topo: Reserve of %d pages beyond the %d-page limit", n, MaxPages))
	}
	if n > Page(len(m.owner)) {
		m.resize(n)
	}
}

// grow makes room for page p on a Touch beyond the reserved range,
// doubling the table. It panics if p is at or beyond MaxPages.
func (m *PageMap) grow(p Page) {
	if p >= MaxPages {
		panic(fmt.Sprintf("topo: page %d beyond the %d-page limit", p, MaxPages))
	}
	m.resize(min(max(p+1, 2*Page(len(m.owner)), 64), MaxPages))
}

// resize reallocates the table to n pages, keeping every placement.
//
//lint:allow hotalloc sizing, not steady state: System.Run reserves every page its trace names before simulating, so a Touch during a run never grows the table; growth serves direct callers that Touch before any Run, doubling
func (m *PageMap) resize(n Page) {
	owner := make([]int32, n)
	copy(owner, m.owner)
	m.owner = owner
}

// Touch resolves the owner GPM of the page containing addr, placing the
// page on accessor, the GPM performing the access, on first access.
func (m *PageMap) Touch(a Addr, accessor GPMID) GPMID {
	p := Page(uint64(a) >> m.pageShift)
	if p >= Page(len(m.owner)) {
		m.grow(p)
	} else if o := m.owner[p]; o != 0 {
		return GPMID(o - 1)
	}
	m.owner[p] = int32(accessor) + 1
	m.placed++
	return accessor
}

// Owner returns the owner GPM of the page containing addr and whether the
// page has been placed.
func (m *PageMap) Owner(a Addr) (GPMID, bool) {
	p := Page(uint64(a) >> m.pageShift)
	if p < Page(len(m.owner)) {
		if o := m.owner[p]; o != 0 {
			return GPMID(o - 1), true
		}
	}
	return 0, false
}

// SysHome returns the system home node for a line: the owner GPM of its
// page. It panics if the page has not been placed; simulation datapaths
// always Touch before routing.
func (m *PageMap) SysHome(l Line) GPMID {
	p := Page(uint64(l) >> (m.pageShift - m.lineShift))
	if p < Page(len(m.owner)) {
		if o := m.owner[p]; o != 0 {
			return GPMID(o - 1)
		}
	}
	panic(fmt.Sprintf("topo: SysHome of unplaced line %#x", uint64(l)))
}

// GPUHome returns the GPM that serves as GPU home node for line l within
// GPU gpu, accounting for page ownership: inside the owner GPU the system
// home node itself is the GPU home node, so cached copies and the
// authoritative copy coincide.
func (m *PageMap) GPUHome(gpu GPUID, l Line) GPMID {
	sys := m.SysHome(l)
	if m.topo.GPUOf(sys) == gpu {
		return sys
	}
	return m.topo.GPUHome(gpu, l)
}
