// Package check is the protocol conformance harness: a runtime invariant
// checker that hooks the simulator's event stream, and a seeded litmus
// fuzzer (litmus.go) probing the scoped memory model across all
// protocols. Both exist to catch coherence bugs — including ones
// deliberately injected through proto.Mutation — before they corrupt a
// paper figure silently.
package check

import (
	"fmt"
	"strings"

	"hmg/internal/cache"
	"hmg/internal/directory"
	"hmg/internal/engine"
	"hmg/internal/gsim"
	"hmg/internal/topo"
)

const (
	// trailLen is how many recent events each violation carries.
	trailLen = 32
	// maxViolations caps recording; a broken protocol violates invariants
	// at every boundary and unbounded recording would swamp memory.
	maxViolations = 64
)

// Violation is one invariant breach, stamped with the cycle it was
// detected at and the trail of events leading up to it.
type Violation struct {
	Cycle     engine.Cycle
	Invariant string
	Detail    string
	Trail     []gsim.Event
}

// String renders the violation with its event trail.
func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "@%d %s: %s", uint64(v.Cycle), v.Invariant, v.Detail)
	for _, ev := range v.Trail {
		b.WriteString("\n    ")
		b.WriteString(ev.String())
	}
	return b.String()
}

// wordKey names one tracked word: the line and the word index within it.
// Sub-word aliasing is impossible at this granularity, so the legal-value
// sets never produce false fabrication reports.
type wordKey struct {
	line topo.Line
	word uint16
}

// Checker observes a system's event stream and verifies protocol
// invariants: no load returns a value nobody stored, the system
// quiesces at kernel boundaries, cache and directory bookkeeping stays
// consistent, policies that forbid remote caching see none, and — for
// hardware protocols — every cached remote line is tracked by the
// directories that must know about it (inclusion) and agrees with the
// home memory at quiescence (value coherence).
//
// The checker is strictly read-only: it inspects caches and directories
// through Peek/ForEach only (never Lookup, which touches LRU state), so
// an attached checker cannot change any simulation outcome.
type Checker struct {
	sys *gsim.System

	legal map[wordKey]map[uint64]bool

	// dirSnaps holds per-GPM directory sharer snapshots for the duration
	// of one quiescent scan (taken with ForEach so the scan itself never
	// perturbs directory LRU state).
	dirSnaps []map[directory.Region]directory.Sharers

	ring [trailLen]gsim.Event
	seen uint64 // total events observed

	violations []Violation
	truncated  bool
}

// Attach hooks a checker into a system's event stream after any sink
// already attached (see gsim.System.Observe). It must be called before
// Run.
func Attach(sys *gsim.System) *Checker {
	c := &Checker{sys: sys, legal: make(map[wordKey]map[uint64]bool)}
	sys.Observe(c.onEvent)
	return c
}

// Violations returns everything detected so far.
func (c *Checker) Violations() []Violation { return c.violations }

// Truncated reports whether violations were dropped after the cap.
func (c *Checker) Truncated() bool { return c.truncated }

// Err summarizes the violations as an error, nil if there are none.
func (c *Checker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	return fmt.Errorf("check: %d invariant violation(s), first: %s",
		len(c.violations), c.violations[0].String())
}

func (c *Checker) report(invariant, detail string) {
	if len(c.violations) >= maxViolations {
		c.truncated = true
		return
	}
	n := c.seen
	if n > trailLen {
		n = trailLen
	}
	trail := make([]gsim.Event, 0, n)
	for i := uint64(0); i < n; i++ {
		trail = append(trail, c.ring[(c.seen-n+i)%trailLen])
	}
	c.violations = append(c.violations, Violation{
		Cycle:     c.sys.Eng.Now(),
		Invariant: invariant,
		Detail:    detail,
		Trail:     trail,
	})
}

func (c *Checker) onEvent(ev gsim.Event) {
	c.ring[c.seen%trailLen] = ev
	c.seen++
	switch ev.Kind {
	case gsim.EvStoreIssue, gsim.EvHomeStore, gsim.EvGPUHomeStore, gsim.EvAtomicApply:
		c.addLegal(ev.Addr, ev.Val)
	case gsim.EvLoadDone:
		c.checkLoad(ev)
	case gsim.EvKernelDrained:
		c.scanQuiescent(ev.Aux)
	case gsim.EvKernelLaunch, gsim.EvInvDeliver, gsim.EvInvForward, gsim.EvFill,
		gsim.EvL2Evict, gsim.EvAcquire, gsim.EvDowngrade:
		// Recorded in the event trail above; these kinds carry no
		// per-event invariant yet. Listing them explicitly means a new
		// event kind fails the exhaustive lint until someone decides
		// what the checker owes it.
	}
}

func (c *Checker) addLegal(a topo.Addr, v uint64) {
	k := wordKey{c.sys.Cfg.Topo.LineOf(a), cache.WordOf(a, c.sys.Cfg.Topo.LineSize)}
	set := c.legal[k]
	if set == nil {
		set = make(map[uint64]bool)
		c.legal[k] = set
	}
	set[v] = true
}

// checkLoad asserts value soundness: a load may observe the initial
// value (0) or any value some store or atomic has produced for that
// word — never a value nobody wrote. Stale observations are legal under
// the non-multi-copy-atomic model; fabricated ones never are.
func (c *Checker) checkLoad(ev gsim.Event) {
	if !c.sys.Cfg.TrackValues || ev.Val == 0 {
		return
	}
	k := wordKey{ev.Line, cache.WordOf(ev.Addr, c.sys.Cfg.Topo.LineSize)}
	if !c.legal[k][ev.Val] {
		c.report("value-fabrication",
			fmt.Sprintf("load of %#x at sm %d observed %d, never stored to that word",
				uint64(ev.Addr), int(ev.SM), ev.Val))
	}
}

// scanQuiescent runs the global-state invariants at a drained kernel
// boundary, the protocol's quiescent point.
func (c *Checker) scanQuiescent(kernel int) {
	s := c.sys

	// Quiescence: the drained event means no posted store is short of
	// its system home and no background invalidation is undelivered.
	if stores, invs := s.PendingDrains(); stores != 0 || invs != 0 {
		c.report("quiescence",
			fmt.Sprintf("kernel %d drained with %d posted stores and %d invalidations outstanding",
				kernel, stores, invs))
	}
	if n := s.OutstandingFetches(); n != 0 {
		c.report("quiescence",
			fmt.Sprintf("kernel %d drained with %d line fetches in flight", kernel, n))
	}
	// Every pooled op, continuation, and route context is back in its
	// pool, so none was leaked or is still reachable after release. Only
	// in-flight downgrade notices, which the boundary does not wait
	// for, may hold contexts: their own and at most one route each.
	if live, dg := s.LiveContexts(), s.DowngradesInFlight(); live > 2*dg {
		c.report("quiescence",
			fmt.Sprintf("kernel %d drained with %d pooled contexts live (%d downgrades in flight)", kernel, live, dg))
	}

	// Per-directory sharer-set snapshots, taken once so the per-line
	// inclusion checks below are O(1) lookups.
	c.dirSnaps = make([]map[directory.Region]directory.Sharers, len(s.GPMs))
	for gi, g := range s.GPMs {
		if g.Dir == nil {
			continue
		}
		snap := make(map[directory.Region]directory.Sharers)
		g.Dir.Dir.ForEach(func(e *directory.Entry) {
			snap[e.Region] = e.Sharers
		})
		c.dirSnaps[gi] = snap
		// Directory capacity bookkeeping: the walk count must agree with
		// the live counter and fit the configured capacity.
		if len(snap) != g.Dir.Dir.Live() {
			c.report("directory-bookkeeping",
				fmt.Sprintf("gpm %d directory walk found %d entries, Live() reports %d",
					gi, len(snap), g.Dir.Dir.Live()))
		}
		if len(snap) > s.Cfg.Dir.Entries {
			c.report("directory-capacity",
				fmt.Sprintf("gpm %d directory holds %d entries, capacity %d",
					gi, len(snap), s.Cfg.Dir.Entries))
		}
	}

	maxLines := s.Cfg.L2Slice.CapacityBytes / s.Cfg.L2Slice.LineSize
	for gi, g := range s.GPMs {
		gid := topo.GPMID(gi)
		walked := 0
		g.L2.ForEach(func(e *cache.Entry) {
			walked++
			if e.Dirty {
				c.report("dirty-at-quiescence",
					fmt.Sprintf("gpm %d line %#x still dirty at kernel %d boundary",
						gi, uint64(e.Line), kernel))
			}
			c.checkLine(gid, e)
		})
		// Cache capacity bookkeeping.
		if walked != g.L2.Lines() {
			c.report("cache-bookkeeping",
				fmt.Sprintf("gpm %d L2 walk found %d valid lines, Lines() reports %d",
					gi, walked, g.L2.Lines()))
		}
		if walked > maxLines {
			c.report("cache-capacity",
				fmt.Sprintf("gpm %d L2 holds %d lines, capacity %d", gi, walked, maxLines))
		}
	}
}

// checkLine runs the per-cached-line invariants: remote-caching policy,
// directory inclusion, and value coherence against the home memory.
func (c *Checker) checkLine(g topo.GPMID, e *cache.Entry) {
	s := c.sys
	p := s.Cfg.Policy
	t := s.Cfg.Topo
	line := e.Line
	owner, placed := s.Pages.Owner(t.LineAddr(line))
	if !placed {
		c.report("unplaced-line",
			fmt.Sprintf("gpm %d caches line %#x whose page was never placed", int(g), uint64(line)))
		return
	}

	// Policies without remote-GPU caching must never hold another GPU's
	// lines (the defining property of the NoRemoteCaching baseline).
	if !p.CacheRemoteGPU && t.GPUOf(owner) != t.GPUOf(g) {
		c.report("remote-caching-forbidden",
			fmt.Sprintf("gpm %d caches line %#x owned by gpm %d on another GPU under %v",
				int(g), uint64(line), int(owner), p.Kind))
	}

	// The remaining invariants are precise-sharer-tracking properties:
	// only hardware directory protocols promise them.
	if !p.Hardware || p.Classify {
		return
	}

	if owner != g {
		c.checkInclusion(g, owner, line)
	}

	// Value coherence: at quiescence every surviving copy agrees with
	// the home memory word-for-word — invalidations only delete copies,
	// so a survivor that diverges means an invalidation was lost.
	if s.Cfg.TrackValues {
		for w, v := range s.GPMs[g].L2.Values(line) {
			home := s.GPMs[owner].DRAM.LoadValue(t.LineAddr(line) + topo.Addr(uint64(w)*cache.WordSize))
			if v != home {
				c.report("value-coherence",
					fmt.Sprintf("gpm %d line %#x word %d holds %d, home gpm %d has %d",
						int(g), uint64(line), w, v, int(owner), home))
			}
		}
	}
}

// checkInclusion asserts directory sharer-set soundness for one remotely
// cached line: whoever caches it must be visible to the directory
// hierarchy that would have to invalidate it.
//
//   - Flat protocols: the system home tracks the caching GPM globally.
//   - Hierarchical, requester on the owner GPU: the system home tracks
//     the GPM by its local module index.
//   - Hierarchical, requester on another GPU: the system home tracks the
//     whole GPU, and the requester GPU's home node tracks the GPM by its
//     local index (unless the GPM is that home node itself).
func (c *Checker) checkInclusion(g, owner topo.GPMID, line topo.Line) {
	t := c.sys.Cfg.Topo
	if !c.sys.Cfg.Policy.Hierarchical {
		c.requireSharer(owner, line, directory.GPMBit(int(g)), g)
		return
	}
	if t.SameGPU(owner, g) {
		c.requireSharer(owner, line, directory.GPMBit(t.LocalOf(g)), g)
		return
	}
	gpu := t.GPUOf(g)
	c.requireSharer(owner, line, directory.GPUBit(int(gpu)), g)
	gpuHome := c.sys.Pages.GPUHome(gpu, line)
	if gpuHome != g {
		c.requireSharer(gpuHome, line, directory.GPMBit(t.LocalOf(g)), g)
	}
}

// requireSharer resolves through the scan's directory snapshots rather
// than the directory's Lookup (which mutates LRU).
func (c *Checker) requireSharer(home topo.GPMID, line topo.Line, bit directory.Sharers, cacher topo.GPMID) {
	d := c.sys.GPMs[home].Dir
	if d == nil {
		return
	}
	sharers, tracked := c.dirSnaps[home][d.Dir.RegionOf(line)]
	if !tracked || !sharers.Has(bit) {
		c.report("inclusion",
			fmt.Sprintf("gpm %d caches line %#x but directory at gpm %d does not track sharer %v (entry present: %v)",
				int(cacher), uint64(line), int(home), bit, tracked))
	}
}
