package gsim

import (
	"math/bits"

	"hmg/internal/topo"
)

// A GPM's miss-status holding registers.
//
// Every L2 miss that leaves a GPM merges in its MSHRs: an MSHR entry is
// a pooled opCtx (stageMSHRFill) holding the waiters merged on one
// outstanding fetch of a line toward one destination — its line and
// from are the fetch's key — as an intrusive list: the entry's up holds
// its newest waiter, and each waiter links to the one before it
// through opCtx.next, so merging never allocates; fetchDone reverses
// the list once and runs the waiters in arrival order. A waiter waits on
// one trigger at a time, so it is on no other list meanwhile. The GPM
// keeps the entries in one table keyed by line. A line's slot exists
// exactly while at least one fetch of the line is outstanding, and holds
// the line's entries — one per destination, so at most three: its own
// DRAM, the GPU home and the system home. Each entry of the line
// carries the line's poisoned flag, which therefore lives exactly as
// long as the line's fetches do.
//
// The table uses open addressing with linear probing and backward-shift
// deletion: a lookup probes from the line's home slot to the line or a
// free slot, never iterates over the table, and never allocates. New
// sizes it from the configuration (mshrSlotsFor); past three quarters
// full it doubles, a fallback no pinned workload reaches.

// mshrSlotsFor returns the slot count New gives each GPM's MSHR table:
// room, at three quarters load, for one warp's worth of outstanding
// lines (MaxWarpInflight) from each of the GPM's SMs. That covers the
// 166–384 lines the perf matrix and the Figs. 8–11 campaign keep
// outstanding at a GPM at their peaks (TestMSHRTablesDoNotGrow).
func mshrSlotsFor(cfg Config) int {
	lines := cfg.Topo.SMsPerGPM * cfg.MaxWarpInflight
	n := 8
	for 3*n < 4*lines {
		n *= 2
	}
	return n
}

// fetchKey identifies an outstanding line fetch: the line and the level
// it was sent to (the GPM itself for DRAM fetches).
type fetchKey struct {
	line topo.Line
	dest topo.GPMID
}

// mshrTable is the line-keyed table of one GPM's MSHR entries.
type mshrTable struct {
	// slots has a power-of-two length; a slot with a nil head is free.
	slots []mshrSlot
	// shift maps a line's hash to its home slot: 64 - log2(len(slots)).
	shift uint8
	// lines counts occupied slots and entries outstanding fetches.
	lines, entries int
}

// mshrSlot is one line with fetches outstanding.
type mshrSlot struct {
	line topo.Line
	// head is the line's first MSHR entry; the rest link through
	// opCtx.next.
	head *opCtx
}

// newMSHRTable returns an empty table over slots, whose length is a
// power of two; New carves every GPM's slots from one slab.
func newMSHRTable(slots []mshrSlot) mshrTable {
	return mshrTable{slots: slots, shift: uint8(64 - bits.TrailingZeros(uint(len(slots))))}
}

// home returns line l's home slot (Fibonacci hashing: the top bits of
// the product spread dense line numbers over the table).
func (t *mshrTable) home(l topo.Line) int {
	return int(uint64(l) * 0x9e3779b97f4a7c15 >> t.shift)
}

// probe returns line l's slot and true, or the free slot that ends l's
// probe run and false.
func (t *mshrTable) probe(l topo.Line) (int, bool) {
	mask := len(t.slots) - 1
	for i := t.home(l); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.head == nil {
			return i, false
		}
		if s.line == l {
			return i, true
		}
	}
}

// entry returns the MSHR entry of the fetch key names, or nil.
func (t *mshrTable) entry(key fetchKey) *opCtx {
	i, ok := t.probe(key.line)
	if !ok {
		return nil
	}
	for m := t.slots[i].head; m != nil; m = m.next {
		if m.from() == key.dest {
			return m
		}
	}
	return nil
}

// add inserts the MSHR entry m under its key, which must not have an
// entry yet. m joins its line's poisoned state.
func (t *mshrTable) add(m *opCtx) {
	l := m.line()
	i, ok := t.probe(l)
	if !ok {
		if 4*(t.lines+1) > 3*len(t.slots) {
			t.grow()
			i, _ = t.probe(l)
		}
		t.slots[i] = mshrSlot{line: l}
		t.lines++
	}
	s := &t.slots[i]
	if s.head != nil {
		m.setFlag(flagPoisoned, s.head.is(flagPoisoned))
	}
	m.next, s.head = s.head, m
	t.entries++
}

// grow doubles the table, reinserting every slot.
//
//lint:allow hotalloc fallback growth: New sizes the table for its configuration's peak, and past it the table doubles only up to the peak of lines outstanding at once
func (t *mshrTable) grow() {
	old := t.slots
	t.slots, t.shift = make([]mshrSlot, 2*len(old)), t.shift-1
	for _, s := range old {
		if s.head != nil {
			i, _ := t.probe(s.line)
			t.slots[i] = s
		}
	}
}

// remove takes the MSHR entry m out of the table, freeing its line's
// slot — and with it the poisoned flag — when m was the line's last
// entry.
func (t *mshrTable) remove(m *opCtx) {
	i, ok := t.probe(m.line())
	if !ok {
		panic("gsim: MSHR entry not in its table")
	}
	s := &t.slots[i]
	if s.head == m {
		s.head = m.next
	} else {
		p := s.head
		for p.next != m {
			p = p.next
		}
		p.next = m.next
	}
	m.next = nil
	t.entries--
	if s.head == nil {
		t.free(i)
	}
}

// free empties slot i by backward-shift deletion: each later slot of the
// probe run moves back into the hole when the hole lies on that slot's
// probe path, so every line stays reachable from its home slot with no
// tombstones left behind.
func (t *mshrTable) free(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].head != nil; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].line))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = mshrSlot{}
	t.lines--
}

// poison marks line l's in-flight fills as stale on every entry of the
// line; a no-op when no fetch of l is outstanding.
func (t *mshrTable) poison(l topo.Line) {
	if i, ok := t.probe(l); ok {
		for m := t.slots[i].head; m != nil; m = m.next {
			m.flags |= flagPoisoned
		}
	}
}

// poisoned reports whether line l's in-flight fills are stale.
func (t *mshrTable) poisoned(l topo.Line) bool {
	i, ok := t.probe(l)
	return ok && t.slots[i].head.is(flagPoisoned)
}

// fetch merges concurrent requests for the same line+destination in an
// MSHR entry: a pooled context holding the list of its waiters. The
// first request for a key gets the new entry back: the caller must start
// the fetch with the entry as its sink, which completes it exactly once
// with the response data. Later requests only join the list and get nil.
func (g *GPM) fetch(key fetchKey, waiter *opCtx) *opCtx {
	if m := g.mshr.entry(key); m != nil {
		waiter.next, m.up = m.up, waiter
		return nil
	}
	m := g.sys.newCtx(stageMSHRFill)
	m.setG(g.id)
	m.setLine(key.line)
	m.setFrom(key.dest)
	m.up = waiter
	g.mshr.add(m)
	return m
}

// fetchDone completes the MSHR entry m with the fetched data: every
// merged waiter receives it, in arrival order. The entry leaves the MSHR
// table first, so no waiter joins while they run, and returns to the
// pool after them. Each waiter is unlinked before it runs, since running
// may release it.
func (g *GPM) fetchDone(m *opCtx, fill fillData) {
	g.mshr.remove(m)
	var first *opCtx
	for w := m.up; w != nil; {
		w.next, first, w = first, w, w.next
	}
	for w := first; w != nil; {
		next := w.next
		w.next = nil
		w.filled(fill)
		w = next
	}
	m.release()
}

// poisonLine marks an in-flight fill for the line as stale; it will not
// be installed. A no-op when no fetch is outstanding.
func (g *GPM) poisonLine(l topo.Line) { g.mshr.poison(l) }

// poisonRegion poisons every line of a directory region.
func (g *GPM) poisonRegion(first topo.Line, n int) {
	for i := 0; i < n; i++ {
		g.poisonLine(first + topo.Line(i))
	}
}
