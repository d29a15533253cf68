package gsim

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"hmg/internal/proto"
	"hmg/internal/topo"
	"hmg/internal/trace"
)

// TestMSHRTableMatchesModel drives one GPM's MSHRs through random
// fetch, merge, fetchDone and poison sequences against a map reference
// model. The table starts at 8 slots and lines come from a small
// universe, so probes collide, wrap past the end of the table and leave
// backward-shift chains for deletion to repair; the test asserts each
// of those happened before letting the table grow.
func TestMSHRTableMatchesModel(t *testing.T) {
	s, err := New(tinyConfig(proto.HMG))
	if err != nil {
		t.Fatal(err)
	}
	g := s.GPMs[0]
	g.mshr = newMSHRTable(make([]mshrSlot, 8))
	sm := s.SMs[0]
	s.warps = []warpCtx{{sm: sm}}
	w := &s.warps[0]
	// Waiters are plain loads that skip the L1; each one's address is
	// its arrival number, and completion order is recorded through
	// their EvLoadDone events.
	var ran []topo.Addr
	onLoad(s, func(ev Event) { ran = append(ran, ev.Addr) })
	arrivals := 0
	newWaiter := func() *opCtx {
		c := w.newOpCtx(trace.Op{Kind: trace.Load, Addr: topo.Addr(4 * arrivals)})
		c.stage = stageLoadFill
		arrivals++
		w.inflight++
		sm.inflight++
		return c
	}

	// The reference model.
	entries := map[fetchKey]*opCtx{}
	waiters := map[fetchKey][]topo.Addr{}
	poisoned := map[topo.Line]bool{}
	var live []fetchKey // outstanding keys, in a deterministic order
	lineLive := func(l topo.Line) bool {
		return slices.ContainsFunc(live, func(k fetchKey) bool { return k.line == l })
	}
	liveLines := func() int {
		seen := map[topo.Line]bool{}
		for _, k := range live {
			seen[k.line] = true
		}
		return len(seen)
	}

	var wraps, chains, shifts int
	check := func(step int) {
		t.Helper()
		if got := s.OutstandingFetches(); got != len(entries) {
			t.Fatalf("step %d: OutstandingFetches = %d, model %d", step, got, len(entries))
		}
		if g.mshr.lines != liveLines() {
			t.Fatalf("step %d: table holds %d lines, model %d", step, g.mshr.lines, liveLines())
		}
		for k, m := range entries {
			if got := g.mshr.entry(k); got != m {
				t.Fatalf("step %d: entry(%v) = %p, model %p", step, k, got, m)
			}
		}
		// Every occupied slot is reachable from its home slot through
		// occupied slots only, and holds a distinct line.
		mask := len(g.mshr.slots) - 1
		seen := map[topo.Line]bool{}
		for i, sl := range g.mshr.slots {
			if sl.head == nil {
				if sl != (mshrSlot{}) {
					t.Fatalf("step %d: free slot %d not zeroed: %+v", step, i, sl)
				}
				continue
			}
			if seen[sl.line] {
				t.Fatalf("step %d: line %d in two slots", step, sl.line)
			}
			seen[sl.line] = true
			h := g.mshr.home(sl.line)
			for j := h; j != i; j = (j + 1) & mask {
				if g.mshr.slots[j].head == nil {
					t.Fatalf("step %d: line %d at slot %d unreachable from home %d (slot %d free)", step, sl.line, i, h, j)
				}
			}
			if i != h {
				chains++
			}
			if i < h {
				wraps++
			}
		}
	}

	rng := rand.New(rand.NewSource(18))
	const steps = 6000
	for step := 0; step < steps; step++ {
		// The first half keeps at most 6 lines outstanding, which an
		// 8-slot table holds without growing; the second half lets the
		// table grow.
		maxLines := 6
		if step >= steps/2 {
			if step == steps/2 && len(g.mshr.slots) != 8 {
				t.Fatalf("table grew to %d slots under the 6-line bound", len(g.mshr.slots))
			}
			maxLines = 40
		}
		l := topo.Line(rng.Intn(64))
		switch op := rng.Intn(10); {
		case op < 5 && (lineLive(l) || liveLines() < maxLines):
			k := fetchKey{line: l, dest: topo.GPMID(rng.Intn(3))}
			wt := newWaiter()
			m := g.fetch(k, wt)
			if _, ok := entries[k]; ok {
				if m != nil {
					t.Fatalf("step %d: merge into %v returned a new entry", step, k)
				}
			} else {
				if m == nil {
					t.Fatalf("step %d: first fetch of %v returned no entry", step, k)
				}
				entries[k] = m
				live = append(live, k)
			}
			waiters[k] = append(waiters[k], wt.addr)
		case op < 8 && len(live) > 0:
			i := rng.Intn(len(live))
			k := live[i]
			live = slices.Delete(live, i, i+1)
			m := entries[k]
			if !lineLive(k.line) {
				// The line's slot is freed: a shift happens when the
				// next slot holds a displaced line.
				mask := len(g.mshr.slots) - 1
				si, _ := g.mshr.probe(k.line)
				if nx := g.mshr.slots[(si+1)&mask]; nx.head != nil && g.mshr.home(nx.line) != (si+1)&mask {
					shifts++
				}
				delete(poisoned, k.line)
			}
			ran = ran[:0]
			g.fetchDone(m, nil)
			if !slices.Equal(ran, waiters[k]) {
				t.Fatalf("step %d: waiters of %v ran in order %v, arrived %v", step, k, ran, waiters[k])
			}
			delete(entries, k)
			delete(waiters, k)
		default:
			lines := g.mshr.lines
			g.poisonLine(l)
			if lineLive(l) {
				poisoned[l] = true
			} else if g.mshr.lines != lines || g.mshr.poisoned(l) {
				t.Fatalf("step %d: poisoning idle line %d changed the table", step, l)
			}
		}
		for pl := topo.Line(0); pl < 64; pl++ {
			if got := g.mshr.poisoned(pl); got != poisoned[pl] {
				t.Fatalf("step %d: poisoned(%d) = %v, model %v", step, pl, got, poisoned[pl])
			}
		}
		check(step)
	}
	for len(live) > 0 {
		k := live[0]
		live = live[1:]
		g.fetchDone(entries[k], nil)
		delete(entries, k)
	}
	check(steps)
	if wraps == 0 || chains == 0 || shifts == 0 {
		t.Fatalf("sequence too easy: %d wrapped probes, %d displaced slots, %d backward shifts", wraps, chains, shifts)
	}
	if len(g.mshr.slots) == 8 {
		t.Fatal("table never grew")
	}
	if n := s.LiveContexts(); n != 0 {
		t.Fatalf("%d contexts live after every fetch completed", n)
	}
}

// TestMSHRMergeAllocatesNothing: a merge links its waiter into the
// entry's FIFO, so merging allocates nothing however many waiters an
// entry gathers — each measured round merges more than any before it —
// and fetchDone serves them in arrival order.
func TestMSHRMergeAllocatesNothing(t *testing.T) {
	s, err := New(tinyConfig(proto.HMG))
	if err != nil {
		t.Fatal(err)
	}
	g, sm := s.GPMs[0], s.SMs[0]
	s.warps = []warpCtx{{sm: sm}}
	w := &s.warps[0]
	ran, arrived := make([]topo.Addr, 0, 64), make([]topo.Addr, 0, 64)
	onLoad(s, func(ev Event) { ran = append(ran, ev.Addr) })
	waiters := 4
	round := func() {
		waiters *= 2
		ran, arrived = ran[:0], arrived[:0]
		var m *opCtx
		for i := 0; i < waiters; i++ {
			c := w.newOpCtx(trace.Op{Kind: trace.Load, Addr: topo.Addr(4 * i)})
			c.stage = stageLoadFill
			w.inflight++
			sm.inflight++
			if e := g.fetch(fetchKey{line: 7, dest: 1}, c); e != nil {
				m = e
			}
			arrived = append(arrived, c.addr)
		}
		g.fetchDone(m, nil)
	}
	// One warm-up round of 8 waiters, then a measured round of 16.
	if a := testing.AllocsPerRun(1, round); a != 0 {
		t.Errorf("merging %d waiters on one entry: %v allocations, want 0", waiters, a)
	}
	if !slices.Equal(ran, arrived) {
		t.Fatalf("waiters ran in order %v, arrived %v", ran, arrived)
	}
	if n := s.LiveContexts(); n != 0 {
		t.Fatalf("%d contexts live after the fetch completed", n)
	}
}

// TestPoisonedFillNotInstalled checks that fillL2 reads a line's poison
// before its fetch completes: a poisoned response serves its waiters
// but is not installed, and the flag dies with the line's last fetch.
func TestPoisonedFillNotInstalled(t *testing.T) {
	s, err := New(tinyConfig(proto.HMG))
	if err != nil {
		t.Fatal(err)
	}
	g := s.GPMs[1]
	const line = topo.Line(5)
	placeholder := s.newCtx(stageNone) // a waiter that is never filled
	m := g.fetch(fetchKey{line: line, dest: 0}, placeholder)
	g.poisonLine(line)
	s.fillL2(g.id, line, nil, true)
	if _, hit := g.L2.Peek(line); hit {
		t.Fatal("poisoned fill installed")
	}
	m.up = nil
	placeholder.release()
	g.fetchDone(m, nil)
	if g.mshr.poisoned(line) || g.mshr.lines != 0 {
		t.Fatal("poison outlived the line's last fetch")
	}
	s.fillL2(g.id, line, nil, true)
	if _, hit := g.L2.Peek(line); !hit {
		t.Fatal("clean fill not installed")
	}
}

// TestOpCtxFitsOneLine: a pooled context is three pointers and 40
// bytes of scalars and padding, one 64-byte cache line on 64-bit hosts,
// and every slab of the pool starts on a line boundary, so each hop
// touches, and release zeroes, exactly one host cache line.
func TestOpCtxFitsOneLine(t *testing.T) {
	want := 3*unsafe.Sizeof(uintptr(0)) + 40
	if n := unsafe.Sizeof(opCtx{}); n != want {
		t.Fatalf("opCtx is %d bytes, want %d", n, want)
	}
	s, err := New(tinyConfig(proto.HMG))
	if err != nil {
		t.Fatal(err)
	}
	// Draw enough contexts to grow several slabs.
	var drawn []*opCtx
	for i := 0; i < 8*ctxSlabMin; i++ {
		drawn = append(drawn, s.newCtx(stageNone))
	}
	if s.numCtxSlabs < 3 {
		t.Fatalf("the pool grew %d slabs, want at least 3", s.numCtxSlabs)
	}
	// Only a slab of 64-byte contexts is large enough for the allocator
	// to place on a page boundary (see ctxSlabMin).
	for i, slab := range s.ctxSlabs[:s.numCtxSlabs] {
		if a := uintptr(unsafe.Pointer(&slab[0])); a%64 != 0 && want == 64 {
			t.Errorf("slab %d starts at %#x, not on a 64-byte boundary", i, a)
		}
	}
	for _, c := range drawn {
		c.release()
	}
}
