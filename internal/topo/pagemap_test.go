package topo

import (
	"math/rand"
	"testing"
)

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestPageMapMatchesModel runs random Touch, placement-hint, Owner,
// SysHome, GPUHome, Pages and Reserve sequences against a map reference
// model of first-touch placement. Pages range past the table's initial
// size, so Touch grows it as well as hitting reserved pages.
func TestPageMapMatchesModel(t *testing.T) {
	tp := paperTopo()
	total := tp.TotalGPMs()
	t.Run("first-touch", func(t *testing.T) {
		m := newPageMap(tp)
		model := map[Page]GPMID{}
		place := func(p Page, accessor GPMID) GPMID {
			if o, ok := model[p]; ok {
				return o
			}
			model[p] = accessor
			return accessor
		}
		rng := rand.New(rand.NewSource(7))
		for step := 0; step < 20000; step++ {
			p := Page(rng.Intn(600))
			a := Addr(uint64(p)*uint64(tp.PageSize) + uint64(rng.Intn(tp.PageSize)))
			l := tp.LineOf(a)
			switch op := rng.Intn(20); {
			case op < 6:
				acc := GPMID(rng.Intn(total))
				if got, want := m.Touch(a, acc), place(p, acc); got != want {
					t.Fatalf("step %d: Touch(page %d, %d) = %d, model %d", step, p, acc, got, want)
				}
			case op < 8:
				// A placement hint, as System.Run applies one: reserve
				// the trace's pages, then touch the page's base
				// address on the hinted GPM.
				gpm := GPMID(rng.Intn(total))
				m.Reserve(p + 1)
				if got, want := m.Touch(Addr(uint64(p)*uint64(tp.PageSize)), gpm), place(p, gpm); got != want {
					t.Fatalf("step %d: hint of page %d on %d placed %d, model %d", step, p, gpm, got, want)
				}
			case op < 12:
				got, ok := m.Owner(a)
				want, wantOK := model[p]
				if got != want || ok != wantOK {
					t.Fatalf("step %d: Owner(page %d) = %d,%v, model %d,%v", step, p, got, ok, want, wantOK)
				}
			case op < 16:
				want, ok := model[p]
				if !ok {
					if !panics(func() { m.SysHome(l) }) {
						t.Fatalf("step %d: SysHome of unplaced page %d did not panic", step, p)
					}
					continue
				}
				if got := m.SysHome(l); got != want {
					t.Fatalf("step %d: SysHome(page %d) = %d, model %d", step, p, got, want)
				}
				gpu := GPUID(rng.Intn(tp.NumGPUs))
				wantHome := tp.GPUHome(gpu, l)
				if tp.GPUOf(want) == gpu {
					wantHome = want
				}
				if got := m.GPUHome(gpu, l); got != wantHome {
					t.Fatalf("step %d: GPUHome(%d, page %d) = %d, model %d", step, gpu, p, got, wantHome)
				}
			default:
				m.Reserve(Page(rng.Intn(800)))
			}
			if m.Pages() != len(model) {
				t.Fatalf("step %d: Pages = %d, model %d", step, m.Pages(), len(model))
			}
		}
	})
}

// TestPageMapReservedTouchDoesNotAllocate pins the datapath cost: once
// Reserve has sized the table, Touch, Owner and the home lookups
// allocate nothing.
func TestPageMapReservedTouchDoesNotAllocate(t *testing.T) {
	tp := paperTopo()
	m := newPageMap(tp)
	m.Reserve(1024)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		a := Addr(uint64(i%1024) * uint64(tp.PageSize))
		m.Touch(a, GPMID(i%tp.TotalGPMs()))
		m.Owner(a)
		m.GPUHome(GPUID(i%tp.NumGPUs), tp.LineOf(a))
		i++
	})
	if allocs != 0 {
		t.Fatalf("reserved Touch/Owner/GPUHome allocate %.1f times per call", allocs)
	}
}

// TestPageMapLimit checks the MaxPages cap: the last page below it can
// be reserved, and Touch or Reserve beyond it panics rather than sizing
// a table by a stray address.
func TestPageMapLimit(t *testing.T) {
	tp := paperTopo()
	m := newPageMap(tp)
	if !panics(func() { m.Touch(Addr(uint64(MaxPages)*uint64(tp.PageSize)), 0) }) {
		t.Error("Touch of page MaxPages did not panic")
	}
	if !panics(func() { m.Touch(1<<62, 0) }) {
		t.Error("Touch of address 1<<62 did not panic")
	}
	if !panics(func() { m.Reserve(MaxPages + 1) }) {
		t.Error("Reserve beyond MaxPages did not panic")
	}
	if m.Pages() != 0 {
		t.Fatalf("rejected touches placed %d pages", m.Pages())
	}
	if _, ok := m.Owner(1 << 62); ok {
		t.Error("Owner of an out-of-range address reports a placement")
	}
	if !panics(func() { m.SysHome(tp.LineOf(1 << 62)) }) {
		t.Error("SysHome of an out-of-range line did not panic")
	}
}

// TestPageMapReset: a reset map places nothing and keeps its table, so
// placing the same pages again allocates nothing.
func TestPageMapReset(t *testing.T) {
	tp := paperTopo()
	m := newPageMap(tp)
	m.Reserve(64)
	for p := 0; p < 64; p++ {
		m.Touch(Addr(uint64(p)*uint64(tp.PageSize)), GPMID(p%tp.TotalGPMs()))
	}
	small := tp
	small.PageSize /= 2
	m.Reset(small)
	if m.Pages() != 0 || m.Topology() != small {
		t.Fatalf("after Reset: %d pages placed on %v", m.Pages(), m.Topology())
	}
	if g, ok := m.Owner(0); ok {
		t.Fatalf("page 0 still owned by GPM %d after Reset", g)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		m.Reset(tp)
		m.Reserve(64)
		for p := 0; p < 64; p++ {
			m.Touch(Addr(uint64(p)*uint64(tp.PageSize)), 1)
		}
	}); allocs != 0 || m.Pages() != 64 {
		t.Fatalf("placing 64 pages after Reset: %v allocations, %d pages, want 0 and 64", allocs, m.Pages())
	}
}
