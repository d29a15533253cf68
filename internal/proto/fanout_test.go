package proto

import (
	"testing"

	"hmg/internal/directory"
)

// TestWideSharerSetsDoNotAllocate checks that the directory arms stay
// allocation-free on sharer sets spanning the whole flat id space: 128
// GPM requesters per region (a 16x8 machine under NHCC), with stores
// invalidating all of them and allocations evicting full entries.
func TestWideSharerSetsDoNotAllocate(t *testing.T) {
	c := NewDirCtrl(directory.Config{Entries: 16, Ways: 2, GranLines: 4})
	round := func() {
		for r := 0; r < 24; r++ { // 3x the 8 sets: every set evicts
			l := lineOfRegion(uint64(r), 4)
			for id := 0; id < directory.MaxSharerIDs; id++ {
				c.RemoteLoad(l, GPMRequester(id))
			}
			c.RemoteStore(l, GPMRequester(r))
			for id := 0; id < directory.MaxSharerIDs; id++ {
				c.RemoteLoad(l, GPMRequester(id))
			}
			if r%2 == 0 {
				c.LocalStore(l)
			}
		}
	}
	round()
	if c.LinesInvByEvicts == 0 || c.LinesInvByStores == 0 {
		t.Fatal("round did not both evict and invalidate; test is vacuous")
	}
	if allocs := testing.AllocsPerRun(20, round); allocs != 0 {
		t.Fatalf("128-sharer directory calls allocate %.1f times per round", allocs)
	}
}

// TestFirstWideFanOutAllocatesNothing: the very first calls on a fresh
// controller set that invalidate 128 sharers — an entry replacement,
// and a local store — allocate nothing.
func TestFirstWideFanOutAllocatesNothing(t *testing.T) {
	cfg := directory.Config{Entries: 16, Ways: 2, GranLines: 4}
	const sets = 8                // regions r, r+8 and r+16 share a directory set
	fresh := make([][]DirCtrl, 2) // AllocsPerRun's warm-up, then one run
	for i := range fresh {
		var set DirCtrlSet
		fresh[i] = set.Reset(cfg, 4)
		c := &fresh[i][1]
		for _, r := range []uint64{1, 1 + sets} {
			for id := 0; id < directory.MaxSharerIDs; id++ {
				c.RemoteLoad(lineOfRegion(r, 4), GPMRequester(id))
			}
		}
	}
	run := 0
	var inv, evict directory.Sharers
	allocs := testing.AllocsPerRun(1, func() {
		c := &fresh[run][1]
		run++
		_, evict = c.RemoteLoad(lineOfRegion(1+2*sets, 4), GPMRequester(0))
		inv = c.LocalStore(lineOfRegion(1+sets, 4))
	})
	if inv.Count() != directory.MaxSharerIDs || evict.Count() != directory.MaxSharerIDs {
		t.Fatalf("fan-outs of %d and %d sharers, want %d each", inv.Count(), evict.Count(), directory.MaxSharerIDs)
	}
	if c := &fresh[1][1]; c.LinesInvByEvicts == 0 || c.LinesInvByStores == 0 {
		t.Fatal("the run did not both evict and invalidate; test is vacuous")
	}
	if allocs != 0 {
		t.Fatalf("first 128-sharer fan-outs on a fresh set: %v allocations, want 0", allocs)
	}
}
