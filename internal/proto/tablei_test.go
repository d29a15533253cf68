package proto

import (
	"testing"

	"hmg/internal/directory"
	"hmg/internal/topo"
)

func ctrl() *DirCtrl {
	return NewDirCtrl(directory.Config{Entries: 16, Ways: 4, GranLines: 4})
}

// TestTableI_RemoteLoadFromI covers: state I, remote load → add s, →V.
func TestTableI_RemoteLoadFromI(t *testing.T) {
	c := ctrl()
	_, evs := c.RemoteLoad(0, GPMRequester(2))
	if !evs.IsEmpty() {
		t.Fatal("eviction from empty directory")
	}
	e, ok := c.Dir.Lookup(0)
	if !ok {
		t.Fatal("entry not allocated (I→V)")
	}
	if !e.Sharers.Has(directory.GPMBit(2)) || e.Sharers.Count() != 1 {
		t.Fatalf("sharers = %v, want [GPM2]", e.Sharers)
	}
}

// TestTableI_RemoteLoadFromV covers: state V, remote load → add s.
func TestTableI_RemoteLoadFromV(t *testing.T) {
	c := ctrl()
	c.RemoteLoad(0, GPMRequester(1))
	c.RemoteLoad(1, GPMRequester(3)) // same region (granularity 4)
	e, _ := c.Dir.Lookup(0)
	if e.Sharers.Count() != 2 || !e.Sharers.Has(directory.GPMBit(1)) || !e.Sharers.Has(directory.GPMBit(3)) {
		t.Fatalf("sharers = %v, want [GPM1 GPM3]", e.Sharers)
	}
	if c.Dir.Live() != 1 {
		t.Fatalf("Live = %d; lines 0 and 1 share one region", c.Dir.Live())
	}
}

// TestTableI_RemoteStoreFromI covers: state I, remote store → add s, →V,
// no invalidations.
func TestTableI_RemoteStoreFromI(t *testing.T) {
	c := ctrl()
	inv, _, _ := c.RemoteStore(0, GPMRequester(2))
	if !inv.IsEmpty() {
		t.Fatalf("invalidations from state I: %v", inv)
	}
	e, ok := c.Dir.Lookup(0)
	if !ok || !e.Sharers.Has(directory.GPMBit(2)) {
		t.Fatal("store did not allocate and track requester")
	}
	if c.StoresSeen != 1 || c.StoresSharedData != 0 || c.StoresWithInvs != 0 {
		t.Fatalf("stats = seen %d shared %d withInvs %d", c.StoresSeen, c.StoresSharedData, c.StoresWithInvs)
	}
}

// TestTableI_RemoteStoreFromV covers: state V, remote store → add s, inv
// other sharers (but not the requester).
func TestTableI_RemoteStoreFromV(t *testing.T) {
	c := ctrl()
	c.RemoteLoad(0, GPMRequester(1))
	c.RemoteLoad(0, GPMRequester(3))
	c.RemoteLoad(0, GPURequester(2)) // HMG sys-home mixes GPM and GPU sharers
	inv, _, _ := c.RemoteStore(0, GPMRequester(1))
	if inv != directory.GPMBit(3).With(directory.GPUBit(2)) {
		t.Fatalf("invalidated %v, want GPM3 and GPU2 (not the requester)", inv)
	}
	e, _ := c.Dir.Lookup(0)
	if e.Sharers.Count() != 1 || !e.Sharers.Has(directory.GPMBit(1)) {
		t.Fatalf("post-store sharers = %v, want only requester", e.Sharers)
	}
	if c.StoresWithInvs != 1 || c.LinesInvByStores != 2*4 {
		t.Fatalf("inv stats: withInvs %d lines %d", c.StoresWithInvs, c.LinesInvByStores)
	}
}

// TestTableI_LocalStoreFromV covers: state V, local store → inv all
// sharers, →I.
func TestTableI_LocalStoreFromV(t *testing.T) {
	c := ctrl()
	c.RemoteLoad(0, GPMRequester(1))
	c.RemoteLoad(0, GPURequester(3))
	inv := c.LocalStore(0)
	if inv != directory.GPMBit(1).With(directory.GPUBit(3)) {
		t.Fatalf("invalidated %v, want GPM1 and GPU3", inv)
	}
	if _, ok := c.Dir.Lookup(0); ok {
		t.Fatal("entry survived local store (want →I)")
	}
}

// TestTableI_LocalStoreFromI covers: state I, local store → no action.
func TestTableI_LocalStoreFromI(t *testing.T) {
	c := ctrl()
	if inv := c.LocalStore(0); !inv.IsEmpty() {
		t.Fatalf("invalidations from state I: %v", inv)
	}
	if c.Dir.Live() != 0 {
		t.Fatal("local store allocated an entry")
	}
}

// TestTableI_ReplaceDirEntry covers: eviction → inv all sharers, →I.
func TestTableI_ReplaceDirEntry(t *testing.T) {
	c := ctrl() // 4 sets × 4 ways
	sets := uint64(4)
	gran := uint64(4)
	// Fill set 0 with 4 regions (lines spaced region-stride × numSets).
	for i := uint64(0); i < 4; i++ {
		c.RemoteLoad(lineOfRegion(i*sets, gran), GPMRequester(int(i)))
	}
	evRegion, evict := c.RemoteLoad(lineOfRegion(4*sets, gran), GPMRequester(7))
	if evict != directory.GPMBit(0) {
		t.Fatalf("eviction sharers = %v, want [GPM0]", evict)
	}
	if evRegion != 0 {
		t.Fatalf("evicted region = %d, want 0", evRegion)
	}
	if c.LinesInvByEvicts != 4 {
		t.Fatalf("LinesInvByEvicts = %d, want 4 (1 sharer × 4 lines)", c.LinesInvByEvicts)
	}
}

func lineOfRegion(r, gran uint64) topo.Line { return topo.Line(r * gran) }

// TestTableI_InvalidationHMGForward covers the HMG-only transition: an
// invalidation arriving at a GPU home forwards to all GPM sharers, →I.
func TestTableI_InvalidationHMGForward(t *testing.T) {
	c := ctrl()
	c.RemoteLoad(0, GPMRequester(0))
	c.RemoteLoad(0, GPMRequester(2))
	fw := c.Invalidation(c.Dir.RegionOf(0))
	if fw != directory.GPMBit(0).With(directory.GPMBit(2)) {
		t.Fatalf("forwarded to %v, want GPM0 and GPM2", fw)
	}
	if _, ok := c.Dir.Lookup(0); ok {
		t.Fatal("entry survived invalidation (want →I)")
	}
}

// TestTableI_InvalidationUntracked: invalidation of an untracked region
// forwards nothing.
func TestTableI_InvalidationUntracked(t *testing.T) {
	c := ctrl()
	if fw := c.Invalidation(9); !fw.IsEmpty() {
		t.Fatalf("forwarded %v for untracked region", fw)
	}
}

// TestNoTransientStates verifies the structural claim of the paper: the
// directory entry carries exactly a sharer set; every transition
// completes synchronously with no intermediate state.
func TestNoTransientStates(t *testing.T) {
	c := ctrl()
	// Interleave operations arbitrarily; after each, the entry is either
	// absent (I) or present (V) — there is nothing else to observe.
	ops := []func(){
		func() { c.RemoteLoad(0, GPMRequester(1)) },
		func() { c.RemoteStore(0, GPMRequester(2)) },
		func() { c.LocalStore(0) },
		func() { c.RemoteLoad(0, GPURequester(1)) },
		func() { c.Invalidation(c.Dir.RegionOf(0)) },
	}
	for i, op := range ops {
		op()
		_, present := c.Dir.Lookup(0)
		wantPresent := []bool{true, true, false, true, false}[i]
		if present != wantPresent {
			t.Fatalf("after op %d: present=%v, want %v", i, present, wantPresent)
		}
	}
}

func TestDropSharerDowngrade(t *testing.T) {
	c := ctrl()
	c.RemoteLoad(0, GPMRequester(1))
	c.RemoteLoad(0, GPMRequester(2))
	c.DropSharer(0, GPMRequester(1))
	e, _ := c.Dir.Lookup(0)
	if e.Sharers.Has(directory.GPMBit(1)) {
		t.Fatal("downgrade did not drop sharer")
	}
	if !e.Sharers.Has(directory.GPMBit(2)) {
		t.Fatal("downgrade dropped wrong sharer")
	}
	// Downgrade of untracked line is a no-op.
	c.DropSharer(999, GPMRequester(1))
}

// TestStoreToOwnSharedLine: a store by the only sharer must not
// invalidate anyone.
func TestStoreToOwnSharedLine(t *testing.T) {
	c := ctrl()
	c.RemoteLoad(0, GPMRequester(1))
	inv, _, _ := c.RemoteStore(0, GPMRequester(1))
	if !inv.IsEmpty() {
		t.Fatalf("self-store invalidated %v", inv)
	}
	if c.StoresSharedData != 1 {
		t.Fatalf("StoresSharedData = %d (entry existed)", c.StoresSharedData)
	}
}

// TestStoresSharedDataEmptySharers pins the Fig. 9 semantics for
// entries whose sharer set was emptied by DropSharer downgrades: the
// entry is still Valid, but it tracks no remote copy, so stores to it
// are not stores to shared data — on the local path and the remote
// path alike.
func TestStoresSharedDataEmptySharers(t *testing.T) {
	t.Run("LocalStore", func(t *testing.T) {
		c := ctrl()
		c.RemoteLoad(0, GPMRequester(1))
		c.DropSharer(0, GPMRequester(1))
		if e, ok := c.Dir.Lookup(0); !ok || !e.Sharers.IsEmpty() {
			t.Fatal("setup: want a valid entry with zero sharers")
		}
		inv := c.LocalStore(0)
		if !inv.IsEmpty() {
			t.Fatalf("invalidations for an empty sharer set: %v", inv)
		}
		if c.StoresSharedData != 0 {
			t.Fatalf("StoresSharedData = %d, want 0 (nobody tracked)", c.StoresSharedData)
		}
		if _, ok := c.Dir.Lookup(0); ok {
			t.Fatal("local store must still transition V→I")
		}
	})
	t.Run("RemoteStore", func(t *testing.T) {
		c := ctrl()
		c.RemoteLoad(0, GPMRequester(1))
		c.DropSharer(0, GPMRequester(1))
		inv, _, _ := c.RemoteStore(0, GPMRequester(2))
		if !inv.IsEmpty() || c.StoresSharedData != 0 {
			t.Fatalf("empty-entry store: inv=%v shared=%d, want none/0", inv, c.StoresSharedData)
		}
		// The store re-populated the entry; a second store by another
		// GPM now really does hit shared data.
		if _, _, _ = c.RemoteStore(0, GPMRequester(3)); c.StoresSharedData != 1 {
			t.Fatalf("StoresSharedData = %d after store to re-shared entry, want 1", c.StoresSharedData)
		}
	})
}

// TestMutationCountersIntendedTraffic pins the contract that every
// mutation-drop path counts the protocol-intended traffic: a Mutation
// bit suppresses the returned messages, never the Fig. 9/10 counters.
func TestMutationCountersIntendedTraffic(t *testing.T) {
	t.Run("MutDropStoreInv", func(t *testing.T) {
		c := ctrl()
		c.Mutate = MutDropStoreInv
		c.RemoteLoad(0, GPMRequester(1))
		c.RemoteLoad(0, GPMRequester(2))
		inv, _, _ := c.RemoteStore(0, GPMRequester(1))
		if !inv.IsEmpty() {
			t.Fatalf("mutated remote store returned %v", inv)
		}
		if c.StoresWithInvs != 1 || c.LinesInvByStores != 4 {
			t.Fatalf("remote-store counters: withInvs=%d lines=%d, want 1/4",
				c.StoresWithInvs, c.LinesInvByStores)
		}
		c.RemoteLoad(0, GPMRequester(3))
		if got := c.LocalStore(0); !got.IsEmpty() {
			t.Fatalf("mutated local store returned %v", got)
		}
		if c.StoresWithInvs != 2 || c.LinesInvByStores != 12 {
			t.Fatalf("local-store counters: withInvs=%d lines=%d, want 2/12",
				c.StoresWithInvs, c.LinesInvByStores)
		}
	})
	t.Run("MutDropInvForward", func(t *testing.T) {
		c := ctrl()
		c.Mutate = MutDropInvForward
		c.RemoteLoad(0, GPMRequester(0))
		c.RemoteLoad(0, GPMRequester(2))
		if fw := c.Invalidation(c.Dir.RegionOf(0)); !fw.IsEmpty() {
			t.Fatalf("mutated invalidation forwarded %v", fw)
		}
		if _, ok := c.Dir.Lookup(0); ok {
			t.Fatal("entry survived mutated invalidation (want →I)")
		}
	})
	t.Run("MutDropEvictInv", func(t *testing.T) {
		c := ctrl() // 4 sets × 4 ways
		c.Mutate = MutDropEvictInv
		sets, gran := uint64(4), uint64(4)
		// Fill set 1 so the victim region is nonzero and thus
		// distinguishable from the no-victim zero value.
		for i := uint64(0); i < 4; i++ {
			c.RemoteLoad(lineOfRegion(1+i*sets, gran), GPMRequester(int(i)))
		}
		evR, evict := c.RemoteLoad(lineOfRegion(1+4*sets, gran), GPMRequester(7))
		if !evict.IsEmpty() {
			t.Fatalf("mutated eviction returned sharers %v", evict)
		}
		if evR != 1 {
			t.Fatalf("evict region = %d, want the real victim region 1", evR)
		}
		if c.LinesInvByEvicts != 4 {
			t.Fatalf("LinesInvByEvicts = %d, want 4", c.LinesInvByEvicts)
		}
	})
}

// TestEvictionFanoutAcrossGranularities covers eviction fan-out: the
// returned set names the victim's sharers, and LinesInvByEvicts counts
// sharers × the tracking granularity, accumulating across evictions.
func TestEvictionFanoutAcrossGranularities(t *testing.T) {
	// The requesters in use order (a GPM, then a GPU sharing the victim
	// region): ids in the first sharer-bitmap word, and ids spanning
	// both words.
	for _, reqs := range [][5]Requester{
		{GPMRequester(1), GPURequester(2), GPMRequester(3), GPMRequester(4), GPMRequester(5)},
		{GPMRequester(40), GPURequester(100), GPMRequester(127), GPMRequester(64), GPMRequester(32)},
	} {
		for _, gran := range []int{1, 2, 4, 8} {
			c := NewDirCtrl(directory.Config{Entries: 8, Ways: 2, GranLines: gran})
			sets := uint64(4)
			// Two sharers on the eventual victim region, one on the next.
			c.RemoteLoad(lineOfRegion(0, uint64(gran)), reqs[0])
			c.RemoteLoad(lineOfRegion(0, uint64(gran)), reqs[1])
			c.RemoteLoad(lineOfRegion(sets, uint64(gran)), reqs[2])
			// Third region in the same set displaces the LRU victim (region 0).
			evR, evict := c.RemoteLoad(lineOfRegion(2*sets, uint64(gran)), reqs[3])
			if want := reqs[0].Bit().With(reqs[1].Bit()); evR != 0 || evict != want {
				t.Fatalf("gran %d: evicted region %d sharers %v, want region 0 with %v", gran, evR, evict, want)
			}
			if c.LinesInvByEvicts != uint64(2*gran) {
				t.Fatalf("gran %d: LinesInvByEvicts = %d, want %d", gran, c.LinesInvByEvicts, 2*gran)
			}
			// A second eviction accumulates on top.
			evR, evict = c.RemoteLoad(lineOfRegion(3*sets, uint64(gran)), reqs[4])
			if evR != directory.Region(sets) || evict != reqs[2].Bit() {
				t.Fatalf("gran %d: second eviction region %d sharers %v", gran, evR, evict)
			}
			if c.LinesInvByEvicts != uint64(3*gran) {
				t.Fatalf("gran %d: accumulated LinesInvByEvicts = %d, want %d", gran, c.LinesInvByEvicts, 3*gran)
			}
		}
	}
}

// TestRequesterSharerRoundTrip: a requester recorded as a sharer comes
// back out of the returned invalidation set as the same node in the
// same id space — GPM requesters as GPM sharers, GPU requesters as GPU
// sharers — across both bitmap words of each space.
func TestRequesterSharerRoundTrip(t *testing.T) {
	reqs := []Requester{
		GPMRequester(0), GPMRequester(5), GPMRequester(31),
		GPURequester(0), GPURequester(7), GPURequester(31),
		GPMRequester(32), GPMRequester(63), GPMRequester(64), GPMRequester(127),
		GPURequester(33), GPURequester(100),
	}
	// back pops the one sharer of a returned set as a requester.
	back := func(inv directory.Sharers) (Requester, int) {
		n := inv.Count()
		if n == 0 {
			return Requester{}, 0
		}
		id, isGPU := inv.Pop()
		return Requester{IsGPU: isGPU, ID: id}, n
	}
	for _, r := range reqs {
		if got, n := back(r.Bit()); n != 1 || got != r {
			t.Fatalf("%v.Bit() pops as %v (%d sharers), want the same node back", r, got, n)
		}
		// Through the directory: record as sharer, invalidate via the
		// local-store arm, and expect the identical node.
		c := ctrl()
		c.RemoteLoad(0, r)
		if got, n := back(c.LocalStore(0)); n != 1 || got != r {
			t.Fatalf("round trip via directory for %v: got %v (%d sharers)", r, got, n)
		}
		// And via the remote-store arm: another writer invalidates r
		// and remains the only sharer.
		w := GPMRequester(126)
		c.RemoteLoad(0, r)
		inv, _, _ := c.RemoteStore(0, w)
		if got, n := back(inv); n != 1 || got != r {
			t.Fatalf("remote-store invalidation for %v: got %v (%d sharers)", r, got, n)
		}
		if e, _ := c.Dir.Lookup(0); e.Sharers != w.Bit() {
			t.Fatalf("post-store sharers %v, want only %v", e.Sharers, w)
		}
	}
}
