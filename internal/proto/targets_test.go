package proto

import (
	"slices"
	"testing"

	"hmg/internal/directory"
)

// TestTargetBuffers pins the DirCtrl target-list contract: lists are nil
// when empty; store and forwarded-invalidation targets share one
// DirCtrl-owned buffer and replacement targets another, so RemoteStore's
// two lists never alias each other; a list stays intact until the next
// call on its DirCtrl; and every DirCtrl has its own buffers.
func TestTargetBuffers(t *testing.T) {
	c, other := ctrl(), ctrl()
	c.RemoteLoad(0, GPMRequester(1))
	c.RemoteLoad(0, GPMRequester(3))
	inv, _, _ := c.RemoteStore(0, GPMRequester(2))
	if want := []InvTarget{{ID: 1}, {ID: 3}}; !slices.Equal(inv, want) {
		t.Fatalf("store targets = %v, want %v", inv, want)
	}
	invBase := &inv[0]
	other.RemoteLoad(0, GPMRequester(0))
	if oinv, _, _ := other.RemoteStore(0, GPMRequester(2)); len(oinv) != 1 || &oinv[0] == invBase {
		t.Fatalf("another DirCtrl's store targets %v share this one's buffer", oinv)
	}
	if want := []InvTarget{{ID: 1}, {ID: 3}}; !slices.Equal(inv, want) {
		t.Fatalf("another DirCtrl's call changed these targets to %v", inv)
	}

	// The next store reuses the buffer: the earlier list is overwritten.
	c.RemoteLoad(0, GPMRequester(0))
	inv2 := c.LocalStore(0)
	if want := []InvTarget{{ID: 0}, {ID: 2}}; !slices.Equal(inv2, want) {
		t.Fatalf("local store targets = %v, want %v", inv2, want)
	}
	if &inv2[0] != invBase {
		t.Fatal("LocalStore did not reuse the store-target buffer")
	}
	if c.LocalStore(0) != nil {
		t.Fatal("empty fan-out is not nil")
	}

	// Replacement targets use the other buffer.
	sets, gran := uint64(4), uint64(4)
	for i := uint64(0); i < 4; i++ {
		c.RemoteLoad(lineOfRegion(1+i*sets, gran), GPMRequester(int(i)))
	}
	_, evT := c.RemoteLoad(lineOfRegion(1+4*sets, gran), GPMRequester(7))
	if len(evT) != 1 || &evT[0] == invBase {
		t.Fatalf("eviction targets %v, want one target outside the store-target buffer", evT)
	}
	c.RemoteLoad(lineOfRegion(2, gran), GPMRequester(5))
	inv3, evR, evT3 := c.RemoteStore(lineOfRegion(2, gran), GPMRequester(6))
	if len(inv3) != 1 || inv3[0] != (InvTarget{ID: 5}) || evT3 != nil || evR != 0 {
		t.Fatalf("RemoteStore = %v, %d, %v; want [GPM5], no eviction", inv3, evR, evT3)
	}

	// Forwarded invalidations use the store-target buffer too.
	c.RemoteLoad(lineOfRegion(3, gran), GPMRequester(1))
	fw := c.Invalidation(c.Dir.RegionOf(lineOfRegion(3, gran)))
	if len(fw) != 1 || &fw[0] != invBase {
		t.Fatalf("forward targets %v not in the store-target buffer", fw)
	}
}

// TestTargetBuffersDoNotAllocate checks that steady-state directory
// calls that invalidate sharers allocate nothing once the buffers have
// grown to the fan-out.
func TestTargetBuffersDoNotAllocate(t *testing.T) {
	c := NewDirCtrl(directory.Config{Entries: 64, Ways: 4, GranLines: 4})
	round := func() {
		for r := 0; r < 8; r++ {
			l := lineOfRegion(uint64(r), 4)
			c.RemoteLoad(l, GPMRequester(1))
			c.RemoteLoad(l, GPURequester(2))
			c.RemoteStore(l, GPMRequester(3))
			c.LocalStore(l)
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("invalidating stores allocate %.1f times per round", allocs)
	}
}
