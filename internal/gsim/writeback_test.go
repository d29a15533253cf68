package gsim

import (
	"strings"
	"testing"

	"hmg/internal/proto"
	"hmg/internal/topo"
	"hmg/internal/trace"
)

func wbConfig(k proto.Kind) Config {
	cfg := tinyConfig(k)
	cfg.WriteBack = true
	return cfg
}

// TestWBStoreAbsorbedLocally: a plain store to a locally cached line
// dirties the slice and produces no write-through traffic.
func TestWBStoreAbsorbedLocally(t *testing.T) {
	cfg := wbConfig(proto.HMG)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Load (fills local L2), then store to the same line, owned remotely.
	kern := trace.Kernel{CTAs: make([]trace.CTA, 4)}
	kern.CTAs[1] = trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{
		{Kind: trace.Load, Addr: 0},
		{Kind: trace.Store, Addr: 0, Val: 7, Gap: 100000},
	}}}}
	tr := placeAll(&trace.Trace{Name: "wb", Kernels: []trace.Kernel{kern}}, 1, 3)
	if _, err := s.Run(tr); err != nil {
		t.Fatal(err)
	}
	// The kernel-end barrier flushed the dirty line: DRAM must hold 7.
	if got := s.GPMs[3].DRAM.LoadValue(0); got != 7 {
		t.Fatalf("DRAM after kernel barrier = %d, want 7 (flush missing)", got)
	}
}

// TestWBDirtyNotFlushedBeforeBarrier: mid-kernel, the dirty value stays
// local (that is the point of write-back): probe via a sibling's read of
// the home, which must still see the old value while the line is dirty.
func TestWBDirtyLineIsDirty(t *testing.T) {
	cfg := wbConfig(proto.HMG)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := false
	onLoad(s, func(ev Event) {
		if ev.Addr == 128 { // the probe op
			// At probe time the store to line 0 was absorbed: check the
			// local slice is dirty.
			line := s.Cfg.Topo.LineOf(0)
			if e, ok := s.GPMs[1].L2.Peek(line); !ok || !e.Dirty {
				t.Error("store not absorbed as dirty data")
			}
			done = true
		}
	})
	kern := trace.Kernel{CTAs: make([]trace.CTA, 4)}
	kern.CTAs[1] = trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{
		{Kind: trace.Load, Addr: 0},
		{Kind: trace.Store, Addr: 0, Val: 9, Gap: 100000},
		{Kind: trace.Load, Addr: 128, Gap: 100000}, // probe
	}}}}
	tr := placeAll(&trace.Trace{Name: "wbdirty", Kernels: []trace.Kernel{kern}}, 1, 3)
	if _, err := s.Run(tr); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("probe never ran")
	}
}

// TestWBReleaseFlushes: a .sys release flushes dirty data so the MP
// litmus still passes under write-back for every coherent protocol.
func TestWBMessagePassing(t *testing.T) {
	for _, k := range []proto.Kind{proto.NoRemoteCache, proto.SWNonHier, proto.SWHier, proto.NHCC, proto.HMG} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			cfg := wbConfig(k)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var flag, data uint64
			onLoad(s, func(ev Event) {
				switch {
				case ev.Addr == 0x200 && ev.Op == trace.LoadAcq:
					flag = ev.Val
				case ev.Addr == 0x100 && ev.Op == trace.Load:
					data = ev.Val
				}
			})
			// Writer warms its own cache (so the data store is absorbed
			// as dirty — the interesting case), then stores + releases.
			k1 := trace.Kernel{CTAs: make([]trace.CTA, 4)}
			k1.CTAs[0] = trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{
				{Kind: trace.Load, Addr: 0x100},
			}}}}
			k2 := trace.Kernel{CTAs: make([]trace.CTA, 4)}
			k2.CTAs[0] = trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{
				{Kind: trace.Store, Addr: 0x100, Val: 42},
				{Kind: trace.StoreRel, Scope: trace.ScopeSys, Addr: 0x200, Val: 1},
			}}}}
			k2.CTAs[3] = trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{
				{Kind: trace.LoadAcq, Scope: trace.ScopeSys, Addr: 0x200, Gap: 3_000_000},
				{Kind: trace.Load, Addr: 0x100},
			}}}}
			tr := placeAll(&trace.Trace{Name: "wbmp", Kernels: []trace.Kernel{k1, k2}}, 1, 0)
			if _, err := s.Run(tr); err != nil {
				t.Fatal(err)
			}
			if flag != 1 {
				t.Fatalf("flag = %d, want 1", flag)
			}
			if data != 42 {
				t.Fatalf("data = %d, want 42 (dirty line not flushed by release)", data)
			}
		})
	}
}

// TestWBDirtyEvictionWritesBack: evicting a dirty line sends its data
// home.
func TestWBDirtyEvictionWritesBack(t *testing.T) {
	cfg := wbConfig(proto.HMG)
	cfg.L2Slice.CapacityBytes = 2 * 128 * 2 // 2 sets × 2 ways: tiny
	cfg.L2Slice.Ways = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ops []trace.Op
	// Dirty line 0, then stream enough lines through the tiny slice to
	// evict it, then wait.
	ops = append(ops, trace.Op{Kind: trace.Load, Addr: 0})
	ops = append(ops, trace.Op{Kind: trace.Store, Addr: 0, Val: 77, Gap: 50000})
	for i := 1; i <= 8; i++ {
		ops = append(ops, trace.Op{Kind: trace.Load, Addr: topo.Addr(i * 128), Gap: 50000})
	}
	kern := trace.Kernel{CTAs: make([]trace.CTA, 4)}
	kern.CTAs[1] = trace.CTA{Warps: []trace.Warp{{Ops: ops}}}
	tr := placeAll(&trace.Trace{Name: "wbevict", Kernels: []trace.Kernel{kern}}, 1, 3)
	if _, err := s.Run(tr); err != nil {
		t.Fatal(err)
	}
	if got := s.GPMs[3].DRAM.LoadValue(0); got != 77 {
		t.Fatalf("evicted dirty data lost: DRAM = %d, want 77", got)
	}
}

// TestWBSyncStoresStillWriteThrough: scoped stores are never absorbed
// (forward progress requires write-through to the scope home).
func TestWBSyncStoresStillWriteThrough(t *testing.T) {
	cfg := wbConfig(proto.HMG)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kern := trace.Kernel{CTAs: make([]trace.CTA, 4)}
	kern.CTAs[1] = trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{
		{Kind: trace.Load, Addr: 0},
		{Kind: trace.StoreRel, Scope: trace.ScopeSys, Addr: 0, Val: 5, Gap: 100000},
		{Kind: trace.Load, Addr: 512, Gap: 100000}, // probe after release
	}}}}
	hit := false
	onLoad(s, func(ev Event) {
		if ev.Addr == 512 {
			hit = true
			if got := s.GPMs[3].DRAM.LoadValue(0); got != 5 {
				t.Errorf("release store not at DRAM before release completed: %d", got)
			}
		}
	})
	tr := placeAll(&trace.Trace{Name: "wbsync", Kernels: []trace.Kernel{kern}}, 1, 3)
	if _, err := s.Run(tr); err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("probe never ran")
	}
}

// TestWBReducesStoreTraffic: on a store-heavy workload with locality,
// write-back produces less inter-GPU store traffic than write-through.
func TestWBReducesStoreTraffic(t *testing.T) {
	mk := func(wb bool) *Results {
		cfg := tinyConfig(proto.HMG)
		cfg.WriteBack = wb
		var ops []trace.Op
		for i := 0; i < 8; i++ {
			ops = append(ops, trace.Op{Kind: trace.Load, Addr: topo.Addr(i * 128)})
		}
		for r := 0; r < 10; r++ {
			for i := 0; i < 8; i++ {
				ops = append(ops, trace.Op{Kind: trace.Store, Addr: topo.Addr(i * 128), Val: uint64(r), Gap: 200})
			}
		}
		kern := trace.Kernel{CTAs: make([]trace.CTA, 4)}
		kern.CTAs[1] = trace.CTA{Warps: []trace.Warp{{Ops: ops}}}
		tr := placeAll(&trace.Trace{Name: "wbtraffic", Kernels: []trace.Kernel{kern}}, 1, 3)
		return mustRun(t, cfg, tr)
	}
	wt := mk(false)
	wb := mk(true)
	if wb.InterGPUBytes >= wt.InterGPUBytes {
		t.Fatalf("write-back traffic (%d B) not below write-through (%d B)", wb.InterGPUBytes, wt.InterGPUBytes)
	}
}

// TestWBRejectedUnderMCAAndClassify: GPU-VI's line lock and CARVE's
// classification define no write-back, so New rejects the option under
// either and names the protocol; the six protocols accept it.
func TestWBRejectedUnderMCAAndClassify(t *testing.T) {
	for _, k := range []proto.Kind{proto.GPUVI, proto.CARVE} {
		if _, err := New(wbConfig(k)); err == nil || !strings.Contains(err.Error(), k.String()) {
			t.Errorf("%v with write-back: err = %v, want a rejection naming the protocol", k, err)
		}
		if _, err := New(tinyConfig(k)); err != nil {
			t.Errorf("%v with write-through rejected: %v", k, err)
		}
	}
	for _, k := range allKinds() {
		if _, err := New(wbConfig(k)); err != nil {
			t.Errorf("%v with write-back rejected: %v", k, err)
		}
	}
}
