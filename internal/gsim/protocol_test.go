package gsim

import (
	"testing"

	"hmg/internal/directory"

	"hmg/internal/proto"
	"hmg/internal/topo"
	"hmg/internal/trace"
)

// mpTrace builds a message-passing litmus: a writer warp on CTA 0 stores
// data then release-stores a flag; a reader warp (on the CTA placed at
// readerCTA of 4) waits long, acquire-loads the flag, then loads data.
// With 4 CTAs on the tiny 4-GPM system, CTA i runs on GPM i.
func mpTrace(scope trace.Scope, readerCTA int, delay uint32) *trace.Trace {
	const dataAddr, flagAddr = 0x100, 0x200
	writer := trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{
		{Kind: trace.Store, Addr: dataAddr, Val: 42},
		{Kind: trace.StoreRel, Scope: scope, Addr: flagAddr, Val: 1},
	}}}}
	reader := trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{
		{Kind: trace.LoadAcq, Scope: scope, Addr: flagAddr, Gap: delay},
		{Kind: trace.Load, Addr: dataAddr},
	}}}}
	k := trace.Kernel{CTAs: make([]trace.CTA, 4)}
	k.CTAs[0] = writer
	k.CTAs[readerCTA] = reader
	// Warm the reader's caches with stale copies of both lines first, in
	// a prior kernel, so the test catches missing invalidations.
	warm := trace.Kernel{CTAs: make([]trace.CTA, 4)}
	warm.CTAs[readerCTA] = trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{
		{Kind: trace.Load, Addr: dataAddr},
		{Kind: trace.Load, Addr: flagAddr},
	}}}}
	return placeAll(&trace.Trace{Name: "mp", Kernels: []trace.Kernel{warm, k}}, 1, 0)
}

// runMP executes the litmus and returns flag and data values seen by the
// reader.
func runMP(t *testing.T, kind proto.Kind, scope trace.Scope, readerCTA int) (flag, data uint64) {
	t.Helper()
	cfg := tinyConfig(kind)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	onLoad(s, func(ev Event) {
		switch ev.Addr {
		case 0x200:
			if ev.Op == trace.LoadAcq {
				flag = ev.Val
			}
		case 0x100:
			if ev.Op == trace.Load {
				data = ev.Val
			}
		}
	})
	// Delay long enough that the writer's release has completed.
	if _, err := s.Run(mpTrace(scope, readerCTA, 3_000_000)); err != nil {
		t.Fatal(err)
	}
	return flag, data
}

// TestMPLitmusSysScope: after a .sys release completes, a remote-GPU
// acquire must observe the flag and then the data, under every coherent
// protocol. The reader (CTA 3 → GPM 3) is on the other GPU.
func TestMPLitmusSysScope(t *testing.T) {
	for _, k := range []proto.Kind{proto.NoRemoteCache, proto.SWNonHier, proto.SWHier, proto.NHCC, proto.HMG} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			flag, data := runMP(t, k, trace.ScopeSys, 3)
			if flag != 1 {
				t.Fatalf("late .sys acquire read flag %d, want 1", flag)
			}
			if data != 42 {
				t.Fatalf("data after successful acquire = %d, want 42 (stale value leaked)", data)
			}
		})
	}
}

// TestMPLitmusGPUScope: same-GPU message passing with .gpu scope. The
// reader (CTA 1 → GPM 1) shares GPU 0 with the writer.
func TestMPLitmusGPUScope(t *testing.T) {
	for _, k := range []proto.Kind{proto.NoRemoteCache, proto.SWNonHier, proto.SWHier, proto.NHCC, proto.HMG} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			flag, data := runMP(t, k, trace.ScopeGPU, 1)
			if flag != 1 {
				t.Fatalf("late .gpu acquire read flag %d, want 1", flag)
			}
			if data != 42 {
				t.Fatalf("data after .gpu acquire = %d, want 42", data)
			}
		})
	}
}

// TestSysAtomicsSerialize: concurrent .sys atomics from all four GPMs
// serialize at the system home; the final memory value is the sum.
func TestSysAtomicsSerialize(t *testing.T) {
	for _, k := range []proto.Kind{proto.NoRemoteCache, proto.SWNonHier, proto.SWHier, proto.NHCC, proto.HMG} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			const addr = 0x400
			kern := trace.Kernel{}
			perWarp := 5
			for c := 0; c < 4; c++ {
				var ops []trace.Op
				for i := 0; i < perWarp; i++ {
					ops = append(ops, trace.Op{Kind: trace.Atomic, Scope: trace.ScopeSys, Addr: addr, Val: 1})
				}
				kern.CTAs = append(kern.CTAs, trace.CTA{Warps: []trace.Warp{{Ops: ops}}})
			}
			tr := placeAll(&trace.Trace{Name: "atom", Kernels: []trace.Kernel{kern}}, 1, 2)
			cfg := tinyConfig(k)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(tr); err != nil {
				t.Fatal(err)
			}
			if got := s.GPMs[2].DRAM.LoadValue(addr); got != uint64(4*perWarp) {
				t.Fatalf("final atomic value = %d, want %d", got, 4*perWarp)
			}
		})
	}
}

// TestGPUAtomicsSerializeWithinGPU: .gpu atomics from two GPMs of the
// same GPU serialize at the GPU home and the result writes through to
// the system home on the other GPU.
func TestGPUAtomicsSerializeWithinGPU(t *testing.T) {
	const addr = 0x800
	kern := trace.Kernel{CTAs: make([]trace.CTA, 4)}
	for c := 0; c < 2; c++ { // CTAs 0,1 → GPMs 0,1 (GPU 0)
		var ops []trace.Op
		for i := 0; i < 4; i++ {
			ops = append(ops, trace.Op{Kind: trace.Atomic, Scope: trace.ScopeGPU, Addr: addr, Val: 1})
		}
		kern.CTAs[c] = trace.CTA{Warps: []trace.Warp{{Ops: ops}}}
	}
	// Page owned by GPM 3 (GPU 1): the .gpu atomics perform at GPU 0's
	// home node and write through across the inter-GPU link.
	tr := placeAll(&trace.Trace{Name: "gatom", Kernels: []trace.Kernel{kern}}, 1, 3)
	s, err := New(tinyConfig(proto.HMG))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(tr); err != nil {
		t.Fatal(err)
	}
	if got := s.GPMs[3].DRAM.LoadValue(addr); got != 8 {
		t.Fatalf("written-through atomic result = %d, want 8", got)
	}
}

// TestHMGSharerTrackingHierarchy: after two GPMs of GPU 1 load a line
// owned by GPU 0, the system home tracks GPU 1 (not its GPMs), and GPU
// 1's home node tracks both GPMs.
func TestHMGSharerTrackingHierarchy(t *testing.T) {
	const addr = 0 // line 0, region 0
	kern := trace.Kernel{CTAs: make([]trace.CTA, 4)}
	kern.CTAs[2] = trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{{Kind: trace.Load, Addr: addr}}}}}
	kern.CTAs[3] = trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{{Kind: trace.Load, Addr: addr, Gap: 100000}}}}}
	tr := placeAll(&trace.Trace{Name: "shar", Kernels: []trace.Kernel{kern}}, 1, 0)
	s, err := New(tinyConfig(proto.HMG))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(tr); err != nil {
		t.Fatal(err)
	}
	line := s.Cfg.Topo.LineOf(addr)
	sysDir := s.GPMs[0].Dir
	e, ok := sysDir.Dir.Lookup(sysDir.Dir.RegionOf(line))
	if !ok {
		t.Fatal("system home has no directory entry")
	}
	if e.Sharers.Count() != 1 || !e.Sharers.Has(directory.GPUBit(1)) {
		t.Fatalf("sys home sharers = %v, want exactly [GPU1]", e.Sharers)
	}
	// GPU 1's home node for line 0.
	gpuHome := s.Pages.GPUHome(1, line)
	hd := s.gpmOf(gpuHome).Dir
	eh, ok := hd.Dir.Lookup(hd.Dir.RegionOf(line))
	if !ok {
		t.Fatal("GPU home has no directory entry")
	}
	// Both requesting GPMs are tracked, except the GPU home itself when
	// it was a requester.
	wantCount := 2
	for _, g := range []topo.GPMID{2, 3} {
		if g == gpuHome {
			wantCount--
			continue
		}
		if !eh.Sharers.Has(directory.GPMBit(s.Cfg.Topo.LocalOf(g))) {
			t.Fatalf("GPU home sharers %v missing GPM%d", eh.Sharers, s.Cfg.Topo.LocalOf(g))
		}
	}
	if eh.Sharers.Count() != wantCount {
		t.Fatalf("GPU home sharers = %v, want %d GPMs", eh.Sharers, wantCount)
	}
}

// TestStoreInvalidatesRemoteSharers: a store to a shared line removes
// stale copies from sharer L2s (HMG hierarchical fan-out).
func TestStoreInvalidatesRemoteSharers(t *testing.T) {
	const addr = 0
	// Kernel 1: GPMs 2 and 3 (GPU 1) cache the line (owned by GPM 0).
	k1 := trace.Kernel{CTAs: make([]trace.CTA, 4)}
	k1.CTAs[2] = trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{{Kind: trace.Load, Addr: addr}}}}}
	k1.CTAs[3] = trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{{Kind: trace.Load, Addr: addr}}}}}
	// Kernel 2: GPM 1 stores to it.
	k2 := trace.Kernel{CTAs: make([]trace.CTA, 4)}
	k2.CTAs[1] = trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{{Kind: trace.Store, Addr: addr, Val: 5}}}}}
	tr := placeAll(&trace.Trace{Name: "inv", Kernels: []trace.Kernel{k1, k2}}, 1, 0)
	s, err := New(tinyConfig(proto.HMG))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(tr); err != nil {
		t.Fatal(err)
	}
	line := s.Cfg.Topo.LineOf(addr)
	for _, g := range []topo.GPMID{2, 3} {
		if _, present := s.GPMs[g].L2.Peek(line); present {
			t.Fatalf("GPM %d still caches the line after remote store + drain", g)
		}
	}
	// The store triggered at least one invalidation counted by the profile.
	res := s.collectResults(tr)
	if res.LinesInvByStores == 0 {
		t.Fatal("no store-triggered invalidation recorded")
	}
}

// TestHMGCoalescesInterGPUTraffic: with all four GPMs of GPU 1 reading
// the same remote lines, HMG fetches each line across the inter-GPU link
// roughly once, while NHCC fetches it once per GPM. This is the Fig. 3
// redundancy that motivates the hierarchical protocol.
func TestHMGCoalescesInterGPUTraffic(t *testing.T) {
	mk := func() *trace.Trace {
		kern := trace.Kernel{CTAs: make([]trace.CTA, 4)}
		for c := 2; c < 4; c++ { // both GPMs of GPU 1
			var ops []trace.Op
			for l := 0; l < 16; l++ {
				ops = append(ops, trace.Op{Kind: trace.Load, Addr: topo.Addr(l * 128)})
			}
			kern.CTAs[c] = trace.CTA{Warps: []trace.Warp{{Ops: ops}}}
		}
		return placeAll(&trace.Trace{Name: "coal", Kernels: []trace.Kernel{kern}}, 1, 0)
	}
	nhcc := mustRun(t, tinyConfig(proto.NHCC), mk())
	hmg := mustRun(t, tinyConfig(proto.HMG), mk())
	if hmg.InterGPULoadReqs >= nhcc.InterGPULoadReqs {
		t.Fatalf("HMG inter-GPU loads (%d) not fewer than NHCC (%d)",
			hmg.InterGPULoadReqs, nhcc.InterGPULoadReqs)
	}
	if hmg.InterGPUBytes >= nhcc.InterGPUBytes {
		t.Fatalf("HMG inter-GPU bytes (%d) not fewer than NHCC (%d)",
			hmg.InterGPUBytes, nhcc.InterGPUBytes)
	}
}

// TestSWAcquireBulkInvalidates: a .gpu acquire under software coherence
// flushes the GPM-local L2; under hardware coherence it leaves L2 alone.
func TestSWAcquireBulkInvalidates(t *testing.T) {
	mk := func() *trace.Trace {
		ops := []trace.Op{
			{Kind: trace.Load, Addr: 128 * 10},
			{Kind: trace.Load, Addr: 128 * 11},
			{Kind: trace.LoadAcq, Scope: trace.ScopeGPU, Addr: 128 * 50, Gap: 100000},
			// Re-load previously cached data.
			{Kind: trace.Load, Addr: 128 * 10},
		}
		return placeAll(warpsTrace(ops), 1, 0)
	}
	sw := mustRun(t, tinyConfig(proto.SWNonHier), mk())
	hw := mustRun(t, tinyConfig(proto.NHCC), mk())
	// Under SW the acquire flushed the L2, so the final load misses
	// again; under HW it hits. Compare L2 misses.
	if sw.L2Misses <= hw.L2Misses {
		t.Fatalf("SW L2 misses (%d) not greater than HW (%d) after acquire", sw.L2Misses, hw.L2Misses)
	}
}

// TestIdealNoInvalidations: the Ideal policy never produces invalidation
// traffic or directory activity.
func TestIdealNoInvalidations(t *testing.T) {
	kern := trace.Kernel{CTAs: make([]trace.CTA, 4)}
	for c := 0; c < 4; c++ {
		var ops []trace.Op
		for i := 0; i < 8; i++ {
			ops = append(ops, trace.Op{Kind: trace.Load, Addr: topo.Addr(i * 128)})
			ops = append(ops, trace.Op{Kind: trace.Store, Addr: topo.Addr(i * 128), Val: 9})
		}
		kern.CTAs[c] = trace.CTA{Warps: []trace.Warp{{Ops: ops}}}
	}
	tr := placeAll(&trace.Trace{Name: "ideal", Kernels: []trace.Kernel{kern}}, 1, 0)
	res := mustRun(t, tinyConfig(proto.Ideal), tr)
	if res.InvBytes != 0 || res.InvMsgsOnWire != 0 {
		t.Fatalf("ideal produced invalidation traffic: %d bytes", res.InvBytes)
	}
	if res.DirStoresSeen != 0 {
		t.Fatal("ideal consulted a directory")
	}
}

// TestNoRemoteCacheNeverCachesRemote: the baseline never holds
// remote-GPU lines in any cache.
func TestNoRemoteCacheNeverCachesRemote(t *testing.T) {
	kern := trace.Kernel{CTAs: make([]trace.CTA, 4)}
	kern.CTAs[2] = trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{
		{Kind: trace.Load, Addr: 0},
		{Kind: trace.Load, Addr: 0, Gap: 50000},
	}}}}
	tr := placeAll(&trace.Trace{Name: "norc", Kernels: []trace.Kernel{kern}}, 1, 0)
	s, err := New(tinyConfig(proto.NoRemoteCache))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	line := s.Cfg.Topo.LineOf(0)
	for g := topo.GPMID(2); g <= 3; g++ {
		if _, present := s.GPMs[g].L2.Peek(line); present {
			t.Fatalf("baseline cached a remote-GPU line in GPM %d's L2", g)
		}
	}
	if _, present := s.SMs[4].L1.Peek(line); present {
		t.Fatal("baseline cached a remote-GPU line in L1")
	}
	// Both loads crossed the inter-GPU link.
	if res.InterGPULoadReqs != 2 {
		t.Fatalf("InterGPULoadReqs = %d, want 2 (no remote caching)", res.InterGPULoadReqs)
	}
}

// TestDirectoryEvictionInvalidatesSharers: overflowing the directory
// forces entry evictions whose sharers get invalidated.
func TestDirectoryEvictionInvalidatesSharers(t *testing.T) {
	cfg := tinyConfig(proto.HMG)
	cfg.Dir.Entries = 16 // tiny directory: 2 sets × 8 ways at gran 4
	cfg.Dir.Ways = 8
	kern := trace.Kernel{CTAs: make([]trace.CTA, 4)}
	var ops []trace.Op
	// GPM 1 reads many distinct regions homed on GPM 0, overflowing its
	// directory.
	for r := 0; r < 200; r++ {
		ops = append(ops, trace.Op{Kind: trace.Load, Addr: topo.Addr(r * 4 * 128)})
	}
	kern.CTAs[1] = trace.CTA{Warps: []trace.Warp{{Ops: ops}}}
	tr := placeAll(&trace.Trace{Name: "direvict", Kernels: []trace.Kernel{kern}}, 64, 0)
	res := mustRun(t, cfg, tr)
	if res.DirEvicts == 0 {
		t.Fatal("no directory evictions despite overflow")
	}
	if res.LinesInvByEvicts == 0 {
		t.Fatal("directory evictions invalidated no lines")
	}
	if res.InvLinesPerDirEvict() <= 0 {
		t.Fatal("Fig. 10 metric not positive")
	}
}
