package gsim

import (
	"testing"

	"hmg/internal/directory"
	"hmg/internal/proto"
	"hmg/internal/topo"
	"hmg/internal/trace"
)

// TestScopedLoadsBypassL1: .gpu and .sys loads never hit (or fill) the
// L1, per the forward-progress rules of Sections IV/V.
func TestScopedLoadsBypassL1(t *testing.T) {
	for _, scope := range []trace.Scope{trace.ScopeGPU, trace.ScopeSys} {
		tr := placeAll(warpsTrace([]trace.Op{
			{Kind: trace.Load, Addr: 0},                              // fills L1
			{Kind: trace.LoadAcq, Scope: scope, Addr: 0, Gap: 50000}, // must bypass
		}), 1, 0)
		cfg := tinyConfig(proto.HMG)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		// The acquire invalidates L1 and bypasses: zero L1 hits for it.
		// (First load misses; second op must not count an L1 hit.)
		if res.L1Hits != 0 {
			t.Fatalf("scope %v: L1Hits = %d, want 0", scope, res.L1Hits)
		}
	}
}

// TestGPULoadHitsAtGPUHome: a .gpu-scoped load may hit at the GPU home
// node but must miss below it.
func TestGPULoadHitsAtGPUHome(t *testing.T) {
	cfg := tinyConfig(proto.HMG)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Page owned by GPM 3 (GPU 1); requester CTAs on GPU 0 (GPMs 0, 1).
	line := topo.Line(0)
	kern := trace.Kernel{CTAs: make([]trace.CTA, 4)}
	kern.CTAs[0] = trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{
		{Kind: trace.Load, Addr: 0}, // populates GPU home via the hierarchy
	}}}}
	kern.CTAs[1] = trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{
		{Kind: trace.LoadAcq, Scope: trace.ScopeGPU, Addr: 0, Gap: 200000},
	}}}}
	tr := placeAll(&trace.Trace{Name: "gpuhit", Kernels: []trace.Kernel{kern}}, 1, 3)
	res, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	gh := s.Pages.GPUHome(0, line)
	if _, ok := s.gpmOf(gh).L2.Peek(line); !ok {
		t.Fatal("GPU home does not hold the line after a plain load")
	}
	// The .gpu load must not have crossed to GPU 1 if it hit at GPU 0's
	// home: at most the single plain-load fetch crossed.
	if res.InterGPULoadReqs != 1 {
		t.Fatalf("InterGPULoadReqs = %d, want 1 (the .gpu load should hit the GPU home)", res.InterGPULoadReqs)
	}
}

// TestDowngradeDropsSharer: with the optional optimization enabled, a
// clean eviction at a requester slice removes it from the home's sharer
// set.
func TestDowngradeDropsSharer(t *testing.T) {
	cfg := tinyConfig(proto.HMG)
	cfg.Policy.Downgrade = true
	// Shrink the L2 to force evictions quickly.
	cfg.L2Slice.CapacityBytes = 4 * 128 * 2 // 2 sets × ... tiny
	cfg.L2Slice.Ways = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// GPM 1 loads many lines owned by GPM 0 until its tiny L2 cycles.
	var ops []trace.Op
	for i := 0; i < 64; i++ {
		ops = append(ops, trace.Op{Kind: trace.Load, Addr: topo.Addr(i * 128), Gap: 500})
	}
	kern := trace.Kernel{CTAs: make([]trace.CTA, 4)}
	kern.CTAs[1] = trace.CTA{Warps: []trace.Warp{{Ops: ops}}}
	tr := placeAll(&trace.Trace{Name: "down", Kernels: []trace.Kernel{kern}}, 8, 0)
	if _, err := s.Run(tr); err != nil {
		t.Fatal(err)
	}
	// GPM 0 and GPM 1 share GPU 0: GPM 1's requests go straight to the
	// system home. After downgrades, only lines still resident in GPM
	// 1's L2 keep it as a sharer.
	dir := s.GPMs[0].Dir
	resident := 0
	tracked := 0
	for i := 0; i < 64; i++ {
		line := topo.Line(i)
		if _, ok := s.GPMs[1].L2.Peek(line); ok {
			resident++
		}
		if e, ok := dir.Dir.Lookup(dir.Dir.RegionOf(line)); ok && e.Sharers.Has(directory.GPMBit(1)) {
			tracked++
		}
	}
	// Tracking granularity is 4 lines, so tracked regions can exceed
	// resident lines slightly, but with 60+ evictions and downgrades the
	// tracked count must be far below the full 64.
	if tracked >= 48 {
		t.Fatalf("tracked=%d of 64 despite downgrades (resident=%d)", tracked, resident)
	}
}

// TestReleaseWaitsForStores: a .sys release does not complete before the
// releasing SM's prior stores reach their system home.
func TestReleaseWaitsForStores(t *testing.T) {
	cfg := tinyConfig(proto.HMG)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Store to a remote page, then release: by completion of the warp,
	// the store must be in the remote DRAM.
	tr := placeAll(warpsTrace([]trace.Op{
		{Kind: trace.Store, Addr: 256, Val: 5},
		{Kind: trace.StoreRel, Scope: trace.ScopeSys, Addr: 512, Val: 1},
		{Kind: trace.Load, Addr: 1024}, // issued only after the release
	}), 1, 3)
	var sawRelease bool
	var storeVisibleAtRelease bool
	// Observe via a probe op: when the post-release load completes,
	// check DRAM.
	onLoad(s, func(ev Event) {
		if ev.Addr == 1024 {
			sawRelease = true
			storeVisibleAtRelease = s.GPMs[3].DRAM.LoadValue(256) == 5
		}
	})
	if _, err := s.Run(tr); err != nil {
		t.Fatal(err)
	}
	if !sawRelease {
		t.Fatal("post-release load never completed")
	}
	if !storeVisibleAtRelease {
		t.Fatal("release completed before the prior store reached its system home")
	}
}

// TestGPUReleaseCheaperThanSys: under HMG, a .gpu release completes
// without waiting on cross-GPU drains, so a workload of
// store+release pairs to remote pages finishes sooner with .gpu scope.
func TestGPUReleaseCheaperThanSys(t *testing.T) {
	mk := func(scope trace.Scope) *trace.Trace {
		var ops []trace.Op
		for i := 0; i < 10; i++ {
			ops = append(ops, trace.Op{Kind: trace.Store, Addr: topo.Addr(i * 128), Val: 1})
			ops = append(ops, trace.Op{Kind: trace.StoreRel, Scope: scope, Addr: 4096, Val: 1})
		}
		return placeAll(warpsTrace(ops), 2, 3) // pages on GPU 1, warp on GPU 0
	}
	gpu := mustRun(t, tinyConfig(proto.HMG), mk(trace.ScopeGPU))
	sys := mustRun(t, tinyConfig(proto.HMG), mk(trace.ScopeSys))
	if gpu.Cycles >= sys.Cycles {
		t.Fatalf(".gpu releases (%d cycles) not cheaper than .sys (%d)", gpu.Cycles, sys.Cycles)
	}
}

// TestMSHRMergesConcurrentFetches: two SMs of one GPM requesting the
// same remote line in the same window produce one inter-GPU fetch.
func TestMSHRMergesConcurrentFetches(t *testing.T) {
	cfg := tinyConfig(proto.HMG)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two CTAs both on GPM 1 region (CTA slots 2,3 of 8 map to GPM 1).
	kern := trace.Kernel{CTAs: make([]trace.CTA, 8)}
	kern.CTAs[2] = trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{{Kind: trace.Load, Addr: 0}}}}}
	kern.CTAs[3] = trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{{Kind: trace.Load, Addr: 0}}}}}
	tr := placeAll(&trace.Trace{Name: "mshr", Kernels: []trace.Kernel{kern}}, 1, 3)
	res, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.InterGPULoadReqs != 1 {
		t.Fatalf("InterGPULoadReqs = %d, want 1 (MSHR merge)", res.InterGPULoadReqs)
	}
}

// TestFalseSharingInvalidations: word-disjoint stores from different
// GPMs to one directory region ping-pong invalidations (the mst
// pathology of Section VII-A).
func TestFalseSharingInvalidations(t *testing.T) {
	cfg := tinyConfig(proto.HMG)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kern := trace.Kernel{CTAs: make([]trace.CTA, 4)}
	for c := 0; c < 4; c++ {
		var ops []trace.Op
		for i := 0; i < 10; i++ {
			// All four GPMs read then write their own word of line 0's
			// region.
			ops = append(ops, trace.Op{Kind: trace.Load, Addr: topo.Addr(c * 4), Gap: 2000})
			ops = append(ops, trace.Op{Kind: trace.Store, Addr: topo.Addr(c * 4), Val: uint64(i), Gap: 2000})
		}
		kern.CTAs[c] = trace.CTA{Warps: []trace.Warp{{Ops: ops}}}
	}
	tr := placeAll(&trace.Trace{Name: "false", Kernels: []trace.Kernel{kern}}, 1, 0)
	res, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.LinesInvByStores == 0 {
		t.Fatal("false sharing produced no store-triggered invalidations")
	}
	if res.InvLinesPerStore() <= 0 {
		t.Fatal("Fig. 9 metric zero under false sharing")
	}
}

// TestSWHierSysAcquireNukesWholeGPU: hierarchical software coherence
// invalidates every L2 slice of the issuing GPU on a .sys acquire.
func TestSWHierSysAcquireNukesWholeGPU(t *testing.T) {
	cfg := tinyConfig(proto.SWHier)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kern1 := trace.Kernel{CTAs: make([]trace.CTA, 4)}
	// Both GPMs of GPU 0 cache some lines.
	kern1.CTAs[0] = trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{{Kind: trace.Load, Addr: 128}}}}}
	kern1.CTAs[1] = trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{{Kind: trace.Load, Addr: 256}}}}}
	tr := placeAll(&trace.Trace{Name: "nuke", Kernels: []trace.Kernel{kern1}}, 1, 0)
	if _, err := s.Run(tr); err != nil {
		t.Fatal(err)
	}
	if s.GPMs[0].L2.Lines() == 0 && s.GPMs[1].L2.Lines() == 0 {
		t.Skip("nothing cached; cannot observe the nuke")
	}
	// Directly exercise the acquire path on SM 0.
	s.SMs[0].acquireInvalidate(trace.ScopeSys)
	if s.GPMs[0].L2.Lines() != 0 || s.GPMs[1].L2.Lines() != 0 {
		t.Fatal(".sys acquire left lines in GPU 0's L2 slices")
	}
}

// TestScatterCTAsChangesAssignment: scattering breaks contiguous
// locality — private pages get first-touched by different GPMs, and the
// run still completes deterministically.
func TestScatterCTAsChangesAssignment(t *testing.T) {
	mk := func(scatter bool) *Results {
		cfg := tinyConfig(proto.HMG)
		cfg.ScatterCTAs = scatter
		// Adjacent CTA pairs share a page placed where contiguous
		// scheduling puts both of them: CTAs 2p and 2p+1 read page p,
		// which lives on GPM p. Contiguous scheduling makes every access
		// local; scattering sends half of them across the machine.
		kern := trace.Kernel{}
		tr := &trace.Trace{Name: "scatter"}
		for c := 0; c < 8; c++ {
			var ops []trace.Op
			for i := 0; i < 8; i++ {
				ops = append(ops, trace.Op{Kind: trace.Load, Addr: topo.Addr((c/2)*4096 + i*128)})
			}
			kern.CTAs = append(kern.CTAs, trace.CTA{Warps: []trace.Warp{{Ops: ops}}})
		}
		for p := 0; p < 4; p++ {
			tr.Placement = append(tr.Placement, trace.PlacementHint{Page: topo.Page(p), GPM: topo.GPMID(p)})
		}
		tr.Kernels = []trace.Kernel{kern}
		return mustRun(t, cfg, tr)
	}
	contig := mk(false)
	scat := mk(true)
	if contig.IntraGPUBytes+contig.InterGPUBytes >= scat.IntraGPUBytes+scat.InterGPUBytes {
		t.Fatalf("scattering did not add traffic: contiguous %d+%d vs scattered %d+%d",
			contig.IntraGPUBytes, contig.InterGPUBytes, scat.IntraGPUBytes, scat.InterGPUBytes)
	}
}

// TestMCAStoreBlocksLine: under the GPU-VI multi-copy-atomic baseline, a
// store to shared data holds its home line until the sharer's
// invalidation is acknowledged, so a racing load at the home completes
// later than it would under the ack-free protocols.
func TestMCAStoreBlocksLine(t *testing.T) {
	run := func(k proto.Kind) *Results {
		// Kernel 1: GPM 3 (other GPU) caches the line → becomes a sharer.
		k1 := trace.Kernel{CTAs: make([]trace.CTA, 4)}
		k1.CTAs[3] = trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{{Kind: trace.Load, Addr: 0}}}}}
		// Kernel 2: GPM 1 stores (triggers inv to GPM 3 with ack under
		// MCA), then immediately loads the line again .sys-scoped so the
		// load must visit the home while the store may be blocking it.
		k2 := trace.Kernel{CTAs: make([]trace.CTA, 4)}
		k2.CTAs[1] = trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{
			{Kind: trace.Store, Addr: 0, Val: 1},
			{Kind: trace.LoadAcq, Scope: trace.ScopeSys, Addr: 0, Gap: 1},
		}}}}
		tr := placeAll(&trace.Trace{Name: "mca", Kernels: []trace.Kernel{k1, k2}}, 1, 0)
		return mustRun(t, tinyConfig(k), tr)
	}
	nhcc := run(proto.NHCC)
	mca := run(proto.GPUVI)
	if mca.Cycles <= nhcc.Cycles {
		t.Fatalf("MCA run (%d cycles) not slower than ack-free NHCC (%d)", mca.Cycles, nhcc.Cycles)
	}
	// The MCA run produced acknowledgment traffic; NHCC produced none.
	if nhccAcks := nhcc.InterGPUBytes + nhcc.IntraGPUBytes; nhccAcks == mca.InterGPUBytes+mca.IntraGPUBytes {
		t.Log("traffic identical; acceptable only if ack crossed zero links")
	}
}

// TestMCAMessagePassing: the multi-copy-atomic baseline still passes the
// MP litmus (it is strictly stronger than required).
func TestMCAMessagePassing(t *testing.T) {
	flag, data := runMP(t, proto.GPUVI, trace.ScopeSys, 3)
	if flag != 1 || data != 42 {
		t.Fatalf("flag=%d data=%d, want 1/42", flag, data)
	}
	flag, data = runMP(t, proto.GPUVI, trace.ScopeGPU, 1)
	if flag != 1 || data != 42 {
		t.Fatalf(".gpu: flag=%d data=%d, want 1/42", flag, data)
	}
}

// TestMCAGPMAtomicAtHome: a .gpm atomic holds its local slice's line
// lock while it fetches the line. When that slice is the line's system
// home under the multi-copy-atomic baseline, the fetch must read
// through the atomic's own lock rather than queue behind it (which
// deadlocked the kernel), and the result must reach memory.
func TestMCAGPMAtomicAtHome(t *testing.T) {
	s, err := New(tinyConfig(proto.GPUVI))
	if err != nil {
		t.Fatal(err)
	}
	var got uint64
	onLoad(s, func(ev Event) {
		if ev.Op == trace.LoadAcq {
			got = ev.Val
		}
	})
	tr := placeAll(warpsTrace([]trace.Op{
		{Kind: trace.Atomic, Scope: trace.ScopeGPM, Addr: 0x40, Val: 5},
		{Kind: trace.LoadAcq, Scope: trace.ScopeSys, Addr: 0x40},
	}), 1, 0)
	if _, err := s.Run(tr); err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf(".sys load after the .gpm atomic read %d, want 5", got)
	}
	if n := s.LiveContexts(); n != 0 {
		t.Fatalf("%d pooled contexts live after the run", n)
	}
}
