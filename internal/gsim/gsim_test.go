package gsim

import (
	"strconv"
	"testing"

	"hmg/internal/cache"
	"hmg/internal/directory"
	"hmg/internal/engine"
	"hmg/internal/link"
	"hmg/internal/memory"
	"hmg/internal/msg"
	"hmg/internal/proto"
	"hmg/internal/topo"
	"hmg/internal/trace"
)

// tinyConfig returns a 2-GPU × 2-GPM × 2-SM system with small caches and
// value tracking, for functional tests.
func tinyConfig(k proto.Kind) Config {
	return Config{
		Topo: topo.Topology{
			NumGPUs: 2, GPMsPerGPU: 2, SMsPerGPM: 2,
			LineSize: 128, PageSize: 4096,
		},
		Net:  link.DefaultNetConfig(),
		DRAM: memory.Config{BandwidthGBs: 250, Latency: 100, LineSize: 128},
		L1:   cache.Config{CapacityBytes: 8 * 1024, LineSize: 128, Ways: 4},
		L2Slice: cache.Config{
			CapacityBytes: 64 * 1024, LineSize: 128, Ways: 8,
		},
		Dir:             directory.Config{Entries: 256, Ways: 8, GranLines: 4},
		Policy:          proto.For(k),
		FrequencyHz:     engine.DefaultFrequencyHz,
		L1Latency:       10,
		L2Latency:       30,
		MaxWarpInflight: 4,
		MaxSMInflight:   16,
		TrackValues:     true,
	}
}

// oneWarpTrace builds a trace with a single kernel whose CTA i runs on a
// deterministic GPM (via contiguous scheduling) with the given ops.
func warpsTrace(warpOps ...[]trace.Op) *trace.Trace {
	k := trace.Kernel{}
	for _, ops := range warpOps {
		k.CTAs = append(k.CTAs, trace.CTA{Warps: []trace.Warp{{Ops: ops}}})
	}
	return &trace.Trace{Name: "test", Kernels: []trace.Kernel{k}}
}

// placeAll pins every page of the trace's address range to a GPM.
func placeAll(tr *trace.Trace, pages int, gpm topo.GPMID) *trace.Trace {
	for p := 0; p < pages; p++ {
		tr.Placement = append(tr.Placement, trace.PlacementHint{Page: topo.Page(p), GPM: gpm})
	}
	return tr
}

func mustRun(t *testing.T, cfg Config, tr *trace.Trace) *Results {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := s.Run(tr)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func allKinds() []proto.Kind {
	return []proto.Kind{proto.NoRemoteCache, proto.SWNonHier, proto.SWHier, proto.NHCC, proto.HMG, proto.Ideal}
}

// TestNewAllocationsIndependentOfSize: New builds every part from one
// slab per kind of part, so a 16×8 machine costs as many allocations as
// the 4×4 one, under every policy. The caches are shrunk to keep the
// 1,024-SM machine small; their size never changes the count.
func TestNewAllocationsIndependentOfSize(t *testing.T) {
	for _, k := range append(allKinds(), proto.GPUVI, proto.CARVE) {
		var counts []float64
		for _, shape := range []string{"4x4", "16x8"} {
			sp, err := topo.ParseSpec(shape)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(8, k)
			cfg.Topo = sp.Apply(cfg.Topo)
			cfg.L1.CapacityBytes = 8 * 1024
			cfg.L2Slice.CapacityBytes = 64 * 1024
			counts = append(counts, testing.AllocsPerRun(2, func() {
				if _, err := New(cfg); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if counts[0] != counts[1] {
			t.Errorf("%v: New makes %v allocations at 4x4 and %v at 16x8", k, counts[0], counts[1])
		}
	}
}

func TestConfigValidate(t *testing.T) {
	for _, k := range allKinds() {
		if err := tinyConfig(k).Validate(); err != nil {
			t.Errorf("%v config invalid: %v", k, err)
		}
		if err := DefaultConfig(8, k).Validate(); err != nil {
			t.Errorf("%v default config invalid: %v", k, err)
		}
	}
	bad := tinyConfig(proto.HMG)
	bad.MaxWarpInflight = 0
	if bad.Validate() == nil {
		t.Error("zero MaxWarpInflight accepted")
	}
	bad2 := tinyConfig(proto.HMG)
	bad2.L1.LineSize = 64
	if bad2.Validate() == nil {
		t.Error("mismatched line size accepted")
	}
	// A pooled context names GPMs in 16 bits: the largest machine is
	// accepted, one GPM more is an error rather than a panic, and so is
	// a shape whose GPM count overflows int (1<<62 squared on 64-bit
	// hosts).
	const huge = 1 << (strconv.IntSize - 2)
	for _, tc := range []struct {
		gpus, gpms int
		ok         bool
	}{{MaxGPMs, 1, true}, {MaxGPMs + 1, 1, false}, {1 << 16, 1 << 16, false}, {huge, huge, false}} {
		big := tinyConfig(proto.SWHier)
		big.Topo.NumGPUs, big.Topo.GPMsPerGPU = tc.gpus, tc.gpms
		if err := big.Validate(); (err == nil) != tc.ok {
			t.Errorf("%dx%d GPMs: Validate = %v", tc.gpus, tc.gpms, err)
		}
	}
}

func TestDefaultConfigMatchesTableII(t *testing.T) {
	c := DefaultConfig(32, proto.HMG)
	if c.Topo.NumGPUs != 4 || c.Topo.GPMsPerGPU != 4 {
		t.Error("topology is not 4 GPUs × 4 GPMs")
	}
	if c.Topo.TotalSMs() != 512 {
		t.Errorf("TotalSMs = %d, want 512", c.Topo.TotalSMs())
	}
	if c.L2Slice.CapacityBytes*c.Topo.GPMsPerGPU != 12<<20 {
		t.Error("L2 is not 12MB per GPU")
	}
	if c.Dir.Entries != 12*1024 {
		t.Error("directory is not 12K entries per GPM")
	}
	if c.Net.NVLinkGBs != 200 {
		t.Error("inter-GPU bandwidth is not 200 GB/s")
	}
	if c.FrequencyHz != 1.3e9 {
		t.Error("frequency is not 1.3 GHz")
	}
	if c.Topo.PageSize != 2<<20 {
		t.Error("page size is not 2MB")
	}
}

// TestSingleLoadAllProtocols: a single load completes and returns under
// every protocol, and the simulation drains.
func TestSingleLoadAllProtocols(t *testing.T) {
	for _, k := range allKinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			tr := warpsTrace([]trace.Op{{Kind: trace.Load, Addr: 0}})
			res := mustRun(t, tinyConfig(k), tr)
			if res.Ops != 1 || res.Loads != 1 {
				t.Fatalf("ops=%d loads=%d", res.Ops, res.Loads)
			}
			if res.Cycles == 0 {
				t.Fatal("zero cycles")
			}
		})
	}
}

// TestLoadHitsAfterFill: a repeated load hits the L1 the second time and
// is much faster.
func TestLoadHitsAfterFill(t *testing.T) {
	tr := warpsTrace([]trace.Op{
		{Kind: trace.Load, Addr: 0},
		{Kind: trace.Load, Addr: 0, Gap: 1000},
	})
	res := mustRun(t, tinyConfig(proto.HMG), tr)
	if res.L1Hits != 1 {
		t.Fatalf("L1Hits = %d, want 1", res.L1Hits)
	}
}

// TestStoreValueReachesDRAM: a store's value lands in the system home's
// DRAM partition.
func TestStoreValueReachesDRAM(t *testing.T) {
	for _, k := range allKinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			// Page 0 placed on GPM 3 (GPU 1); the storing CTA runs on GPM 0.
			tr := placeAll(warpsTrace([]trace.Op{
				{Kind: trace.Store, Addr: 256, Val: 77},
			}), 1, 3)
			cfg := tinyConfig(k)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Run(tr); err != nil {
				t.Fatal(err)
			}
			if got := s.GPMs[3].DRAM.LoadValue(256); got != 77 {
				t.Fatalf("DRAM value = %d, want 77", got)
			}
		})
	}
}

// TestRemoteLoadReturnsStoredValue: kernel 1 stores on the home GPM;
// kernel 2 (dependent) loads from a remote GPU and must see the value —
// kernel boundaries are .sys release/acquire pairs.
func TestRemoteLoadReturnsStoredValue(t *testing.T) {
	for _, k := range allKinds() {
		if k == proto.Ideal {
			continue // Ideal is deliberately incoherent
		}
		k := k
		t.Run(k.String(), func(t *testing.T) {
			got := uint64(0)
			// CTA 0 → GPM 0 (GPU 0). Page on GPM 0. Kernel 2's CTAs: put
			// 4 CTAs so CTA 3 lands on GPM 3 (GPU 1) and loads remotely.
			tr := placeAll(&trace.Trace{
				Name: "mp",
				Kernels: []trace.Kernel{
					{CTAs: []trace.CTA{{Warps: []trace.Warp{{Ops: []trace.Op{
						{Kind: trace.Store, Addr: 512, Val: 99},
					}}}}}},
					{CTAs: []trace.CTA{
						{}, {}, {},
						{Warps: []trace.Warp{{Ops: []trace.Op{
							{Kind: trace.Load, Addr: 512},
						}}}},
					}},
				},
			}, 1, 0)
			cfg := tinyConfig(k)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			onLoad(s, func(ev Event) { got = ev.Val })
			if _, err := s.Run(tr); err != nil {
				t.Fatal(err)
			}
			if got != 99 {
				t.Fatalf("remote load after kernel boundary = %d, want 99", got)
			}
		})
	}
}

// TestDeterminism: identical runs produce identical cycle counts and
// traffic.
func TestDeterminism(t *testing.T) {
	tr := warpsTrace(
		[]trace.Op{{Kind: trace.Load, Addr: 0}, {Kind: trace.Store, Addr: 128, Val: 1}, {Kind: trace.Load, Addr: 4096}},
		[]trace.Op{{Kind: trace.Load, Addr: 128}, {Kind: trace.Store, Addr: 0, Val: 2}},
		[]trace.Op{{Kind: trace.Atomic, Scope: trace.ScopeSys, Addr: 8192}},
	)
	run := func() *Results { return mustRun(t, tinyConfig(proto.HMG), tr) }
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.InterGPUBytes != b.InterGPUBytes || a.EventsExecuted != b.EventsExecuted {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

// TestKernelBarrierDrains: a trace ending in stores leaves no pending
// gates after Run.
func TestKernelBarrierDrains(t *testing.T) {
	var ops []trace.Op
	for i := 0; i < 20; i++ {
		ops = append(ops, trace.Op{Kind: trace.Store, Addr: topo.Addr(i * 128), Val: uint64(i)})
	}
	cfg := tinyConfig(proto.HMG)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(warpsTrace(ops)); err != nil {
		t.Fatal(err)
	}
	for _, sm := range s.SMs {
		if sm.sysHomeGate.Pending() != 0 || sm.gpuHomeGate.Pending() != 0 {
			t.Fatal("store gates not drained at kernel end")
		}
	}
	for _, g := range s.GPMs {
		if g.invAll.Pending() != 0 {
			t.Fatal("invalidation gates not drained at kernel end")
		}
	}
}

// TestDrainCyclesCountStoreBoundEnds pins what DrainCycles measures. A
// store is posted: it retires at its warp one L1 latency after issue,
// and the kernel-end barrier then waits for it to reach its home, so a
// kernel whose last op is a remote store spends all but that L1 latency
// draining. A load retires only when its data returns, so a load-only
// kernel drains nothing.
func TestDrainCyclesCountStoreBoundEnds(t *testing.T) {
	cfg := tinyConfig(proto.HMG)
	// The warp runs on GPM 0 (GPU 0); page 0 lives on GPM 2 (GPU 1).
	store := mustRun(t, cfg, placeAll(warpsTrace([]trace.Op{{Kind: trace.Store, Addr: 0x80, Val: 1}}), 1, 2))
	if want := store.KernelCycles[0] - cfg.L1Latency; store.DrainCycles != want || want <= 0 {
		t.Errorf("remote store kernel: DrainCycles = %d of %d kernel cycles, want %d",
			store.DrainCycles, store.KernelCycles[0], want)
	}
	load := mustRun(t, cfg, placeAll(warpsTrace([]trace.Op{{Kind: trace.Load, Addr: 0x80}}), 1, 2))
	if load.DrainCycles != 0 {
		t.Errorf("load-only kernel: DrainCycles = %d, want 0", load.DrainCycles)
	}
}

// TestWarpListsHoldRunningKernel: each launch restarts every SM's warp
// list with the new kernel's warps, so after a 3-kernel run the lists
// hold exactly the last kernel's warps and none retired in an earlier
// kernel; an empty last kernel leaves every list empty.
func TestWarpListsHoldRunningKernel(t *testing.T) {
	kernel := func(base topo.Addr) trace.Kernel {
		var k trace.Kernel
		for c := 0; c < 6; c++ {
			a := base + topo.Addr(c)*128
			k.CTAs = append(k.CTAs, trace.CTA{Warps: []trace.Warp{
				{Ops: []trace.Op{{Kind: trace.Load, Addr: a}}},
				{Ops: []trace.Op{{Kind: trace.Store, Addr: a + 4, Val: 1}}},
			}})
		}
		return k
	}
	run := func(tr *trace.Trace) *System {
		s, err := New(tinyConfig(proto.HMG))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(tr); err != nil {
			t.Fatal(err)
		}
		return s
	}
	tr := &trace.Trace{Name: "warplists", Kernels: []trace.Kernel{kernel(0), kernel(0x1000), kernel(0x2000)}}
	s := run(tr)
	last := make(map[*trace.Op]bool)
	for _, cta := range tr.Kernels[2].CTAs {
		for w := range cta.Warps {
			last[&cta.Warps[w].Ops[0]] = true
		}
	}
	resident := 0
	for _, sm := range s.SMs {
		for _, w := range sm.warps {
			if !last[&w.ops[0]] {
				t.Errorf("SM %d holds a warp of an earlier kernel", sm.id)
			}
			if w.sm != sm {
				t.Errorf("SM %d holds a warp of SM %d", sm.id, w.sm.id)
			}
			delete(last, &w.ops[0])
			resident++
		}
	}
	if resident != 12 || len(last) != 0 {
		t.Errorf("%d warps resident, %d of the last kernel missing; want 12 and 0", resident, len(last))
	}

	tr.Kernels[2] = trace.Kernel{CTAs: []trace.CTA{{}}}
	for _, sm := range run(tr).SMs {
		if len(sm.warps) != 0 {
			t.Errorf("SM %d holds %d warps after an empty last kernel", sm.id, len(sm.warps))
		}
	}
}

// TestEmptyKernel: kernels with no ops complete.
func TestEmptyKernel(t *testing.T) {
	tr := &trace.Trace{Name: "empty", Kernels: []trace.Kernel{
		{CTAs: []trace.CTA{{}}},
		{CTAs: []trace.CTA{{Warps: []trace.Warp{{Ops: []trace.Op{{Kind: trace.Load, Addr: 0}}}}}}},
	}}
	res := mustRun(t, tinyConfig(proto.HMG), tr)
	if len(res.KernelCycles) != 2 {
		t.Fatalf("KernelCycles = %v", res.KernelCycles)
	}
}

// TestMultiKernelCyclesAccumulate: cycles grow across kernels.
func TestMultiKernelCyclesAccumulate(t *testing.T) {
	tr := &trace.Trace{Name: "seq", Kernels: []trace.Kernel{
		{CTAs: []trace.CTA{{Warps: []trace.Warp{{Ops: []trace.Op{{Kind: trace.Load, Addr: 0}}}}}}},
		{CTAs: []trace.CTA{{Warps: []trace.Warp{{Ops: []trace.Op{{Kind: trace.Load, Addr: 0}}}}}}},
	}}
	res := mustRun(t, tinyConfig(proto.NHCC), tr)
	if res.Cycles <= res.KernelCycles[0] {
		t.Fatal("second kernel took no time")
	}
}

// TestLaunchKernelReusesScratch checks that, once a System has launched
// a kernel as large, a launch allocates nothing. The per-GPM CTA counts,
// the per-SM warp counts, the assignment list, the warp contexts and the
// SMs' warp lists are the System's, reset by each launch. Reusing the
// warp contexts is safe because a launch follows a drained boundary,
// where no context holds a warp: the checker's quiescence scan allows
// only downgrade notices in flight, and those carry no warp.
func TestLaunchKernelReusesScratch(t *testing.T) {
	s, err := New(tinyConfig(proto.HMG))
	if err != nil {
		t.Fatal(err)
	}
	var k trace.Kernel
	for c := 0; c < 8; c++ {
		a := topo.Addr(c) * 128
		k.CTAs = append(k.CTAs, trace.CTA{Warps: []trace.Warp{
			{Ops: []trace.Op{{Kind: trace.Load, Addr: a}}},
			{Ops: []trace.Op{{Kind: trace.Load, Addr: a + 0x1000}}},
		}})
	}
	tr := &trace.Trace{Name: "launch", Kernels: []trace.Kernel{k}}
	if _, err := s.Run(tr); err != nil {
		t.Fatal(err)
	}
	launch := func() {
		s.drained = false
		s.launchKernel(&tr.Kernels[0])
		s.Eng.Run(engine.MaxCycle)
		if !s.drained {
			t.Fatal("kernel did not drain")
		}
	}
	launch()
	if n := testing.AllocsPerRun(20, launch); n != 0 {
		t.Fatalf("a kernel launch makes %v allocations, want 0", n)
	}
}

// onLoad calls fn with every completed load's EvLoadDone event.
func onLoad(s *System, fn func(Event)) {
	s.Observe(func(ev Event) {
		if ev.Kind == EvLoadDone {
			fn(ev)
		}
	})
}

// TestObserveOrder: Observe runs a sink assigned to OnEvent directly
// first, then the observed sinks in attach order, on every event.
func TestObserveOrder(t *testing.T) {
	s, err := New(tinyConfig(proto.HMG))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	s.OnEvent = func(Event) { got = append(got, "direct") }
	s.Observe(func(Event) { got = append(got, "first") })
	s.Observe(func(Event) { got = append(got, "second") })
	tr := placeAll(warpsTrace([]trace.Op{
		{Kind: trace.Store, Addr: 0x40, Val: 1},
		{Kind: trace.Load, Addr: 0x40},
	}), 1, 3)
	if _, err := s.Run(tr); err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got)%3 != 0 {
		t.Fatalf("sinks ran %d times, want a nonzero multiple of 3", len(got))
	}
	for i, name := range got {
		if want := []string{"direct", "first", "second"}[i%3]; name != want {
			t.Fatalf("call %d ran %q, want %q", i, name, want)
		}
	}
}

// TestResetReturnsContextsInFlight: a machine reset with contexts still
// in flight — one waiting in the engine, one carried by a route, as a
// downgrade notice is when Run returns — gets every context and route
// back on its free list and nothing left pending, even when the new
// configuration is a different shape.
func TestResetReturnsContextsInFlight(t *testing.T) {
	s, err := New(tinyConfig(proto.HMG))
	if err != nil {
		t.Fatal(err)
	}
	s.Eng.ScheduleHandler(5, s.newCtx(stageNone))
	s.Net.SendHandler(0, topo.GPMID(len(s.GPMs)-1), msg.Downgrade, s.newCtx(stageNone))
	if n := s.LiveContexts(); n != 3 {
		t.Fatalf("%d contexts and routes live before the reset, want 3", n)
	}
	cfg := tinyConfig(proto.NHCC)
	cfg.Topo.NumGPUs = 4
	s.OnEvent = func(Event) {}
	if err := s.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	free := 0
	for c := s.ctxFree; c != nil; c = c.next {
		if c.stage != stageFree || c.s != s {
			t.Fatal("a context on the free list is not a free context of this machine")
		}
		free++
	}
	if free != s.ctxs || s.LiveContexts() != 0 || s.Eng.Pending() != 0 || s.OnEvent != nil || len(s.GPMs) != 8 {
		t.Fatalf("after Reset: %d of %d contexts free, %d live, %d events pending, OnEvent kept %v, %d GPMs",
			free, s.ctxs, s.LiveContexts(), s.Eng.Pending(), s.OnEvent != nil, len(s.GPMs))
	}
}
