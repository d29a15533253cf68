package workload

import (
	"bytes"
	"math"
	"testing"

	"hmg/internal/topo"
	"hmg/internal/trace"
)

func expTopo() topo.Topology {
	return topo.Topology{NumGPUs: 4, GPMsPerGPU: 4, SMsPerGPM: 8, LineSize: 128, PageSize: 64 * 1024}
}

func TestSuiteComplete(t *testing.T) {
	if len(Suite()) != 20 {
		t.Fatalf("suite has %d benchmarks, want the 20 of Table III", len(Suite()))
	}
	want := map[string]bool{
		"cuSolver": true, "CoMD": true, "HPGMG": true, "MiniAMR": true,
		"MiniContact": true, "namd2.10": true, "Nekbone": true, "snap": true,
		"bfs": true, "mst": true, "AlexNet": true, "GoogLeNet": true,
		"lstm": true, "overfeat": true, "resnet": true, "RNN_DGRAD": true,
		"RNN_FW": true, "RNN_WGRAD": true, "nw-16K": true, "pathfinder": true,
	}
	for _, n := range Names() {
		if !want[n] {
			t.Errorf("unexpected benchmark %q", n)
		}
		delete(want, n)
	}
	for n := range want {
		t.Errorf("missing Table III benchmark %q", n)
	}
}

func TestAllParamsValid(t *testing.T) {
	for _, p := range Suite() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Abbrev, err)
		}
	}
}

func TestGet(t *testing.T) {
	p, err := Get("mst")
	if err != nil {
		t.Fatal(err)
	}
	if !p.FalseSharing {
		t.Error("mst must model false sharing (paper §VII-A)")
	}
	if p.SyncScope != trace.ScopeGPU {
		t.Error("mst must use .gpu-scoped synchronization (paper §VI)")
	}
	if _, err := Get("nosuch"); err == nil {
		t.Error("Get accepted unknown benchmark")
	}
}

func TestExplicitScopedSyncBenchmarks(t *testing.T) {
	// The paper names cuSolver, namd2.10, and mst as explicit .gpu-scope
	// synchronizers.
	for _, n := range []string{"cuSolver", "namd2.10", "mst"} {
		p, err := Get(n)
		if err != nil {
			t.Fatal(err)
		}
		if p.SyncScope != trace.ScopeGPU {
			t.Errorf("%s: SyncScope = %v, want .gpu", n, p.SyncScope)
		}
	}
}

func TestGenerateValidates(t *testing.T) {
	tt := expTopo()
	for _, p := range Suite() {
		tr := p.Generate(tt, 0.1)
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: generated invalid trace: %v", p.Abbrev, err)
		}
		if tr.Ops() == 0 {
			t.Errorf("%s: empty trace", p.Abbrev)
		}
		if len(tr.Placement) == 0 {
			t.Errorf("%s: no placement hints", p.Abbrev)
		}
		if len(tr.Kernels) != p.Kernels {
			t.Errorf("%s: %d kernels, want %d", p.Abbrev, len(tr.Kernels), p.Kernels)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := Get("lstm")
	tt := expTopo()
	a := p.Generate(tt, 0.1)
	b := p.Generate(tt, 0.1)
	var ba, bb bytes.Buffer
	if err := trace.Encode(&ba, a); err != nil {
		t.Fatal(err)
	}
	if err := trace.Encode(&bb, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("generation is not deterministic")
	}
}

func TestScaleShrinksOps(t *testing.T) {
	p, _ := Get("snap")
	tt := expTopo()
	full := p.Generate(tt, 1.0).Ops()
	small := p.Generate(tt, 0.25).Ops()
	if small >= full {
		t.Fatalf("scale 0.25 ops (%d) not fewer than full (%d)", small, full)
	}
}

func TestCrossKernelReuse(t *testing.T) {
	// Kernels of one benchmark touch the same working set: the address
	// sets of kernel 0 and kernel 1 overlap heavily.
	p, _ := Get("nw-16K")
	tt := expTopo()
	tr := p.Generate(tt, 0.2)
	addrs := func(k int) map[topo.Addr]bool {
		m := map[topo.Addr]bool{}
		for _, c := range tr.Kernels[k].CTAs {
			for _, w := range c.Warps {
				for _, op := range w.Ops {
					m[op.Addr] = true
				}
			}
		}
		return m
	}
	a0, a1 := addrs(0), addrs(1)
	common := 0
	for a := range a1 {
		if a0[a] {
			common++
		}
	}
	if frac := float64(common) / float64(len(a1)); frac < 0.7 {
		t.Fatalf("cross-kernel address overlap = %.2f, want >= 0.7 (CrossKernelReuse 0.9)", frac)
	}
}

// TestCrossKernelFreshness: a bulk-synchronous benchmark with low
// CrossKernelReuse touches mostly fresh data each kernel.
func TestCrossKernelFreshness(t *testing.T) {
	p, _ := Get("pathfinder")
	p.CrossKernelReuse = 0.2 // force a mostly-fresh variant
	tt := expTopo()
	tr := p.Generate(tt, 0.2)
	addrs := func(k int) map[topo.Addr]bool {
		m := map[topo.Addr]bool{}
		for _, c := range tr.Kernels[k].CTAs {
			for _, w := range c.Warps {
				for _, op := range w.Ops {
					m[op.Addr] = true
				}
			}
		}
		return m
	}
	a0, a1 := addrs(0), addrs(1)
	common := 0
	for a := range a1 {
		if a0[a] {
			common++
		}
	}
	hi := float64(common) / float64(len(a1))
	// Compare against a high-reuse benchmark: pathfinder must overlap
	// substantially less than nw-16K.
	if hi > 0.6 {
		t.Fatalf("pathfinder cross-kernel overlap = %.2f, want < 0.6", hi)
	}
}

func TestRedundancyTracksParameter(t *testing.T) {
	// Fig. 3: benchmarks with higher Redundancy parameters must show
	// higher measured inter-GPU load redundancy.
	tt := expTopo()
	measure := func(name string) float64 {
		p, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		return InterGPURedundancy(p.Generate(tt, 0.2), tt)
	}
	hi := measure("MiniAMR")  // Redundancy 0.97
	lo := measure("namd2.10") // Redundancy 0.45
	if hi <= lo {
		t.Fatalf("MiniAMR redundancy (%.2f) not above namd2.10 (%.2f)", hi, lo)
	}
	if hi < 0.5 {
		t.Fatalf("MiniAMR measured redundancy %.2f unreasonably low", hi)
	}
}

func TestSyncOpsPresent(t *testing.T) {
	tt := expTopo()
	p, _ := Get("cuSolver")
	st := Summarize(p.Generate(tt, 0.3), tt)
	if st.Syncs == 0 {
		t.Fatal("cuSolver generated no synchronization ops")
	}
	p2, _ := Get("overfeat")
	st2 := Summarize(p2.Generate(tt, 0.3), tt)
	if st2.Syncs != 0 {
		t.Fatal("overfeat (bulk-synchronous) generated sync ops")
	}
}

func TestStoresRespectReadFrac(t *testing.T) {
	tt := expTopo()
	for _, name := range []string{"mst", "overfeat"} {
		p, _ := Get(name)
		st := Summarize(p.Generate(tt, 0.3), tt)
		frac := float64(st.Stores) / float64(st.Loads+st.Stores)
		if frac <= 0 || frac >= 0.6 {
			t.Errorf("%s: store fraction %.2f implausible", name, frac)
		}
	}
}

func TestFalseSharingWritesDisjointWords(t *testing.T) {
	tt := expTopo()
	p, _ := Get("bfs")
	tr := p.Generate(tt, 0.2)
	// Find a line written by two different GPMs at different words.
	type writer struct{ gpms, words map[uint64]bool }
	byLine := map[topo.Line]*writer{}
	forEachOp(tr, tt, func(g topo.GPMID, op trace.Op) {
		if op.Kind != trace.Store {
			return
		}
		l := tt.LineOf(op.Addr)
		w := byLine[l]
		if w == nil {
			w = &writer{map[uint64]bool{}, map[uint64]bool{}}
			byLine[l] = w
		}
		w.gpms[uint64(g)] = true
		w.words[uint64(op.Addr)%128/4] = true
	})
	found := false
	for _, w := range byLine {
		if len(w.gpms) >= 2 && len(w.words) >= 2 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no multi-GPM multi-word (false-shared) line found in bfs")
	}
}

func TestInterGPURedundancyEdgeCases(t *testing.T) {
	tt := expTopo()
	// A trace with no inter-GPU loads yields 0.
	tr := &trace.Trace{Name: "local", Kernels: []trace.Kernel{{CTAs: []trace.CTA{
		{Warps: []trace.Warp{{Ops: []trace.Op{{Kind: trace.Load, Addr: 0}}}}},
	}}}}
	if got := InterGPURedundancy(tr, tt); got != 0 {
		t.Fatalf("redundancy of local-only trace = %v", got)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	good, _ := Get("lstm")
	cases := []func(*Params){
		func(p *Params) { p.Name = "" },
		func(p *Params) { p.FootprintMB = 0 },
		func(p *Params) { p.Kernels = 0 },
		func(p *Params) { p.ReadFrac = 1.5 },
		func(p *Params) { p.Redundancy = -0.1 },
		func(p *Params) { p.SyncScope = trace.ScopeGPU; p.SyncEvery = 0 },
	}
	for i, mut := range cases {
		p := good
		mut(&p)
		if p.Validate() == nil {
			t.Errorf("case %d: bad params accepted", i)
		}
	}
}

func TestGeneratePanicsOnBadScale(t *testing.T) {
	p, _ := Get("lstm")
	for _, scale := range []float64{0, -1, 2, math.NaN()} {
		if CheckScale(scale) == nil {
			t.Errorf("CheckScale(%v) accepted an out-of-range scale", scale)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Generate with scale %v did not panic", scale)
				}
			}()
			p.Generate(expTopo(), scale)
		}()
	}
}
