package gsim

import (
	"testing"

	"hmg/internal/proto"
	"hmg/internal/topo"
	"hmg/internal/trace"
)

// TestCARVEClassTransitions walks the private → read-only → read-write
// classification sequence.
func TestCARVEClassTransitions(t *testing.T) {
	s, err := New(tinyConfig(proto.CARVE))
	if err != nil {
		t.Fatal(err)
	}
	s.Pages.Touch(0, 0)
	line := topo.Line(0)
	if got := s.classOf(line); got != classUntouched {
		t.Fatalf("initial class = %d", got)
	}
	s.classifyLoad(line, 1)
	if got := s.classOf(line); got != classPrivate {
		t.Fatalf("after first load = %d, want private", got)
	}
	s.classifyLoad(line, 1) // same accessor: stays private
	if got := s.classOf(line); got != classPrivate {
		t.Fatalf("repeat load = %d, want private", got)
	}
	s.classifyLoad(line, 2)
	if got := s.classOf(line); got != classReadOnly {
		t.Fatalf("second accessor = %d, want read-only", got)
	}
	if bc := s.classifyStore(line, 1); !bc {
		t.Fatal("store to read-only region did not broadcast")
	}
	if got := s.classOf(line); got != classReadWrite {
		t.Fatalf("after store = %d, want read-write", got)
	}
	// Further stores broadcast no more: remote copies cannot exist.
	if bc := s.classifyStore(line, 2); bc {
		t.Fatal("store to read-write region broadcast again")
	}
}

// TestCARVEPrivateStoresFree: a region written only by its private owner
// never broadcasts.
func TestCARVEPrivateStoresFree(t *testing.T) {
	s, err := New(tinyConfig(proto.CARVE))
	if err != nil {
		t.Fatal(err)
	}
	s.Pages.Touch(0, 0)
	if bc := s.classifyStore(0, 3); bc {
		t.Fatal("first store broadcast")
	}
	for i := 0; i < 5; i++ {
		if bc := s.classifyStore(0, 3); bc {
			t.Fatal("private store broadcast")
		}
	}
}

// TestCARVERWNotCachedRemotely: once a region goes read-write, remote
// GPMs stop caching it and re-fetch on every access.
func TestCARVERWNotCachedRemotely(t *testing.T) {
	// Kernel 1: GPM 1 reads (private→RO once GPM 2 also reads); kernel
	// 2: GPM 2 writes (→RW, broadcast); kernel 3: GPM 1 reads twice —
	// both reads must cross to the home (no caching).
	k1 := trace.Kernel{CTAs: make([]trace.CTA, 4)}
	k1.CTAs[1] = trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{{Kind: trace.Load, Addr: 0}}}}}
	k1.CTAs[2] = trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{{Kind: trace.Load, Addr: 0, Gap: 50000}}}}}
	k2 := trace.Kernel{CTAs: make([]trace.CTA, 4)}
	k2.CTAs[2] = trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{{Kind: trace.Store, Addr: 0, Val: 5}}}}}
	k3 := trace.Kernel{CTAs: make([]trace.CTA, 4)}
	k3.CTAs[3] = trace.CTA{Warps: []trace.Warp{{Ops: []trace.Op{
		{Kind: trace.Load, Addr: 0},
		{Kind: trace.Load, Addr: 0, Gap: 100000},
	}}}}
	tr := placeAll(&trace.Trace{Name: "carve-rw", Kernels: []trace.Kernel{k1, k2, k3}}, 1, 0)
	s, err := New(tinyConfig(proto.CARVE))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.classOf(0); got != classReadWrite {
		t.Fatalf("class = %d, want read-write", got)
	}
	line := s.Cfg.Topo.LineOf(0)
	if _, cached := s.GPMs[3].L2.Peek(line); cached {
		t.Fatal("read-write region cached remotely under CARVE")
	}
	// GPM 3 is on GPU 1; home is GPM 0 (GPU 0): both kernel-3 loads
	// crossed the inter-GPU link.
	if res.InterGPULoadReqs < 2 {
		t.Fatalf("InterGPULoadReqs = %d, want >= 2 (no remote caching of RW data)", res.InterGPULoadReqs)
	}
	// The RW transition broadcast to every other GPM once.
	if res.InvMsgsOnWire != 3 {
		t.Fatalf("broadcast invs = %d, want 3 (one per other GPM)", res.InvMsgsOnWire)
	}
}

// TestCARVEMessagePassing: CARVE still passes the MP litmus — the
// broadcast plus no-remote-caching of RW data keeps release/acquire
// visibility intact.
func TestCARVEMessagePassing(t *testing.T) {
	flag, data := runMP(t, proto.CARVE, trace.ScopeSys, 3)
	if flag != 1 {
		t.Fatalf("flag = %d, want 1", flag)
	}
	if data != 42 {
		t.Fatalf("data = %d, want 42", data)
	}
}

// TestCARVENoDirectory: CARVE runs without any coherence directory.
func TestCARVENoDirectory(t *testing.T) {
	s, err := New(tinyConfig(proto.CARVE))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range s.GPMs {
		if g.Dir != nil {
			t.Fatal("CARVE allocated a directory")
		}
	}
	if s.classes == nil {
		t.Fatal("CARVE missing classification table")
	}
}
