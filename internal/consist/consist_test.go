package consist

import (
	"math/rand"
	"testing"

	"hmg/internal/gsim"
	"hmg/internal/proto"
	"hmg/internal/topo"
	"hmg/internal/trace"
)

func coherent() []proto.Kind {
	return []proto.Kind{proto.NoRemoteCache, proto.SWNonHier, proto.SWHier, proto.NHCC, proto.HMG}
}

// TestMessagePassingLitmus runs the canonical MP litmus at both scopes
// under every coherent protocol: a late acquire that observes the flag
// must observe the data.
func TestMessagePassingLitmus(t *testing.T) {
	const data, flag = 0x100, 0x200
	for _, k := range coherent() {
		for _, tc := range []struct {
			scope  trace.Scope
			reader int
		}{
			{trace.ScopeGPU, 1}, // same-GPU reader
			{trace.ScopeSys, 3}, // other-GPU reader
		} {
			prog := New("mp").
				Thread(0,
					trace.Op{Kind: trace.Store, Addr: data, Val: 42},
					trace.Op{Kind: trace.StoreRel, Scope: tc.scope, Addr: flag, Val: 1}).
				Thread(tc.reader,
					trace.Op{Kind: trace.LoadAcq, Scope: tc.scope, Addr: flag, Gap: 2_000_000},
					trace.Op{Kind: trace.Load, Addr: data}).
				Warmup(tc.reader, data, flag).
				Build()
			r, err := Run(SmallConfig(k), prog)
			if err != nil {
				t.Fatalf("%v/%v: %v", k, tc.scope, err)
			}
			f, ok := r.Value(1, 0)
			if !ok || f != 1 {
				t.Fatalf("%v/%v: flag = %d (observed %v), want 1", k, tc.scope, f, ok)
			}
			d, ok := r.Value(1, 1)
			if !ok || d != 42 {
				t.Fatalf("%v/%v: data after acquire = %d, want 42", k, tc.scope, d)
			}
		}
	}
}

// TestLoadsCreditedToTheirWarp: two warps on one GPM load one address
// and have those loads in flight at once, and the later-issued load
// completes first. Each value must be credited to the warp whose load
// read it. Warp A (thread 0, on GPM 1's first SM) loads X once, late,
// after thread 2's store X=7 at the home has invalidated GPM 1's slice,
// so it misses to the home and reads 7. Warp B (thread 1, on GPM 1's
// second SM) loads X early, reading 0 into its L1, and again five
// cycles after A's load issues, hitting its stale L1 copy: 0, and long
// before A's load returns. Matching on the GPM alone would credit B's
// loads to A.
func TestLoadsCreditedToTheirWarp(t *testing.T) {
	const x = 0x500
	for _, k := range []proto.Kind{proto.NHCC, proto.HMG} {
		prog := New("ooo").Slots(8).
			Thread(2, trace.Op{Kind: trace.Load, Addr: x, Gap: 1000}).
			Thread(3, trace.Op{Kind: trace.Load, Addr: x},
				trace.Op{Kind: trace.Load, Addr: x, Gap: 1005}).
			Thread(0, trace.Op{Kind: trace.Store, Addr: x, Val: 7, Gap: 500}).
			Build()
		r, err := Run(SmallConfig(k), prog)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []struct {
			thread, op int
			val        uint64
		}{{0, 0, 7}, {1, 0, 0}, {1, 1, 0}} {
			if v, ok := r.Value(want.thread, want.op); !ok || v != want.val {
				t.Errorf("%v: thread %d op %d read %d (observed %v), want %d", k, want.thread, want.op, v, ok, want.val)
			}
		}
		// The test needs B's second load to overtake A's.
		obs := r.Observations()
		if len(obs) != 3 || obs[1].Thread != 1 || obs[1].Index != 1 {
			t.Fatalf("%v: observations %+v, want B's second load to complete before A's", k, obs)
		}
	}
}

// TestStaleReadAllowed: without synchronization, a plain load may return
// the stale (initial) value even after a remote store — the
// non-multi-copy-atomic relaxation the protocols exploit. We only check
// that whatever is read was actually written at some point (no
// fabricated values).
func TestStaleReadAllowed(t *testing.T) {
	const addr = 0x300
	for _, k := range coherent() {
		prog := New("stale").
			Thread(0, trace.Op{Kind: trace.Store, Addr: addr, Val: 7}).
			Thread(3, trace.Op{Kind: trace.Load, Addr: addr}).
			Warmup(3, addr).
			Build()
		r, err := Run(SmallConfig(k), prog)
		if err != nil {
			t.Fatal(err)
		}
		v, ok := r.Value(1, 0)
		if !ok {
			t.Fatalf("%v: load unobserved", k)
		}
		if legal := WrittenValues(prog, addr); !legal[v] {
			t.Fatalf("%v: load fabricated value %d", k, v)
		}
	}
}

// TestAtomicSumLitmus: concurrent .sys atomics from every GPM sum
// exactly.
func TestAtomicSumLitmus(t *testing.T) {
	const addr = 0x400
	for _, k := range coherent() {
		b := New("atomsum").Home(2)
		for slot := 0; slot < 4; slot++ {
			var ops []trace.Op
			for i := 0; i < 6; i++ {
				ops = append(ops, trace.Op{Kind: trace.Atomic, Scope: trace.ScopeSys, Addr: addr, Val: 1})
			}
			b.Thread(slot, ops...)
		}
		r, err := Run(SmallConfig(k), b.Build())
		if err != nil {
			t.Fatal(err)
		}
		if r.Results().Atomics != 24 {
			t.Fatalf("%v: ran %d atomics, want 24", k, r.Results().Atomics)
		}
	}
}

// TestRandomizedNoFabrication: random programs of plain loads and
// stores with unique values never observe a value nobody wrote.
func TestRandomizedNoFabrication(t *testing.T) {
	for _, k := range coherent() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(k) + 99))
			addrs := []topo.Addr{0x100, 0x180, 0x200, 0x1000, 0x2000}
			b := New("rand")
			val := uint64(1)
			for slot := 0; slot < 4; slot++ {
				var ops []trace.Op
				for i := 0; i < 20; i++ {
					a := addrs[rng.Intn(len(addrs))]
					if rng.Intn(2) == 0 {
						ops = append(ops, trace.Op{Kind: trace.Load, Addr: a, Gap: uint32(rng.Intn(50))})
					} else {
						ops = append(ops, trace.Op{Kind: trace.Store, Addr: a, Val: val, Gap: uint32(rng.Intn(50))})
						val++
					}
				}
				b.Thread(slot, ops...)
			}
			prog := b.Build()
			r, err := Run(SmallConfig(k), prog)
			if err != nil {
				t.Fatal(err)
			}
			legal := map[topo.Addr]map[uint64]bool{}
			for _, a := range addrs {
				legal[a] = WrittenValues(prog, a)
			}
			for _, o := range r.Observations() {
				if !legal[o.Op.Addr][o.Value] {
					t.Fatalf("load of %#x observed fabricated value %d", uint64(o.Op.Addr), o.Value)
				}
			}
		})
	}
}

// TestRunRejectsBadSlot: out-of-range slots error cleanly.
func TestRunRejectsBadSlot(t *testing.T) {
	prog := New("bad").Thread(99, trace.Op{Kind: trace.Load, Addr: 0}).Build()
	if _, err := Run(SmallConfig(proto.HMG), prog); err == nil {
		t.Fatal("bad slot accepted")
	}
}

// TestRunHooksSeeSystem: hooks passed to Run receive the constructed
// system before execution and can attach event sinks beside Run's own
// load observer.
func TestRunHooksSeeSystem(t *testing.T) {
	prog := New("hook").Thread(0, trace.Op{Kind: trace.Load, Addr: 0x100}).Build()
	events := 0
	r, err := Run(SmallConfig(proto.HMG), prog, func(sys *gsim.System) {
		sys.Observe(func(gsim.Event) { events++ })
	})
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("hook-attached event sink saw no events")
	}
	if _, ok := r.Value(0, 0); !ok {
		t.Fatal("the load went unobserved beside the hook's sink")
	}
}

// TestGPMScopeLitmus exercises the Section VII-D extension scope:
// message passing between two warps of the same GPM at .gpm scope works
// under every coherent protocol, with the GPM-local L2 slice as the
// coherence point.
func TestGPMScopeLitmus(t *testing.T) {
	const data, flag = 0x500, 0x600
	for _, k := range coherent() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			// Eight slots on four GPMs: slots 0 and 1 share GPM 0. Data
			// lives on the other GPU (home GPM 3).
			prog := New("gpm-mp").Slots(8).Home(3).
				Thread(0,
					trace.Op{Kind: trace.Store, Addr: data, Val: 33},
					trace.Op{Kind: trace.StoreRel, Scope: trace.ScopeGPM, Addr: flag, Val: 1}).
				Thread(1,
					trace.Op{Kind: trace.LoadAcq, Scope: trace.ScopeGPM, Addr: flag, Gap: 2_000_000},
					trace.Op{Kind: trace.Load, Addr: data}).
				Build()
			r, err := Run(SmallConfig(k), prog)
			if err != nil {
				t.Fatal(err)
			}
			f, ok := r.Value(1, 0)
			if !ok || f != 1 {
				t.Fatalf("late .gpm acquire read flag %d (ok=%v), want 1", f, ok)
			}
			d, ok := r.Value(1, 1)
			if !ok || d != 33 {
				t.Fatalf("data after .gpm acquire = %d, want 33", d)
			}
		})
	}
}

// TestGPMAtomicsSerializeWithinGPM: .gpm atomics from two warps of one
// GPM serialize at the local slice.
func TestGPMAtomicsSerializeWithinGPM(t *testing.T) {
	const addr = 0x700
	b := New("gpm-atom").Slots(8).Home(3)
	for slot := 0; slot < 2; slot++ { // both on GPM 0 (8 slots, 4 GPMs)
		var ops []trace.Op
		for i := 0; i < 5; i++ {
			ops = append(ops, trace.Op{Kind: trace.Atomic, Scope: trace.ScopeGPM, Addr: addr, Val: 1})
		}
		b.Thread(slot, ops...)
	}
	r, err := Run(SmallConfig(proto.HMG), b.Build())
	if err != nil {
		t.Fatal(err)
	}
	if r.Results().Atomics != 10 {
		t.Fatalf("atomics = %d, want 10", r.Results().Atomics)
	}
	// The final value reaches the home DRAM via the write-throughs; the
	// last write-through carries the serialized sum.
}

// TestIRIWNonMultiCopyAtomicity documents the model's headline
// relaxation (Section III-B): with two independent writers and two
// unsynchronized readers, the readers may observe the writes in opposite
// orders — memory does not behave as a single atomic unit. The test runs
// many timing variations and only requires that every observed value was
// actually written; it additionally reports (not asserts) whether the
// IRIW-forbidden-under-MCA outcome was observed.
func TestIRIWNonMultiCopyAtomicity(t *testing.T) {
	const x, y = 0x900, 0xA00
	for _, k := range []proto.Kind{proto.NHCC, proto.HMG} {
		sawSplit := false
		for _, d := range []uint32{0, 500, 1500, 4000, 9000} {
			prog := New("iriw").
				Thread(0, trace.Op{Kind: trace.Store, Addr: x, Val: 1}).
				Thread(3, trace.Op{Kind: trace.Store, Addr: y, Val: 1}).
				Thread(1,
					trace.Op{Kind: trace.Load, Addr: x, Gap: d},
					trace.Op{Kind: trace.Load, Addr: y}).
				Thread(2,
					trace.Op{Kind: trace.Load, Addr: y, Gap: d},
					trace.Op{Kind: trace.Load, Addr: x}).
				Warmup(1, x, y).
				Build()
			r, err := Run(SmallConfig(k), prog)
			if err != nil {
				t.Fatal(err)
			}
			for _, o := range r.Observations() {
				if o.Value != 0 && o.Value != 1 {
					t.Fatalf("fabricated value %d", o.Value)
				}
			}
			r1x, _ := r.Value(2, 0)
			r1y, _ := r.Value(2, 1)
			r2y, _ := r.Value(3, 0)
			r2x, _ := r.Value(3, 1)
			if r1x == 1 && r1y == 0 && r2y == 1 && r2x == 0 {
				sawSplit = true
			}
		}
		t.Logf("%v: IRIW split observation seen = %v (permitted either way under non-MCA)", k, sawSplit)
	}
}

// TestCausalityChain is a randomized monotonic message-passing checker:
// one writer repeatedly stores data[j] = v for every data address, then
// release-stores flag = v. A reader acquire-loads the flag and then
// reads the data addresses: whenever it observed flag == v, every data
// value it subsequently reads must be >= v (the writer wrote them before
// releasing v, and values only grow). Runs across protocols, scopes, and
// random timings.
func TestCausalityChain(t *testing.T) {
	const flagAddr = 0x2000
	dataAddrs := []topo.Addr{0x100, 0x180, 0x1000}
	for _, k := range coherent() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			for _, tc := range []struct {
				scope  trace.Scope
				reader int
			}{
				{trace.ScopeGPU, 1},
				{trace.ScopeSys, 2},
				{trace.ScopeSys, 3},
			} {
				rng := rand.New(rand.NewSource(int64(k)*31 + int64(tc.reader)))
				var wops []trace.Op
				const rounds = 6
				for v := uint64(1); v <= rounds; v++ {
					for _, a := range dataAddrs {
						wops = append(wops, trace.Op{Kind: trace.Store, Addr: a, Val: v, Gap: uint32(rng.Intn(300))})
					}
					wops = append(wops, trace.Op{Kind: trace.StoreRel, Scope: tc.scope, Addr: flagAddr, Val: v})
				}
				var rops []trace.Op
				for i := 0; i < rounds; i++ {
					rops = append(rops, trace.Op{Kind: trace.LoadAcq, Scope: tc.scope, Addr: flagAddr, Gap: uint32(rng.Intn(4000))})
					for _, a := range dataAddrs {
						rops = append(rops, trace.Op{Kind: trace.Load, Addr: a})
					}
				}
				prog := New("causal").
					Home(topo.GPMID(rng.Intn(4))).
					Thread(0, wops...).
					Thread(tc.reader, rops...).
					Build()
				r, err := Run(SmallConfig(k), prog)
				if err != nil {
					t.Fatal(err)
				}
				// Replay the reader's observations in order.
				var lastFlag uint64
				for _, o := range r.Observations() {
					if o.Thread != 1 {
						continue
					}
					if o.Op.Addr == flagAddr {
						if o.Value < lastFlag {
							t.Fatalf("%v/%v: flag went backwards: %d after %d", k, tc.scope, o.Value, lastFlag)
						}
						lastFlag = o.Value
						continue
					}
					if o.Value < lastFlag {
						t.Fatalf("%v/%v reader %d: data %#x = %d after acquiring flag %d (causality violated)",
							k, tc.scope, tc.reader, uint64(o.Op.Addr), o.Value, lastFlag)
					}
				}
			}
		})
	}
}
