package check

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hmg/internal/consist"
	"hmg/internal/engine"
	"hmg/internal/gsim"
	"hmg/internal/msg"
	"hmg/internal/proto"
	"hmg/internal/topo"
	"hmg/internal/trace"
	"hmg/internal/workload"
)

// TestLitmusConformance sweeps the whole case grid — every shape, every
// protocol, every scope, synchronized and plain, a covered and an
// uncovered slot pairing — through the oracle and the invariant checker.
// Trunk protocol code must pass all of it.
func TestLitmusConformance(t *testing.T) {
	scopes := []trace.Scope{trace.ScopeCTA, trace.ScopeGPM, trace.ScopeGPU, trace.ScopeSys}
	pairs := [][2]int{{6, 6}, {4, 6}, {0, 6}} // covered .cta; same-GPU; cross-GPU
	for _, k := range proto.Kinds() {
		for _, sh := range []Shape{ShapeMP, ShapeSB, ShapeLB, ShapeCoRR} {
			for _, sc := range scopes {
				for _, sync := range []bool{true, false} {
					for _, pr := range pairs {
						cs := Case{
							Shape: sh, Protocol: k, Scope: sc, Sync: sync,
							WSlot: pr[0], RSlot: pr[1], Home: 0, Warmup: true,
						}
						if sync {
							cs.Gap = 2_500_000
						} else {
							cs.Gap = 40
						}
						t.Run(cs.Name(), func(t *testing.T) {
							t.Parallel()
							if err := cs.Run(); err != nil {
								t.Fatal(err)
							}
						})
					}
				}
			}
		}
	}
}

// TestRequiredVisibility asserts the positive side the oracle alone
// cannot: a covered, synchronized MP pair under a coherent protocol must
// actually deliver flag=1 and data=42 to the late reader — even when the
// reader's caches were warmed with stale copies.
func TestRequiredVisibility(t *testing.T) {
	covered := map[trace.Scope][2]int{
		trace.ScopeCTA: {6, 6},
		trace.ScopeGPM: {6, 7},
		trace.ScopeGPU: {4, 6},
		trace.ScopeSys: {0, 6},
	}
	for _, k := range proto.Kinds() {
		if proto.For(k).NoCoherence {
			continue
		}
		for sc, pr := range covered {
			cs := Case{
				Shape: ShapeMP, Protocol: k, Scope: sc, Sync: true,
				WSlot: pr[0], RSlot: pr[1], Home: 0, Warmup: true, Gap: 2_500_000,
			}
			t.Run(cs.Name(), func(t *testing.T) {
				t.Parallel()
				r, err := consist.Run(consist.SmallConfig(k), cs.Program())
				if err != nil {
					t.Fatal(err)
				}
				if flag, ok := r.Value(1, 0); !ok || flag != 1 {
					t.Fatalf("late acquire read flag %v (ok=%v), want 1", flag, ok)
				}
				if data, ok := r.Value(1, 1); !ok || data != 42 {
					t.Fatalf("data after acquire = %v (ok=%v), want 42", data, ok)
				}
			})
		}
	}
}

// TestStaleReadObserved pins the relaxation the fuzzer must tolerate:
// under Ideal (no coherence enforcement), a warmed reader keeps its
// stale copies forever — the plain late read observes 0 long after the
// writer finished, and the oracle accepts it.
func TestStaleReadObserved(t *testing.T) {
	cs := Case{
		Shape: ShapeMP, Protocol: proto.Ideal, Scope: trace.ScopeSys, Sync: false,
		WSlot: 0, RSlot: 6, Home: 0, Warmup: true, Gap: 2_500_000,
	}
	r, err := consist.Run(consist.SmallConfig(cs.Protocol), cs.Program())
	if err != nil {
		t.Fatal(err)
	}
	if flag, ok := r.Value(1, 0); !ok || flag != 0 {
		t.Fatalf("warmed plain read under Ideal observed flag=%v (ok=%v), want stale 0", flag, ok)
	}
	if err := cs.Oracle(r); err != nil {
		t.Fatalf("oracle rejected a legal stale read: %v", err)
	}
}

// mutationCases are litmus instances that exercise each deliberate
// Table I bug: the harness must detect every one, and the identical
// trace on trunk (mutation zero) must be clean.
func mutationCases() map[proto.Mutation][]Case {
	return map[proto.Mutation][]Case{
		// Dropped store invalidations: local-store path (writer on the
		// home GPM) and remote-store path (writer elsewhere), flat and
		// hierarchical directories.
		proto.MutDropStoreInv: {
			{Shape: ShapeMP, Protocol: proto.NHCC, Scope: trace.ScopeSys, Sync: true,
				WSlot: 0, RSlot: 6, Home: 0, Warmup: true, Gap: 2_500_000},
			{Shape: ShapeMP, Protocol: proto.NHCC, Scope: trace.ScopeSys, Sync: true,
				WSlot: 2, RSlot: 6, Home: 0, Warmup: true, Gap: 2_500_000},
			{Shape: ShapeMP, Protocol: proto.HMG, Scope: trace.ScopeSys, Sync: true,
				WSlot: 0, RSlot: 6, Home: 0, Warmup: true, Gap: 2_500_000},
		},
		// Dropped HMG second-level forwarding: the GPU home node swallows
		// the system home's invalidation instead of fanning it out. The
		// reader sits on GPM 2 — GPU 1's home for the litmus lines is
		// GPM 3, so the reader's copy dies only through the forwarded hop.
		proto.MutDropInvForward: {
			{Shape: ShapeMP, Protocol: proto.HMG, Scope: trace.ScopeSys, Sync: true,
				WSlot: 0, RSlot: 4, Home: 0, Warmup: true, Gap: 2_500_000},
		},
	}
}

func TestMutationsDetected(t *testing.T) {
	for mu, cases := range mutationCases() {
		for _, cs := range cases {
			mu, cs := mu, cs
			t.Run(fmt.Sprintf("mut%d/%s", mu, cs.Name()), func(t *testing.T) {
				t.Parallel()
				if err := cs.Run(); err != nil {
					t.Fatalf("trunk run of the detection trace is dirty: %v", err)
				}
				if err := cs.RunMutated(mu); err == nil {
					t.Fatal("mutation went undetected")
				}
			})
		}
	}
}

// TestMutationViolationDetail digs one level deeper than "an error came
// back": a dropped store invalidation must surface as both the
// forbidden stale read (oracle) and directory-inclusion breakage
// (invariant checker).
func TestMutationViolationDetail(t *testing.T) {
	cs := Case{Shape: ShapeMP, Protocol: proto.HMG, Scope: trace.ScopeSys, Sync: true,
		WSlot: 0, RSlot: 6, Home: 0, Warmup: true, Gap: 2_500_000}
	cfg := consist.SmallConfig(cs.Protocol)
	cfg.Mutation = proto.MutDropStoreInv
	var ck *Checker
	r, err := consist.Run(cfg, cs.Program(), func(sys *gsim.System) { ck = Attach(sys) })
	if err != nil {
		t.Fatal(err)
	}
	oerr := cs.Oracle(r)
	if oerr == nil || !strings.Contains(oerr.Error(), "forbidden MP outcome") {
		t.Fatalf("oracle error = %v, want forbidden MP outcome", oerr)
	}
	kinds := map[string]bool{}
	for _, v := range ck.Violations() {
		kinds[v.Invariant] = true
		if len(v.Trail) == 0 {
			t.Fatalf("violation %q carries no event trail", v.Invariant)
		}
	}
	if !kinds["inclusion"] {
		t.Fatalf("checker saw %v, want an inclusion violation", kinds)
	}
}

// TestMutationDropEvictInv drives directory replacement with a tiny
// 8-entry directory: on trunk the evictions invalidate the displaced
// sharers; with the mutation they are silently forgotten, leaving
// untracked remote copies the checker must flag.
func TestMutationDropEvictInv(t *testing.T) {
	run := func(mu proto.Mutation) (*Checker, *gsim.System) {
		t.Helper()
		cfg := consist.SmallConfig(proto.NHCC)
		cfg.Dir.Entries = 8
		cfg.Dir.Ways = 2
		cfg.Dir.GranLines = 1
		cfg.Mutation = mu
		b := consist.New("evict-pressure").Slots(8).Home(0)
		var addrs []topo.Addr
		for i := 0; i < 16; i++ {
			addrs = append(addrs, topo.Addr(i*int(cfg.Topo.LineSize)))
		}
		b.Warmup(6, addrs...)
		b.Thread(6, trace.Op{Kind: trace.Load, Addr: addrs[0], Gap: 2_000_000})
		var ck *Checker
		var sys *gsim.System
		if _, err := consist.Run(cfg, b.Build(), func(s *gsim.System) { sys = s; ck = Attach(s) }); err != nil {
			t.Fatal(err)
		}
		return ck, sys
	}
	ck, _ := run(0)
	if err := ck.Err(); err != nil {
		t.Fatalf("trunk eviction pressure is dirty: %v", err)
	}
	ck, sys := run(proto.MutDropEvictInv)
	found := false
	for _, v := range ck.Violations() {
		if v.Invariant == "inclusion" {
			found = true
		}
	}
	if !found {
		t.Fatalf("dropped eviction invalidations went undetected (violations: %v)", ck.Violations())
	}
	// Fig. 10 counters record protocol-intended traffic: the mutation
	// suppresses the messages, not the accounting, so the per-directory
	// eviction-invalidation counters still accumulate.
	var evictLines uint64
	for _, gpm := range sys.GPMs {
		if gpm.Dir != nil {
			evictLines += gpm.Dir.LinesInvByEvicts
		}
	}
	if evictLines == 0 {
		t.Fatal("mutated run recorded no intended eviction invalidations; counters must not be suppressed by MutDropEvictInv")
	}
}

// TestBenchmarkSweep runs every Table III benchmark under every sweep
// configuration (each protocol, and the Section IV options its figures
// run) on the conformance topology with the checker attached: the trunk
// protocols must hold every invariant on real workloads, not just litmus
// programs.
func TestBenchmarkSweep(t *testing.T) {
	scale := 0.25
	if testing.Short() {
		scale = 0.05
	}
	for _, sc := range SweepConfigs() {
		for _, name := range workload.Names() {
			sc, name := sc, name
			t.Run(fmt.Sprintf("%v/%s", sc, name), func(t *testing.T) {
				t.Parallel()
				cfg := sc.Config()
				sys, err := gsim.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ck := Attach(sys)
				p, err := workload.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sys.Run(p.Generate(cfg.Topo, scale)); err != nil {
					t.Fatal(err)
				}
				if err := ck.Err(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestCheckerDoesNotPerturb asserts the harness's cardinal rule: an
// attached checker changes no simulation outcome. Results must be
// deep-equal with and without it.
func TestCheckerDoesNotPerturb(t *testing.T) {
	run := func(attach bool) *gsim.Results {
		t.Helper()
		cfg := consist.SmallConfig(proto.HMG)
		sys, err := gsim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var ck *Checker
		if attach {
			ck = Attach(sys)
		}
		p, err := workload.Get("nw-16K")
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(p.Generate(cfg.Topo, 0.25))
		if err != nil {
			t.Fatal(err)
		}
		if attach {
			if err := ck.Err(); err != nil {
				t.Fatal(err)
			}
		}
		return res
	}
	plain, checked := run(false), run(true)
	if !reflect.DeepEqual(plain, checked) {
		t.Fatalf("checker perturbed the simulation:\nplain:   %+v\nchecked: %+v", plain, checked)
	}
}

// TestCaseFromSeed sanity-checks the generator: deterministic, always
// in-range, and synchronized cases always get the drain gap the oracle's
// exactness depends on.
func TestCaseFromSeed(t *testing.T) {
	for seed := uint64(0); seed < 512; seed++ {
		cs := CaseFromSeed(seed)
		if cs != CaseFromSeed(seed) {
			t.Fatalf("seed %d is not deterministic", seed)
		}
		if cs.WSlot < 0 || cs.WSlot > 7 || cs.RSlot < 0 || cs.RSlot > 7 {
			t.Fatalf("seed %d: slots out of range: %+v", seed, cs)
		}
		if cs.Home > 3 {
			t.Fatalf("seed %d: home out of range: %+v", seed, cs)
		}
		if cs.Sync && cs.Gap < 2_000_000 {
			t.Fatalf("seed %d: synchronized case without drain gap: %+v", seed, cs)
		}
		if prog := cs.Program(); len(prog.Threads) != 2 {
			t.Fatalf("seed %d: program has %d threads", seed, len(prog.Threads))
		}
	}
}

// TestQuiescenceLiveContexts feeds the drained-boundary scan a system
// with a message still on the network: its pooled route context is
// live, which the scan must report. Once the message lands, the same
// scan is clean.
func TestQuiescenceLiveContexts(t *testing.T) {
	sys, err := gsim.New(consist.SmallConfig(proto.HMG))
	if err != nil {
		t.Fatal(err)
	}
	ck := Attach(sys)
	drained := gsim.Event{Kind: gsim.EvKernelDrained, SM: gsim.NoSM}
	sys.Net.SendHandler(0, topo.GPMID(len(sys.GPMs)-1), msg.Inv, engine.Func(func() {}))
	sys.OnEvent(drained)
	found := false
	for _, v := range ck.Violations() {
		found = found || (v.Invariant == "quiescence" && strings.Contains(v.Detail, "pooled contexts live"))
	}
	if !found {
		t.Fatalf("a live route context went unreported (violations: %v)", ck.Violations())
	}
	n := len(ck.Violations())
	sys.Eng.Drain()
	sys.OnEvent(drained)
	if got := ck.Violations(); len(got) != n {
		t.Fatalf("drained network still reported: %v", got[n:])
	}
}

// TestL2EvictEventsMatchStats holds the EvL2Evict stream to the slices'
// own eviction count: every fill that displaces a valid line, at a
// requester or at a home, emits one event. It runs the benchmark suite
// under every sweep configuration, with value tracking on and off.
func TestL2EvictEventsMatchStats(t *testing.T) {
	scale := 0.05
	if testing.Short() {
		scale = 0.02
	}
	for _, sc := range SweepConfigs() {
		for _, track := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/track=%v", sc, track), func(t *testing.T) {
				t.Parallel()
				cfg := sc.Config()
				cfg.TrackValues = track
				for _, name := range workload.Names() {
					sys, err := gsim.New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					evicts := make([]uint64, len(sys.GPMs))
					sys.OnEvent = func(ev gsim.Event) {
						if ev.Kind == gsim.EvL2Evict {
							evicts[ev.GPM]++
						}
					}
					p, err := workload.Get(name)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := sys.Run(p.Generate(cfg.Topo, scale)); err != nil {
						t.Fatal(err)
					}
					for i, g := range sys.GPMs {
						if evicts[i] != g.L2.Stats.Evicts {
							t.Errorf("%s: GPM %d emitted %d EvL2Evict for %d L2 evictions",
								name, i, evicts[i], g.L2.Stats.Evicts)
						}
					}
				}
			})
		}
	}
}
