package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"reflect"
	"slices"
	"testing"

	"hmg/internal/gsim"
	"hmg/internal/proto"
	"hmg/internal/topo"
	"hmg/internal/trace"
	"hmg/internal/workload"
)

// digestEvents attaches a sink hashing s's event stream to h.
func digestEvents(s *gsim.System, h hash.Hash) {
	var buf [8]byte
	s.Observe(func(ev gsim.Event) {
		for _, v := range []uint64{uint64(ev.Cycle), uint64(ev.Kind), uint64(ev.GPM), uint64(ev.SM),
			uint64(ev.Line), uint64(ev.Addr), uint64(ev.Scope), uint64(ev.Op), ev.Val, uint64(ev.Aux)} {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	})
}

// TestMachineReuseMatchesNew runs every (protocol, Variant, machine
// shape) of PlanUnion(Figures()) on one machine that a Prewarm worker
// resets between runs, first in plan order and then backwards, so the
// machine also switches between 4x4 and 16x8 both ways. Each run must
// give Results deep-equal to, and the same event stream as, the run on
// a new machine. One reset follows an HMG+downgrade run that ended with
// downgrade notices in flight. Results must not alias the machine: each
// one still equals its new-machine twin after every later run.
func TestMachineReuseMatchesNew(t *testing.T) {
	if raceEnabled {
		t.Skip("one goroutine: nothing for the race detector, and ten times slower under it")
	}
	r, err := NewRunner(Options{Scale: 0.02, SMsPerGPM: 8})
	if err != nil {
		t.Fatal(err)
	}
	bench, err := workload.Get("cuSolver")
	if err != nil {
		t.Fatal(err)
	}
	type point struct {
		kind  proto.Kind
		v     Variant
		shape topo.Spec
	}
	var plan []point
	for _, s := range PlanUnion(Figures()) {
		k := r.key(s.Bench, s.Kind, s.V, s.Topo)
		if p := (point{k.kind, k.v, k.shape}); !slices.Contains(plan, p) {
			plan = append(plan, p)
		}
	}
	if len(plan) < 60 {
		t.Fatalf("plan union has %d configurations; test is vacuous", len(plan))
	}
	traces := make(map[topo.Spec]*trace.Trace)
	run := func(w *worker, p point) (*gsim.Results, []byte) {
		cfg := r.Config(p.kind, p.v)
		cfg.Topo = p.shape.Apply(cfg.Topo)
		sys, err := w.machine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sys.OnEvent != nil {
			t.Fatal("Reset kept the previous run's OnEvent")
		}
		tr := traces[p.shape]
		if tr == nil {
			tr = bench.Generate(cfg.Topo, r.opts.Scale)
			traces[p.shape] = tr
		}
		if p.v.StaticPlacement {
			tr = staticPlacement(tr, cfg.Topo.TotalGPMs())
		}
		h := sha256.New()
		digestEvents(sys, h)
		res, err := sys.Run(tr)
		if err != nil {
			t.Fatalf("%v %+v on %v: %v", p.kind, p.v, p.shape, err)
		}
		return res, h.Sum(nil)
	}
	fresh := make(map[point]*gsim.Results)
	w := &worker{}
	var reused []*gsim.Results
	var reusedAt []point
	inFlight := false
	for i := range 2 * len(plan) {
		j := i
		if j >= len(plan) {
			j = 2*len(plan) - 1 - i
		}
		p := plan[j]
		if w.sys != nil && w.sys.DowngradesInFlight() > 0 && w.sys.LiveContexts() > 0 {
			inFlight = true
		}
		got, gotEvents := run(w, p)
		want, wantEvents := run(nil, p)
		fresh[p] = want
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v %+v on %v: reset machine's Results differ from a new one's:\n got  %+v\n want %+v", p.kind, p.v, p.shape, got, want)
		}
		if !slices.Equal(gotEvents, wantEvents) {
			t.Fatalf("%v %+v on %v: reset machine's event stream differs from a new one's", p.kind, p.v, p.shape)
		}
		reused = append(reused, got)
		reusedAt = append(reusedAt, p)
	}
	if !inFlight {
		t.Fatal("no reset followed a run that ended with downgrade notices in flight; test is vacuous")
	}
	for i, res := range reused {
		if p := reusedAt[i]; !reflect.DeepEqual(res, fresh[p]) {
			t.Fatalf("%v %+v on %v: Results changed after later runs on the machine", p.kind, p.v, p.shape)
		}
	}
}

// TestPrewarmGeneratesEachTraceOnce: a cold Figs. 8-11 prewarm asks for
// 120 runs of 20 benchmarks on one machine shape, so it generates 20
// traces, and its plan is already grouped by trace, so Prewarm keeps
// the order. Every trace is dropped once its last run has ended.
func TestPrewarmGeneratesEachTraceOnce(t *testing.T) {
	var figs []Figure
	for _, f := range Figures() {
		if slices.Contains([]string{"8", "9", "10", "11"}, f.Name) {
			figs = append(figs, f)
		}
	}
	plan := PlanUnion(figs)
	r, err := NewRunner(Options{Scale: 0.02, SMsPerGPM: 4, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	todo, traces := r.schedule(plan)
	var inOrder []runKey
	for _, s := range plan {
		if k := r.key(s.Bench, s.Kind, s.V, s.Topo); !slices.Contains(inOrder, k) {
			inOrder = append(inOrder, k)
		}
	}
	if !slices.Equal(todo, inOrder) {
		t.Fatal("Prewarm reorders the Figs. 8-11 plan, which is already grouped by trace")
	}
	if len(todo) != 120 || len(traces.m) != 20 {
		t.Fatalf("schedule: %d runs of %d traces, want 120 of 20", len(todo), len(traces.m))
	}
	for _, k := range todo {
		traces.done(k.traceKey())
	}
	if len(traces.m) != 0 {
		t.Fatalf("%d traces kept after their last run", len(traces.m))
	}
	if err := r.Prewarm(plan); err != nil {
		t.Fatal(err)
	}
	if s := r.Summary(); s.UniqueRuns != 120 || s.Traces != 20 {
		t.Fatalf("cold prewarm simulated %d runs on %d generated traces, want 120 on 20", s.UniqueRuns, s.Traces)
	}
}
