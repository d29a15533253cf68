// Package spec certifies the machine-readable Table I (proto.Table)
// and renders it for DESIGN.md.
//
// Enumerate is a small-model exhaustive enumerator: a breadth-first
// closure over every reachable directory state of a 2-GPU × 2-GPM
// configuration, driving proto.Machine.Step — the transition function
// proto.DirCtrl executes — and asserting the paper's invariants on
// every transition: only V and I are ever reachable (zero transient
// states), nothing is tracked without a Valid entry, every V→I
// transition invalidates the full sharer set, and an HMG system-home
// invalidation of a GPU sharer forwards to that GPU's GPM sharers.
// Under a proto.Mutation the same walk must find the injected bug.
//
// Flat model (NHCC): one home directory (GPM 0 of a 4-GPM system),
// one tracked region, requesters GPM 1..3.
//
// Hierarchical model (HMG): the system home at GPU 0 / GPM 0 together
// with GPU 1's home node. The system home tracks its GPU-local peer
// (local module 1) as a GPM bit and GPU 1 as a GPU bit; GPU 1's home
// tracks its own module 1. Events mirror the coupled transitions of
// the simulator: a GPU-1 load that misses its home L2 registers at
// both levels, stores write through both levels, and any system-home
// V→I whose fan-out names GPU 1 delivers the Invalidation event to
// GPU 1's home, which must forward to its GPM sharers.
//
// RenderMarkdown (render.go) renders the table for DESIGN.md, so the
// documented Table I cannot drift from the executed one.
package spec

import (
	"fmt"

	"hmg/internal/directory"
	"hmg/internal/proto"
)

// Violation is one broken invariant found during enumeration.
type Violation struct {
	State     string // the composite state the event was applied in
	Event     string
	Invariant string
	Detail    string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("%s: state %s, event %s: %s", v.Invariant, v.State, v.Event, v.Detail)
}

// Report summarizes one exhaustive enumeration.
type Report struct {
	Table       string
	States      int // distinct reachable composite states
	Transitions int // transitions applied and checked
	Violations  []Violation
}

// Err returns a single error covering all violations, or nil.
func (r Report) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	return fmt.Errorf("spec enumerate %s: %d invariant violations, first: %v",
		r.Table, len(r.Violations), r.Violations[0])
}

// Enumerate exhaustively walks the table's small model — flat for a
// non-hierarchical table, two-level for a hierarchical one — stepping
// every transition through the compiled table with mutation mu, and
// returns the reachability report. The error return covers a table
// that fails validation, which means the table is broken rather than
// merely wrong.
func Enumerate(t proto.Table, mu proto.Mutation) (Report, error) {
	m, err := t.Compile()
	if err != nil {
		return Report{Table: t.Name}, err
	}
	ck := &checker{m: m, mu: mu}
	if t.Hierarchical {
		return ck.enumerateHier(), nil
	}
	return ck.enumerateFlat(), nil
}

// nodeState is one directory's view of the single modeled region.
type nodeState struct {
	Valid   bool
	Sharers directory.Sharers
}

func (n nodeState) spec() (proto.State, directory.Sharers) {
	if n.Valid {
		return proto.StateV, n.Sharers
	}
	return proto.StateI, directory.Sharers{}
}

func (n nodeState) String() string {
	if !n.Valid {
		return "I"
	}
	return "V" + n.Sharers.String()
}

// checker steps events through one compiled table and accumulates
// violations with shared per-transition context.
type checker struct {
	m          *proto.Machine
	mu         proto.Mutation
	violations []Violation
}

func (c *checker) fail(state, event fmt.Stringer, invariant, format string, args ...any) {
	c.violations = append(c.violations, Violation{
		State: state.String(), Event: event.String(),
		Invariant: invariant, Detail: fmt.Sprintf(format, args...),
	})
}

// checkOutcome asserts the per-transition invariants shared by both
// models against the invalidations actually sent: only V/I reachable,
// I tracks nothing, every V→I invalidates the entire prior sharer set,
// and every sharer a transition stops tracking is invalidated.
func (c *checker) checkOutcome(state fmt.Stringer, ev proto.Event, prior nodeState, out proto.Outcome) {
	switch out.Rule.Next {
	case proto.StateI, proto.StateV:
	default:
		c.fail(state, ev, "stable-states", "transition reached non-stable state %v", out.Rule.Next)
	}
	if out.Rule.Next == proto.StateI && !out.Sharers.IsEmpty() {
		c.fail(state, ev, "no-orphan-sharers", "state I tracks %v", out.Sharers)
	}
	priorState, priorSharers := prior.spec()
	if priorState == proto.StateV && out.Rule.Next == proto.StateI {
		if out.Sent != priorSharers {
			c.fail(state, ev, "full-set-invalidation",
				"V→I invalidated %v, sharer set was %v", out.Sent, priorSharers)
		}
	} else if dropped := priorSharers.Without(out.Sharers); !out.Sent.Has(dropped) {
		c.fail(state, ev, "untracked-copy",
			"stopped tracking %v but invalidated only %v", dropped, out.Sent)
	}
	if priorState == proto.StateI && !out.Sent.IsEmpty() {
		c.fail(state, ev, "no-phantom-invalidations", "state I emitted %v", out.Sent)
	}
}

// apply runs one event on a node through the table, records invariant
// checks, and returns the successor node state.
func (c *checker) apply(state fmt.Stringer, n nodeState, ev proto.Event) (nodeState, proto.Outcome) {
	st, sh := n.spec()
	out := c.m.Step(st, sh, ev, c.mu)
	c.checkOutcome(state, ev, n, out)
	return nodeState{Valid: out.Rule.Next == proto.StateV, Sharers: out.Sharers}, out
}

// ---------------------------------------------------------------------
// Flat model
// ---------------------------------------------------------------------

type flatState struct{ Home nodeState }

func (s flatState) String() string { return "home=" + s.Home.String() }

// flatEvents are every event the 4-GPM flat small model can deliver to
// the home directory, in fixed exploration order.
func flatEvents() []proto.Event {
	evs := []proto.Event{{Kind: proto.LocalLd}, {Kind: proto.LocalSt}, {Kind: proto.ReplaceEntry}}
	for id := 1; id <= 3; id++ {
		evs = append(evs,
			proto.Event{Kind: proto.RemoteLd, Req: proto.GPMRequester(id)},
			proto.Event{Kind: proto.RemoteSt, Req: proto.GPMRequester(id)},
		)
	}
	return evs
}

func (ck *checker) enumerateFlat() Report {
	rep := Report{Table: ck.m.Table.Name}
	start := flatState{}
	seen := map[flatState]bool{start: true}
	queue := []flatState{start}
	events := flatEvents()
	drops := []proto.Requester{proto.GPMRequester(1), proto.GPMRequester(2), proto.GPMRequester(3)}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		var succs []flatState
		for _, ev := range events {
			if ev.Kind == proto.ReplaceEntry && !cur.Home.Valid {
				continue // nothing to replace
			}
			next, _ := ck.apply(cur, cur.Home, ev)
			rep.Transitions++
			succs = append(succs, flatState{Home: next})
		}
		// Downgrades (DropSharer) are outside Table I but reach the
		// empty-sharer Valid states the accounting semantics care about.
		for _, req := range drops {
			if !cur.Home.Valid {
				continue
			}
			rep.Transitions++
			succs = append(succs, flatState{Home: nodeState{
				Valid: true, Sharers: cur.Home.Sharers.Without(req.Bit()),
			}})
		}
		for _, s := range succs {
			if !seen[s] {
				seen[s] = true
				queue = append(queue, s)
			}
		}
	}
	rep.States = len(seen)
	rep.Violations = ck.violations
	return rep
}

// ---------------------------------------------------------------------
// Hierarchical (two-level) model
// ---------------------------------------------------------------------

// hierState is the composite state: the system home directory (GPU 0,
// GPM 0) and GPU 1's home directory, both for the single modeled
// region.
type hierState struct {
	Sys  nodeState // sharer space: local GPM 1, GPU 1
	GPU1 nodeState // sharer space: GPU 1's local GPM 1
}

func (s hierState) String() string {
	return "sys=" + s.Sys.String() + " gpu1=" + s.GPU1.String()
}

// gpu1Bit is GPU 1's sharer bit at the system home.
func gpu1Bit() directory.Sharers { return proto.GPURequester(1).Bit() }

func (ck *checker) enumerateHier() Report {
	rep := Report{Table: ck.m.Table.Name}

	// sysTransition applies one event at the system home and, when the
	// sent fan-out names GPU 1, delivers the Invalidation event to
	// GPU 1's home — the coupled HMG transition the paper adds over
	// NHCC.
	sysTransition := func(cur hierState, ev proto.Event) hierState {
		next := cur
		sys, out := ck.apply(cur, cur.Sys, ev)
		next.Sys = sys
		if out.Sent.Has(gpu1Bit()) {
			gpu1, fwd := ck.apply(cur, cur.GPU1, proto.Event{Kind: proto.Invalidation})
			// The HMG-only column: the GPU home must forward the system
			// home's invalidation to every GPM sharer it tracks and
			// transition to I.
			if cur.GPU1.Valid && fwd.Sent != cur.GPU1.Sharers {
				ck.fail(cur, ev, "hmg-inv-forward",
					"system-home invalidation forwarded to %v, GPU-home sharers were %v",
					fwd.Sent, cur.GPU1.Sharers)
			}
			if fwd.Rule.Next != proto.StateI {
				ck.fail(cur, ev, "hmg-inv-forward", "GPU home kept state %v after system-home invalidation", fwd.Rule.Next)
			}
			next.GPU1 = gpu1
		}
		return next
	}

	localGPM1 := proto.GPMRequester(1)
	gpuReq := proto.GPURequester(1)

	type eventFn struct {
		enabled func(hierState) bool
		step    func(hierState) hierState
	}
	always := func(hierState) bool { return true }
	sysEvent := func(ev proto.Event) eventFn {
		return eventFn{always, func(s hierState) hierState { return sysTransition(s, ev) }}
	}
	events := []eventFn{
		sysEvent(proto.Event{Kind: proto.LocalLd}),
		sysEvent(proto.Event{Kind: proto.LocalSt}),
		sysEvent(proto.Event{Kind: proto.RemoteLd, Req: localGPM1}),
		sysEvent(proto.Event{Kind: proto.RemoteSt, Req: localGPM1}),
		{func(s hierState) bool { return s.Sys.Valid }, func(s hierState) hierState {
			return sysTransition(s, proto.Event{Kind: proto.ReplaceEntry})
		}},
		// GPU 1 module 1 load missing the GPU home's L2: registers at
		// the GPU home (as local GPM 1) and at the system home (as
		// GPU 1).
		{always, func(s hierState) hierState {
			s.GPU1, _ = ck.apply(s, s.GPU1, proto.Event{Kind: proto.RemoteLd, Req: localGPM1})
			return sysTransition(s, proto.Event{Kind: proto.RemoteLd, Req: gpuReq})
		}},
		// The same load hitting the GPU home's L2: the system home
		// learns nothing. Only possible while the system home still
		// tracks GPU 1 (its copy would have been invalidated otherwise).
		{func(s hierState) bool {
			return s.Sys.Valid && s.Sys.Sharers.Has(gpu1Bit())
		}, func(s hierState) hierState {
			s.GPU1, _ = ck.apply(s, s.GPU1, proto.Event{Kind: proto.RemoteLd, Req: localGPM1})
			return s
		}},
		// GPU 1 module 1 store: write-through at the GPU home, then at
		// the system home as GPU 1.
		{always, func(s hierState) hierState {
			s.GPU1, _ = ck.apply(s, s.GPU1, proto.Event{Kind: proto.RemoteSt, Req: localGPM1})
			return sysTransition(s, proto.Event{Kind: proto.RemoteSt, Req: gpuReq})
		}},
		// GPU 1's home module stores: local at its own directory, remote
		// (as GPU 1) at the system home.
		{always, func(s hierState) hierState {
			s.GPU1, _ = ck.apply(s, s.GPU1, proto.Event{Kind: proto.LocalSt})
			return sysTransition(s, proto.Event{Kind: proto.RemoteSt, Req: gpuReq})
		}},
		{func(s hierState) bool { return s.GPU1.Valid }, func(s hierState) hierState {
			s.GPU1, _ = ck.apply(s, s.GPU1, proto.Event{Kind: proto.ReplaceEntry})
			return s
		}},
		// Downgrades (outside Table I): the system home drops its local
		// module, the GPU home drops its module.
		{func(s hierState) bool { return s.Sys.Valid }, func(s hierState) hierState {
			s.Sys.Sharers = s.Sys.Sharers.Without(localGPM1.Bit())
			return s
		}},
		{func(s hierState) bool { return s.GPU1.Valid }, func(s hierState) hierState {
			s.GPU1.Sharers = s.GPU1.Sharers.Without(localGPM1.Bit())
			return s
		}},
	}

	start := hierState{}
	seen := map[hierState]bool{start: true}
	queue := []hierState{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		// Reachable-state invariant: a Valid GPU-home entry with sharers
		// is only coherent while the system home still tracks GPU 1 —
		// otherwise a system-home store would never invalidate those
		// sharers (the exact hole MutDropInvForward opens).
		if cur.GPU1.Valid && !cur.GPU1.Sharers.IsEmpty() {
			if !cur.Sys.Valid || !cur.Sys.Sharers.Has(gpu1Bit()) {
				ck.violations = append(ck.violations, Violation{
					State: cur.String(), Event: "-", Invariant: "hierarchical-inclusion",
					Detail: "GPU home tracks sharers but the system home does not track GPU 1",
				})
			}
		}
		for _, ev := range events {
			if !ev.enabled(cur) {
				continue
			}
			next := ev.step(cur)
			rep.Transitions++
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	rep.States = len(seen)
	rep.Violations = ck.violations
	return rep
}
