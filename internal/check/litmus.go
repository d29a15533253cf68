package check

import (
	"fmt"

	"hmg/internal/consist"
	"hmg/internal/gsim"
	"hmg/internal/proto"
	"hmg/internal/topo"
	"hmg/internal/trace"
)

// Shape selects a litmus skeleton.
type Shape uint8

const (
	// ShapeMP is message passing: store data, release flag / acquire
	// flag, load data.
	ShapeMP Shape = iota
	// ShapeSB is store buffering: each thread stores one location and
	// loads the other. Every outcome is allowed under the scoped model.
	ShapeSB
	// ShapeLB is load buffering: each thread loads one location then
	// stores the other. Both-loads-observe-stores is forbidden when the
	// loads are acquires (acquires block their warp).
	ShapeLB
	// ShapeCoRR is coherent read-read: one thread stores 1 then 2 to a
	// location; a reader's two same-scope acquires must not observe them
	// moving backwards.
	ShapeCoRR

	numShapes = 4
)

var shapeNames = [...]string{ShapeMP: "MP", ShapeSB: "SB", ShapeLB: "LB", ShapeCoRR: "CoRR"}

// String implements fmt.Stringer.
func (sh Shape) String() string {
	if int(sh) < len(shapeNames) {
		return shapeNames[sh]
	}
	return fmt.Sprintf("Shape(%d)", uint8(sh))
}

// Litmus addresses: two words on distinct lines of one page, so a single
// Home placement governs both.
const (
	addrX topo.Addr = 0x100
	addrY topo.Addr = 0x200
)

// Case is one generated litmus instance on the conformance topology
// (2 GPUs × 2 GPMs × 2 SMs, 8 CTA slots: slot/2 is the GPM, slot/4 the
// GPU).
type Case struct {
	Shape    Shape
	Protocol proto.Kind
	// Scope of the synchronizing (or would-be synchronizing) accesses.
	Scope trace.Scope
	// Sync selects release/acquire accesses; false leaves them plain,
	// turning every forbidden outcome into an allowed relaxation.
	Sync bool
	// WSlot and RSlot place the writer and reader threads (0–7).
	WSlot, RSlot int
	// Home owns the page holding both litmus addresses (0–3).
	Home topo.GPMID
	// Warmup pre-loads both addresses on the reader slot, seeding
	// potentially-stale copies in its caches.
	Warmup bool
	// Gap delays the reader thread's first op.
	Gap uint32
}

// Name renders a compact case identifier for failure messages.
func (cs Case) Name() string {
	sync := "plain"
	if cs.Sync {
		sync = "sync"
	}
	warm := ""
	if cs.Warmup {
		warm = "+warm"
	}
	return fmt.Sprintf("%v/%v/%v/%s w%d r%d h%d g%d%s",
		cs.Shape, cs.Protocol, cs.Scope, sync, cs.WSlot, cs.RSlot, int(cs.Home), cs.Gap, warm)
}

// splitmix64 is the seed expander: deterministic, well-mixed, and
// dependency-free.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// CaseFromSeed expands a fuzz seed into a valid case. Synchronized
// cases give the reader a long start delay so that by the time its
// acquire executes, the writer's stores and their invalidations have
// drained — making the forbidden-outcome oracle exact rather than
// probabilistic. Unsynchronized cases use short delays to maximize the
// chance of observing (legal) staleness.
func CaseFromSeed(seed uint64) Case {
	s := seed
	scopes := []trace.Scope{trace.ScopeCTA, trace.ScopeGPM, trace.ScopeGPU, trace.ScopeSys}
	cs := Case{
		Shape:    Shape(splitmix64(&s) % numShapes),
		Protocol: proto.Kinds()[splitmix64(&s)%uint64(len(proto.Kinds()))],
		Scope:    scopes[splitmix64(&s)%uint64(len(scopes))],
		Sync:     splitmix64(&s)%2 == 0,
		WSlot:    int(splitmix64(&s) % 8),
		RSlot:    int(splitmix64(&s) % 8),
		Home:     topo.GPMID(splitmix64(&s) % 4),
		Warmup:   splitmix64(&s)%2 == 0,
	}
	if cs.Sync {
		cs.Gap = 2_000_000 + uint32(splitmix64(&s)%10_000)
	} else {
		cs.Gap = uint32(splitmix64(&s) % 8192)
	}
	return cs
}

// covered reports whether the case's scope spans both the writer and
// reader slots: .cta needs the same slot, .gpm the same module, .gpu the
// same GPU, .sys always.
func (cs Case) covered() bool {
	switch cs.Scope {
	case trace.ScopeCTA:
		return cs.WSlot == cs.RSlot
	case trace.ScopeGPM:
		return cs.WSlot/2 == cs.RSlot/2
	case trace.ScopeGPU:
		return cs.WSlot/4 == cs.RSlot/4
	default:
		return true
	}
}

// Program builds the case's litmus program. Thread 0 is the writer,
// thread 1 the reader (for SB and LB the roles are symmetric).
func (cs Case) Program() consist.Program {
	ld, st := trace.Load, trace.Store
	ldScope, stScope := trace.ScopeNone, trace.ScopeNone
	if cs.Sync {
		ld, st = trace.LoadAcq, trace.StoreRel
		ldScope, stScope = cs.Scope, cs.Scope
	}
	b := consist.New(cs.Name()).Slots(8).Home(cs.Home)
	if cs.Warmup {
		b.Warmup(cs.RSlot, addrX, addrY)
	}
	switch cs.Shape {
	case ShapeMP:
		b.Thread(cs.WSlot,
			trace.Op{Kind: trace.Store, Addr: addrX, Val: 42},
			trace.Op{Kind: st, Scope: stScope, Addr: addrY, Val: 1})
		b.Thread(cs.RSlot,
			trace.Op{Kind: ld, Scope: ldScope, Addr: addrY, Gap: cs.Gap},
			trace.Op{Kind: trace.Load, Addr: addrX})
	case ShapeSB:
		b.Thread(cs.WSlot,
			trace.Op{Kind: st, Scope: stScope, Addr: addrX, Val: 1},
			trace.Op{Kind: ld, Scope: ldScope, Addr: addrY})
		b.Thread(cs.RSlot,
			trace.Op{Kind: st, Scope: stScope, Addr: addrY, Val: 1, Gap: cs.Gap},
			trace.Op{Kind: ld, Scope: ldScope, Addr: addrX})
	case ShapeLB:
		b.Thread(cs.WSlot,
			trace.Op{Kind: ld, Scope: ldScope, Addr: addrX},
			trace.Op{Kind: trace.Store, Addr: addrY, Val: 1})
		b.Thread(cs.RSlot,
			trace.Op{Kind: ld, Scope: ldScope, Addr: addrY, Gap: cs.Gap % 4096},
			trace.Op{Kind: trace.Store, Addr: addrX, Val: 1})
	case ShapeCoRR:
		b.Thread(cs.WSlot,
			trace.Op{Kind: trace.Store, Addr: addrX, Val: 1},
			trace.Op{Kind: trace.Store, Addr: addrX, Val: 2})
		b.Thread(cs.RSlot,
			trace.Op{Kind: ld, Scope: ldScope, Addr: addrX, Gap: cs.Gap % 4096},
			trace.Op{Kind: ld, Scope: ldScope, Addr: addrX})
	}
	return b.Build()
}

// Oracle checks the run's observations against the scoped memory model:
// values must come from the program (no fabrication), and the
// shape-specific forbidden outcome must not appear when the case's
// synchronization makes it forbidden.
//
// The forbidden-outcome rules and why they are exact on this simulator:
//
//   - MP (flag==1, data==0) is forbidden iff the accesses synchronize at
//     a scope covering both threads under a coherent protocol. The rule
//     holds at any reader start gap, inside the writer's release window
//     as well as after it drained: while both addresses share one home,
//     as in every case here, a gap sweep finds the outcome on no
//     coherent protocol. (With the flag and the data on different homes,
//     NHCC's .gpu release does not yet wait for the remote home's
//     invalidations, and the outcome appears.)
//   - SB: every outcome is allowed (stores are posted past loads even
//     with release/acquire pairs).
//   - LB (1, 1) is forbidden whenever both loads are acquires, under
//     every protocol including Ideal: an acquire blocks its warp, so
//     each thread's store issues only after its load's value is bound,
//     and a cycle of "my store was observed before your load bound"
//     cannot close.
//   - CoRR backwards movement (second read older than the first) is
//     forbidden for same-scope acquire pairs: both reads resolve through
//     the same monotonically-updated copy chain, and acquires block, so
//     observations are ordered.
func (cs Case) Oracle(r *consist.Result) error {
	legalX := map[uint64]bool{0: true}
	legalY := map[uint64]bool{0: true}
	switch cs.Shape {
	case ShapeMP:
		legalX[42] = true
		legalY[1] = true
	case ShapeSB, ShapeLB:
		legalX[1] = true
		legalY[1] = true
	case ShapeCoRR:
		legalX[1] = true
		legalX[2] = true
	}
	for _, o := range r.Observations() {
		legal := legalX
		if o.Op.Addr == addrY {
			legal = legalY
		}
		if !legal[o.Value] {
			return fmt.Errorf("fabricated value: thread %d op %d read %d from %#x",
				o.Thread, o.Index, o.Value, uint64(o.Op.Addr))
		}
	}
	coherent := !proto.For(cs.Protocol).NoCoherence
	switch cs.Shape {
	case ShapeSB:
		// Store buffering: every outcome is allowed under the scoped
		// model (stores are posted past loads even with release/acquire
		// pairs), so only the fabrication check above applies.
	case ShapeMP:
		flag, _ := r.Value(1, 0)
		data, okData := r.Value(1, 1)
		if cs.Sync && cs.covered() && coherent && flag == 1 && okData && data == 0 {
			return fmt.Errorf("forbidden MP outcome: flag=1 observed but data=0 (stale)")
		}
	case ShapeLB:
		r0, ok0 := r.Value(0, 0)
		r1, ok1 := r.Value(1, 0)
		if cs.Sync && ok0 && ok1 && r0 == 1 && r1 == 1 {
			return fmt.Errorf("forbidden LB outcome: both acquires observed the other thread's store")
		}
	case ShapeCoRR:
		v1, ok1 := r.Value(1, 0)
		v2, ok2 := r.Value(1, 1)
		if cs.Sync && ok1 && ok2 && v2 < v1 {
			return fmt.Errorf("forbidden CoRR outcome: reads moved backwards (%d then %d)", v1, v2)
		}
	}
	return nil
}

// Run executes the case with an attached invariant checker and applies
// the oracle. The returned error carries the case name for any oracle or
// invariant violation.
func (cs Case) Run() error { return cs.RunMutated(0) }

// RunMutated is Run with deliberate Table I transition bugs injected —
// the harness's self-test: a mutation must surface as an oracle or
// invariant violation on cases that exercise it.
func (cs Case) RunMutated(mu proto.Mutation) error {
	cfg := consist.SmallConfig(cs.Protocol)
	cfg.Mutation = mu
	var ck *Checker
	r, err := consist.Run(cfg, cs.Program(), func(sys *gsim.System) { ck = Attach(sys) })
	if err != nil {
		return fmt.Errorf("%s: %w", cs.Name(), err)
	}
	if err := cs.Oracle(r); err != nil {
		return fmt.Errorf("%s: %w", cs.Name(), err)
	}
	if err := ck.Err(); err != nil {
		return fmt.Errorf("%s: %w", cs.Name(), err)
	}
	return nil
}

// SweepConfig is one configuration of the benchmark sweep: a protocol,
// optionally under one of the Section IV design options a figure runs.
type SweepConfig struct {
	Kind      proto.Kind
	WriteBack bool // the write-back L2 option
	Downgrade bool // clean-eviction sharer downgrades
}

// SweepConfigs lists the benchmark sweep's configurations: every
// protocol as evaluated, every protocol under write-back, and NHCC and
// HMG with downgrades.
func SweepConfigs() []SweepConfig {
	var cs []SweepConfig
	for _, k := range proto.Kinds() {
		cs = append(cs, SweepConfig{Kind: k})
	}
	for _, k := range proto.Kinds() {
		cs = append(cs, SweepConfig{Kind: k, WriteBack: true})
	}
	for _, k := range []proto.Kind{proto.NHCC, proto.HMG} {
		cs = append(cs, SweepConfig{Kind: k, Downgrade: true})
	}
	return cs
}

// String names the configuration: the protocol, with "+wb" or
// "+downgrade" for an option.
func (c SweepConfig) String() string {
	switch {
	case c.WriteBack:
		return c.Kind.String() + "+wb"
	case c.Downgrade:
		return c.Kind.String() + "+downgrade"
	}
	return c.Kind.String()
}

// Config returns the conformance machine (consist.SmallConfig) under c.
func (c SweepConfig) Config() gsim.Config {
	cfg := consist.SmallConfig(c.Kind)
	cfg.WriteBack = c.WriteBack
	cfg.Policy.Downgrade = c.Downgrade
	return cfg
}
