package gsim

import (
	"fmt"

	"hmg/internal/engine"
	"hmg/internal/topo"
	"hmg/internal/trace"
)

// EventKind labels one protocol-visible simulator event delivered to the
// System's OnEvent sink. The set covers every point where coherence
// state changes hands: kernel boundaries, load/store/atomic completion
// points, invalidation delivery and forwarding, and cache fills and
// evictions — the granularity the conformance checker in internal/check
// asserts its invariants at.
type EventKind uint8

const (
	// EvKernelLaunch fires as a kernel's CTAs are scheduled (Aux is the
	// kernel index within the trace).
	EvKernelLaunch EventKind = iota
	// EvKernelDrained fires at the quiescent kernel boundary: all warps
	// done, every posted store processed at its system home, and every
	// background invalidation delivered (Aux is the kernel index).
	EvKernelDrained
	// EvLoadDone fires when a Load or LoadAcq completes at its SM with
	// the observed word value in Val; Warp names the issuing warp.
	EvLoadDone
	// EvStoreIssue fires when a store enters the memory system at its SM
	// (before the write-through propagates). Val is the stored value.
	// Atomic results written through by .cta/.gpm atomics appear here
	// too, carrying the post-RMW value.
	EvStoreIssue
	// EvHomeStore fires when a write-through commits at the system home
	// (directory transition done, home copy and DRAM updated).
	EvHomeStore
	// EvGPUHomeStore fires when a write-through is processed at a GPU
	// home node on its way to the system home (hierarchical policies).
	EvGPUHomeStore
	// EvAtomicApply fires when a .gpu or .sys atomic's read-modify-write
	// is applied at its scope home; Val is the new (post-RMW) value.
	EvAtomicApply
	// EvInvDeliver fires when a background invalidation is delivered at
	// a target GPM (its L2 copies of the region die). Aux is the region
	// granularity in lines.
	EvInvDeliver
	// EvInvForward fires when a GPU home node forwards an invalidation
	// to its own GPM sharers — the HMG-only Table I transition. Aux is
	// the number of forwarded targets.
	EvInvForward
	// EvFill fires when a load response is installed in an L2 slice.
	EvFill
	// EvL2Evict fires when installing a fill displaces a valid L2 line;
	// Line names the victim.
	EvL2Evict
	// EvAcquire fires when an acquire operation applies its
	// invalidation effects at the issuing SM. Kernel-boundary implicit
	// acquires (the .sys acquire every kernel launch performs) emit one
	// system-wide EvAcquire with SM set to NoSM.
	EvAcquire
	// EvDowngrade fires when a clean-eviction downgrade notice (the
	// optional Section IV optimization) is processed at a home node and
	// the evicting module leaves the sharer set. Aux is the evicting
	// GPM.
	EvDowngrade
)

var eventKindNames = [...]string{
	EvKernelLaunch:  "kernel-launch",
	EvKernelDrained: "kernel-drained",
	EvLoadDone:      "load-done",
	EvStoreIssue:    "store-issue",
	EvHomeStore:     "home-store",
	EvGPUHomeStore:  "gpu-home-store",
	EvAtomicApply:   "atomic-apply",
	EvInvDeliver:    "inv-deliver",
	EvInvForward:    "inv-forward",
	EvFill:          "fill",
	EvL2Evict:       "l2-evict",
	EvAcquire:       "acquire",
	EvDowngrade:     "downgrade",
}

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// NoSM marks events not attached to a particular SM.
const NoSM topo.SMID = -1

// Event is one cycle-stamped hook notification. Fields beyond Cycle and
// Kind are populated per kind: GPM is the module where the event took
// effect, SM the issuing SM (NoSM for home-side events), Warp the
// issuing warp of an EvLoadDone, Line/Addr the affected location,
// Scope/Op/Val the triggering operation's identity and value, and Aux a
// kind-specific count or index.
//
// A warp is named by its index in its kernel's launch order: CTA by
// CTA, each CTA's warps in trace order, skipping warps with no ops.
type Event struct {
	Cycle engine.Cycle
	Kind  EventKind
	GPM   topo.GPMID
	SM    topo.SMID
	Warp  int32
	Line  topo.Line
	Addr  topo.Addr
	Scope trace.Scope
	Op    trace.OpKind
	Val   uint64
	Aux   int
}

// String renders the event for violation trails and debugging.
func (e Event) String() string {
	s := fmt.Sprintf("@%d %s gpm=%d", uint64(e.Cycle), e.Kind, int(e.GPM))
	if e.SM != NoSM {
		s += fmt.Sprintf(" sm=%d", int(e.SM))
	}
	switch e.Kind {
	case EvKernelLaunch, EvKernelDrained:
		return fmt.Sprintf("@%d %s kernel=%d", uint64(e.Cycle), e.Kind, e.Aux)
	case EvInvDeliver, EvInvForward, EvDowngrade:
		return s + fmt.Sprintf(" line=%#x aux=%d", uint64(e.Line), e.Aux)
	case EvFill, EvL2Evict:
		return s + fmt.Sprintf(" line=%#x", uint64(e.Line))
	case EvAcquire:
		return s + fmt.Sprintf(" scope=%v", e.Scope)
	case EvLoadDone, EvStoreIssue, EvHomeStore, EvGPUHomeStore, EvAtomicApply:
		return s + fmt.Sprintf(" addr=%#x op=%v scope=%v val=%d", uint64(e.Addr), e.Op, e.Scope, e.Val)
	default:
		// Unknown kinds (corrupted trails) render the bare header.
		return s
	}
}

// Observe attaches fn to the event stream after every sink already
// attached: a sink assigned to OnEvent directly runs first, then the
// observed sinks in attach order. It is the one way sinks chain, so an
// OnEvent assignment made after it replaces every attached sink. Attach
// before Run.
func (s *System) Observe(fn func(Event)) {
	prev := s.OnEvent
	if prev == nil {
		s.OnEvent = fn
		return
	}
	s.OnEvent = func(ev Event) { prev(ev); fn(ev) }
}

// emit stamps the current cycle and delivers the event to the sink. The
// sink must not mutate simulator state; with no sink attached the cost
// is a single branch, keeping the measurement path untouched.
func (s *System) emit(ev Event) {
	if s.OnEvent == nil {
		return
	}
	ev.Cycle = s.Eng.Now()
	s.OnEvent(ev)
}
