// The machine-readable encoding of paper Table I: the NHCC/HMG
// directory transition table expressed as declarative guarded rules —
// state × event × requester/sharer guard → {next state, sharer-set
// update, emitted invalidations}. A Table compiles into a Machine whose
// Step is the one transition function: DirCtrl executes it on every
// directory event, and internal/proto/spec enumerates it exhaustively
// to certify the paper's structural claims, so the certified table is
// the code that runs.

package proto

import (
	"fmt"

	"hmg/internal/directory"
)

// State is a directory entry's stable state. Table I has exactly two;
// the absence of transient states is the paper's headline protocol
// claim and is what the enumerator certifies.
type State uint8

const (
	// StateI is Invalid: no entry, nothing tracked.
	StateI State = iota
	// StateV is Valid: entry present, sharer set tracked.
	StateV

	numStates = 2
)

var stateNames = [...]string{StateI: "I", StateV: "V"}

// String implements fmt.Stringer.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// EventKind is a Table I column: the protocol event arriving at a home
// node's directory.
type EventKind uint8

const (
	// LocalLd is a load by the home GPM itself.
	LocalLd EventKind = iota
	// LocalSt is a store or atomic by the home GPM itself.
	LocalSt
	// RemoteLd is a load request from another node.
	RemoteLd
	// RemoteSt is a store or atomic request from another node.
	RemoteSt
	// ReplaceEntry is capacity/conflict replacement of the entry.
	ReplaceEntry
	// Invalidation is a system-home invalidation arriving at an HMG GPU
	// home node — the one transition HMG adds over NHCC.
	Invalidation

	numEvents = 6
)

var eventNames = [...]string{
	LocalLd: "LocalLd", LocalSt: "LocalSt", RemoteLd: "RemoteLd",
	RemoteSt: "RemoteSt", ReplaceEntry: "ReplaceEntry", Invalidation: "Invalidation",
}

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// hasRequester reports whether the event kind carries a requester.
func (k EventKind) hasRequester() bool { return k == RemoteLd || k == RemoteSt }

// Event is one concrete protocol event. Req is meaningful only for
// RemoteLd and RemoteSt.
type Event struct {
	Kind EventKind
	Req  Requester
}

// String implements fmt.Stringer.
func (e Event) String() string {
	if !e.Kind.hasRequester() {
		return e.Kind.String()
	}
	kind := "GPM"
	if e.Req.IsGPU {
		kind = "GPU"
	}
	return fmt.Sprintf("%v(%s%d)", e.Kind, kind, e.Req.ID)
}

// Guard restricts a rule to a subset of requester/sharer-set shapes.
// Rules within one (state, event) cell match first-guard-wins; the last
// rule of a cell must be Always so the cell is total.
type Guard uint8

const (
	// Always matches every requester and sharer set.
	Always Guard = iota
	// OthersPresent matches when the sharer set minus the requester is
	// non-empty — the "inv other sharers" arm of a remote store.
	OthersPresent
)

var guardNames = [...]string{Always: "always", OthersPresent: "other sharers present"}

// String implements fmt.Stringer.
func (g Guard) String() string {
	if int(g) < len(guardNames) {
		return guardNames[g]
	}
	return fmt.Sprintf("Guard(%d)", uint8(g))
}

// matches reports whether the guard admits sharer set sh and a
// requester whose sharer bit is req.
func (g Guard) matches(sh, req directory.Sharers) bool {
	switch g {
	case Always:
		return true
	case OthersPresent:
		return !sh.Without(req).IsEmpty()
	default:
		panic(fmt.Sprintf("proto: unknown guard %d", uint8(g)))
	}
}

// SharerUpdate is the rule's effect on the sharer set.
type SharerUpdate uint8

const (
	// KeepSharers leaves the sharer set unchanged.
	KeepSharers SharerUpdate = iota
	// AddRequester adds the requester's bit.
	AddRequester
	// OnlyRequester replaces the set with just the requester — a store
	// leaves the writer as the sole sharer.
	OnlyRequester
	// ClearSharers empties the set (the V→I transitions).
	ClearSharers
)

var updateText = [...]string{
	KeepSharers:   "keep sharers",
	AddRequester:  "add requester",
	OnlyRequester: "requester only",
	ClearSharers:  "clear sharers",
}

// String implements fmt.Stringer.
func (u SharerUpdate) String() string {
	if int(u) < len(updateText) {
		return updateText[u]
	}
	return fmt.Sprintf("SharerUpdate(%d)", uint8(u))
}

// InvRule selects which sharers receive invalidation messages.
type InvRule uint8

const (
	// InvNone emits no invalidations.
	InvNone InvRule = iota
	// InvOthers invalidates every sharer except the requester.
	InvOthers
	// InvAll invalidates the full sharer set (for the Invalidation
	// event this is the HMG second-level forward).
	InvAll
)

var invText = [...]string{
	InvNone:   "—",
	InvOthers: "inv other sharers",
	InvAll:    "inv full sharer set",
}

// String implements fmt.Stringer.
func (i InvRule) String() string {
	if int(i) < len(invText) {
		return invText[i]
	}
	return fmt.Sprintf("InvRule(%d)", uint8(i))
}

// Rule is one guarded Table I transition.
type Rule struct {
	State  State
	Event  EventKind
	Guard  Guard
	Next   State
	Update SharerUpdate
	Inv    InvRule
}

// Table is one protocol instantiation of Table I.
type Table struct {
	// Name identifies the instantiation ("NHCC" or "HMG").
	Name string
	// Hierarchical tables admit GPU requesters (at the system home) and
	// carry the Invalidation column; flat tables reject both.
	Hierarchical bool
	Rules        []Rule
}

// NHCCTable returns the flat instantiation: the Table I used by NHCC,
// where every requester is a GPM named by its global id and the
// Invalidation column does not exist — invalidations terminate at
// caches, never at another directory.
func NHCCTable() Table {
	return Table{Name: "NHCC", Hierarchical: false, Rules: commonRules()}
}

// HMGTable returns the hierarchical, two-level instantiation: the same
// rows as NHCC plus the Invalidation column, used unchanged at both
// home levels. At the system home the sharer space mixes local GPM bits
// with GPU bits (a whole GPU tracked as one sharer); at a GPU home it
// is local GPM bits only, and the Invalidation event is how the system
// home's V→I reaches the GPM sharers hiding behind a GPU bit.
func HMGTable() Table {
	return Table{Name: "HMG", Hierarchical: true, Rules: append(commonRules(),
		Rule{State: StateI, Event: Invalidation, Guard: Always, Next: StateI, Update: KeepSharers, Inv: InvNone},
		Rule{State: StateV, Event: Invalidation, Guard: Always, Next: StateI, Update: ClearSharers, Inv: InvAll},
	)}
}

// commonRules are the Table I rows shared by the flat and hierarchical
// instantiations.
func commonRules() []Rule {
	return []Rule{
		{State: StateI, Event: LocalLd, Guard: Always, Next: StateI, Update: KeepSharers, Inv: InvNone},
		{State: StateI, Event: LocalSt, Guard: Always, Next: StateI, Update: KeepSharers, Inv: InvNone},
		{State: StateI, Event: RemoteLd, Guard: Always, Next: StateV, Update: AddRequester, Inv: InvNone},
		{State: StateI, Event: RemoteSt, Guard: Always, Next: StateV, Update: AddRequester, Inv: InvNone},
		{State: StateV, Event: LocalLd, Guard: Always, Next: StateV, Update: KeepSharers, Inv: InvNone},
		{State: StateV, Event: LocalSt, Guard: Always, Next: StateI, Update: ClearSharers, Inv: InvAll},
		{State: StateV, Event: RemoteLd, Guard: Always, Next: StateV, Update: AddRequester, Inv: InvNone},
		{State: StateV, Event: RemoteSt, Guard: OthersPresent, Next: StateV, Update: OnlyRequester, Inv: InvOthers},
		{State: StateV, Event: RemoteSt, Guard: Always, Next: StateV, Update: OnlyRequester, Inv: InvNone},
		{State: StateV, Event: ReplaceEntry, Guard: Always, Next: StateI, Update: ClearSharers, Inv: InvAll},
	}
}

// Validate checks the table's structural discipline: every cell the
// instantiation supports is present and total (ends in an Always
// guard, no shadowed rules), ReplaceEntry exists only for V,
// Invalidation cells exist exactly for hierarchical tables — and the
// two invariants Table I states structurally: a transition into I
// clears the sharer set, and every V→I transition invalidates the full
// sharer set.
func (t Table) Validate() error {
	_, err := t.Compile()
	return err
}

// Machine is a validated Table compiled into a dense [state][event]
// cell array, each cell holding its guarded rules in match order.
// V×RemoteSt is the only cell with two rules.
type Machine struct {
	Table Table
	cells [numStates][numEvents][]Rule
}

// Compile validates t (see Validate) and compiles it for Step.
func (t Table) Compile() (*Machine, error) {
	m := &Machine{Table: t}
	for i, r := range t.Rules {
		if r.State >= numStates || r.Event >= numEvents {
			return nil, fmt.Errorf("proto: table %s: rule %d names unknown cell %v×%v", t.Name, i, r.State, r.Event)
		}
		m.cells[r.State][r.Event] = append(m.cells[r.State][r.Event], r)
	}
	for st := State(0); st < numStates; st++ {
		for ev := EventKind(0); ev < numEvents; ev++ {
			rules := m.cells[st][ev]
			want := !(ev == ReplaceEntry && st == StateI) && !(ev == Invalidation && !t.Hierarchical)
			if !want {
				if len(rules) > 0 {
					return nil, fmt.Errorf("proto: table %s: cell %v×%v must not exist", t.Name, st, ev)
				}
				continue
			}
			if len(rules) == 0 {
				return nil, fmt.Errorf("proto: table %s: missing cell %v×%v", t.Name, st, ev)
			}
			for i, r := range rules {
				last := i == len(rules)-1
				if last != (r.Guard == Always) {
					return nil, fmt.Errorf("proto: table %s: cell %v×%v rule %d: exactly the last rule must carry the Always guard", t.Name, st, ev, i)
				}
				if r.Next == StateI && r.Update != ClearSharers && !(r.State == StateI && r.Update == KeepSharers) {
					return nil, fmt.Errorf("proto: table %s: rule %v×%v→I must clear the sharer set", t.Name, st, ev)
				}
				if r.State == StateV && r.Next == StateI && r.Inv != InvAll {
					return nil, fmt.Errorf("proto: table %s: V→I rule for %v must invalidate the full sharer set", t.Name, ev)
				}
			}
		}
	}
	return m, nil
}

// Outcome is the effect of one Step on one directory entry.
type Outcome struct {
	// Rule is the guarded row that fired; Rule.Next is the entry's
	// next state.
	Rule Rule
	// Sharers is the entry's sharer set after the step.
	Sharers directory.Sharers
	// Inv is the set the rule invalidates: the protocol-intended
	// traffic the Fig. 9/10 counters record.
	Inv directory.Sharers
	// Sent is the part of Inv actually emitted: all of it, or nothing
	// when the step's Mutation suppresses the cell's emission.
	Sent directory.Sharers
}

// suppressedBy names, per event column, the Mutation bit that
// suppresses the column's invalidation emission.
var suppressedBy = [numEvents]Mutation{
	LocalSt:      MutDropStoreInv,
	RemoteSt:     MutDropStoreInv,
	ReplaceEntry: MutDropEvictInv,
	Invalidation: MutDropInvForward,
}

// Step is the Table I transition function: given an entry's state and
// sharer set, it fires the first matching rule of the (state, event)
// cell. It is pure and, for inline sharer sets, allocation-free. It
// panics on an event the table declares impossible — a missing cell
// (Invalidation under a flat table, replacing an absent entry), a GPU
// requester under a flat table, or a sharer set tracked in state I.
func (m *Machine) Step(st State, sh directory.Sharers, ev Event, mu Mutation) Outcome {
	if st == StateI && !sh.IsEmpty() {
		panic(fmt.Sprintf("proto: table %s: state I with non-empty sharer set %v", m.Table.Name, sh))
	}
	if ev.Kind.hasRequester() && ev.Req.IsGPU && !m.Table.Hierarchical {
		panic(fmt.Sprintf("proto: table %s: GPU requester %d under a flat table", m.Table.Name, ev.Req.ID))
	}
	req := ev.Req.Bit()
	for _, r := range m.cells[st][ev.Kind] {
		if !r.Guard.matches(sh, req) {
			continue
		}
		out := Outcome{Rule: r}
		switch r.Update {
		case KeepSharers:
			out.Sharers = sh
		case AddRequester:
			out.Sharers = sh.With(req)
		case OnlyRequester:
			out.Sharers = req
		case ClearSharers:
		default:
			panic(fmt.Sprintf("proto: unknown sharer update %d", uint8(r.Update)))
		}
		switch r.Inv {
		case InvNone:
		case InvOthers:
			out.Inv = sh.Without(req)
		case InvAll:
			out.Inv = sh
		default:
			panic(fmt.Sprintf("proto: unknown inv rule %d", uint8(r.Inv)))
		}
		if !mu.Has(suppressedBy[ev.Kind]) {
			out.Sent = out.Inv
		}
		return out
	}
	panic(fmt.Sprintf("proto: table %s: no rule for state %v event %v", m.Table.Name, st, ev))
}
