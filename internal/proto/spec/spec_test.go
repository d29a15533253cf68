package spec

import (
	"os"
	"strings"
	"testing"

	"hmg/internal/directory"
	"hmg/internal/proto"
)

func TestValidate(t *testing.T) {
	for _, tab := range []proto.Table{proto.NHCCTable(), proto.HMGTable()} {
		if err := tab.Validate(); err != nil {
			t.Errorf("%s: %v", tab.Name, err)
		}
	}
}

func TestValidateRejectsBrokenTables(t *testing.T) {
	drop := func(tab proto.Table, st proto.State, ev proto.EventKind) proto.Table {
		var keep []proto.Rule
		for _, r := range tab.Rules {
			if r.State != st || r.Event != ev {
				keep = append(keep, r)
			}
		}
		tab.Rules = keep
		return tab
	}
	replace := func(tab proto.Table, st proto.State, ev proto.EventKind, rules ...proto.Rule) proto.Table {
		tab = drop(tab, st, ev)
		tab.Rules = append(tab.Rules, rules...)
		return tab
	}
	const (
		I, V = proto.StateI, proto.StateV
	)
	cases := []struct {
		name string
		tab  proto.Table
		want string
	}{
		{"missing cell", drop(proto.NHCCTable(), V, proto.RemoteSt), "missing cell"},
		{"flat table with Invalidation", proto.Table{Name: "bad", Hierarchical: false, Rules: proto.HMGTable().Rules}, "must not exist"},
		{"ReplaceEntry on I", replace(proto.NHCCTable(), I, proto.LocalLd,
			proto.Rule{State: I, Event: proto.LocalLd, Guard: proto.Always, Next: I},
			proto.Rule{State: I, Event: proto.ReplaceEntry, Guard: proto.Always, Next: I}), "must not exist"},
		{"non-Always last rule", replace(proto.NHCCTable(), V, proto.RemoteSt,
			proto.Rule{State: V, Event: proto.RemoteSt, Guard: proto.Always, Next: V, Update: proto.OnlyRequester},
			proto.Rule{State: V, Event: proto.RemoteSt, Guard: proto.OthersPresent, Next: V, Update: proto.OnlyRequester, Inv: proto.InvOthers}),
			"Always guard"},
		{"V→I keeping sharers", replace(proto.NHCCTable(), V, proto.LocalSt,
			proto.Rule{State: V, Event: proto.LocalSt, Guard: proto.Always, Next: I, Update: proto.KeepSharers, Inv: proto.InvAll}),
			"clear the sharer set"},
		{"V→I without full invalidation", replace(proto.NHCCTable(), V, proto.ReplaceEntry,
			proto.Rule{State: V, Event: proto.ReplaceEntry, Guard: proto.Always, Next: I, Update: proto.ClearSharers, Inv: proto.InvOthers}),
			"full sharer set"},
		{"unknown event", replace(proto.NHCCTable(), V, proto.LocalLd,
			proto.Rule{State: V, Event: proto.LocalLd, Guard: proto.Always, Next: V},
			proto.Rule{State: V, Event: proto.Invalidation + 1, Guard: proto.Always, Next: V}),
			"unknown cell"},
	}
	for _, c := range cases {
		err := c.tab.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want contains %q", c.name, err, c.want)
		}
	}
}

func compile(t *testing.T, tab proto.Table) *proto.Machine {
	t.Helper()
	m, err := tab.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestApplyTransitions(t *testing.T) {
	m := compile(t, proto.HMGTable())
	m1, m2 := proto.GPMRequester(1), proto.GPMRequester(2)
	g1 := proto.GPURequester(1)
	step := func(st proto.State, sh directory.Sharers, ev proto.Event) proto.Outcome {
		return m.Step(st, sh, ev, 0)
	}

	// I + RemoteLd → V{requester}, no invalidations.
	out := step(proto.StateI, directory.Sharers{}, proto.Event{Kind: proto.RemoteLd, Req: m1})
	if out.Rule.Next != proto.StateV || out.Sharers != m1.Bit() || !out.Sent.IsEmpty() {
		t.Fatalf("I+RemoteLd: %+v", out)
	}
	// V + RemoteLd accumulates sharers.
	out = step(proto.StateV, m1.Bit(), proto.Event{Kind: proto.RemoteLd, Req: g1})
	if out.Rule.Next != proto.StateV || out.Sharers != m1.Bit().With(g1.Bit()) {
		t.Fatalf("V+RemoteLd: %+v", out)
	}
	// V + RemoteSt with other sharers: invalidate others, requester-only.
	sh := m1.Bit().With(m2.Bit()).With(g1.Bit())
	out = step(proto.StateV, sh, proto.Event{Kind: proto.RemoteSt, Req: m1})
	if out.Rule.Next != proto.StateV || out.Sharers != m1.Bit() {
		t.Fatalf("V+RemoteSt: %+v", out)
	}
	if !out.Sent.Equal(m2.Bit().With(g1.Bit())) {
		t.Fatalf("V+RemoteSt inv = %v", out.Sent)
	}
	// V + RemoteSt as sole sharer: no invalidations (the Always arm).
	out = step(proto.StateV, m1.Bit(), proto.Event{Kind: proto.RemoteSt, Req: m1})
	if !out.Sent.IsEmpty() || out.Rule.Guard != proto.Always {
		t.Fatalf("sole-sharer store fired %+v", out.Rule)
	}
	// V + LocalSt → I invalidating the full set.
	out = step(proto.StateV, sh, proto.Event{Kind: proto.LocalSt})
	if out.Rule.Next != proto.StateI || !out.Sharers.IsEmpty() || !out.Sent.Equal(sh) {
		t.Fatalf("V+LocalSt: %+v", out)
	}
	// V + Invalidation → I forwarding to the full set (HMG column).
	out = step(proto.StateV, m1.Bit(), proto.Event{Kind: proto.Invalidation})
	if out.Rule.Next != proto.StateI || !out.Sent.Equal(m1.Bit()) {
		t.Fatalf("V+Invalidation: %+v", out)
	}
	// A mutation suppresses only the emission of the cells it names;
	// the intended fan-out is still reported.
	out = m.Step(proto.StateV, sh, proto.Event{Kind: proto.LocalSt}, proto.MutDropStoreInv)
	if !out.Sent.IsEmpty() || !out.Inv.Equal(sh) || out.Rule.Next != proto.StateI {
		t.Fatalf("mutated V+LocalSt: %+v", out)
	}
	out = m.Step(proto.StateV, sh, proto.Event{Kind: proto.LocalSt}, proto.MutDropEvictInv|proto.MutDropInvForward)
	if !out.Sent.Equal(sh) {
		t.Fatalf("V+LocalSt suppressed by a mutation naming other cells: %+v", out)
	}
}

func TestApplyRejectsInadmissibleEvents(t *testing.T) {
	flat := compile(t, proto.NHCCTable())
	cases := []struct {
		name string
		st   proto.State
		sh   directory.Sharers
		ev   proto.Event
	}{
		{"GPU requester under flat table", proto.StateI, directory.Sharers{}, proto.Event{Kind: proto.RemoteLd, Req: proto.GPURequester(1)}},
		{"Invalidation under flat table", proto.StateV, proto.GPMRequester(1).Bit(), proto.Event{Kind: proto.Invalidation}},
		{"ReplaceEntry on absent entry", proto.StateI, directory.Sharers{}, proto.Event{Kind: proto.ReplaceEntry}},
		{"sharers in state I", proto.StateI, proto.GPMRequester(1).Bit(), proto.Event{Kind: proto.LocalLd}},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			flat.Step(c.st, c.sh, c.ev, 0)
		}()
	}
}

// TestEnumerate pins the exhaustive small-model closure: the reachable
// state and transition counts are exact (any table edit that changes
// reachability shows up here), and both instantiations certify the
// paper's invariants — only V/I reachable, no sharers without a Valid
// entry, full-sharer-set invalidation on every V→I, and (HMG) the
// system-home invalidation forwarded to the GPU home's GPM sharers.
func TestEnumerate(t *testing.T) {
	cases := []struct {
		tab                 proto.Table
		states, transitions int
	}{
		{proto.NHCCTable(), 9, 104},
		{proto.HMGTable(), 9, 93},
	}
	for _, c := range cases {
		rep, err := Enumerate(c.tab, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.tab.Name, err)
		}
		if rep.Err() != nil {
			t.Errorf("%s: %v", c.tab.Name, rep.Err())
		}
		if rep.States != c.states || rep.Transitions != c.transitions {
			t.Errorf("%s: states=%d transitions=%d, want %d/%d",
				c.tab.Name, rep.States, rep.Transitions, c.states, c.transitions)
		}
	}
}

// TestEnumerateMutationTeeth: every deliberate Mutation bit must break
// a named invariant when the enumerator steps the table under it.
// MutDropInvForward only bites under the hierarchical table — the flat
// model never delivers an Invalidation event, which is pinned too.
func TestEnumerateMutationTeeth(t *testing.T) {
	cases := []struct {
		tab       proto.Table
		mu        proto.Mutation
		invariant string // "" = no violation expected
	}{
		{proto.NHCCTable(), proto.MutDropStoreInv, "full-set-invalidation"},
		{proto.NHCCTable(), proto.MutDropInvForward, ""},
		{proto.NHCCTable(), proto.MutDropEvictInv, "full-set-invalidation"},
		{proto.HMGTable(), proto.MutDropStoreInv, "hierarchical-inclusion"},
		{proto.HMGTable(), proto.MutDropInvForward, "hmg-inv-forward"},
		{proto.HMGTable(), proto.MutDropEvictInv, "full-set-invalidation"},
	}
	for _, c := range cases {
		rep, err := Enumerate(c.tab, c.mu)
		if err != nil {
			t.Fatalf("%s mut=%d: %v", c.tab.Name, c.mu, err)
		}
		found := map[string]bool{}
		for _, v := range rep.Violations {
			found[v.Invariant] = true
		}
		if c.invariant == "" {
			if len(rep.Violations) != 0 {
				t.Errorf("%s mut=%d: unexpected violations %v", c.tab.Name, c.mu, rep.Violations[0])
			}
			continue
		}
		if !found[c.invariant] {
			t.Errorf("%s mut=%d: violations %v missing %s", c.tab.Name, c.mu, found, c.invariant)
		}
	}
	// MutDropStoreInv also suppresses the remote-store cell, whose V→V
	// transition is caught by the untracked-copy invariant.
	rep, _ := Enumerate(proto.NHCCTable(), proto.MutDropStoreInv)
	found := false
	for _, v := range rep.Violations {
		found = found || (v.Invariant == "untracked-copy" && strings.HasPrefix(v.Event, "RemoteSt"))
	}
	if !found {
		t.Errorf("NHCC MutDropStoreInv: no untracked-copy violation on a remote store: %v", rep.Violations)
	}
}

// TestEnumerateCatchesProtocolBug proves the enumerator has teeth: an
// HMG table whose GPU home ignores system-home invalidations (keeps its
// entry Valid) passes structural validation but breaks hmg-inv-forward
// and hierarchical inclusion under enumeration — the same coherence
// hole MutDropInvForward opens by suppressing the forward.
func TestEnumerateCatchesProtocolBug(t *testing.T) {
	bad := proto.HMGTable()
	bad.Name = "HMG-ignore-inv"
	for i, r := range bad.Rules {
		if r.State == proto.StateV && r.Event == proto.Invalidation {
			bad.Rules[i] = proto.Rule{State: proto.StateV, Event: proto.Invalidation, Guard: proto.Always,
				Next: proto.StateV, Update: proto.KeepSharers, Inv: proto.InvNone}
		}
	}
	if err := bad.Validate(); err != nil {
		t.Fatalf("broken table must still validate structurally: %v", err)
	}
	rep, err := Enumerate(bad, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("enumerator missed the ignored invalidation")
	}
	found := map[string]bool{}
	for _, v := range rep.Violations {
		found[v.Invariant] = true
	}
	if !found["hmg-inv-forward"] {
		t.Errorf("violations %v missing hmg-inv-forward", found)
	}
	if !found["hierarchical-inclusion"] {
		t.Errorf("violations %v missing hierarchical-inclusion", found)
	}
}

func TestRenderMarkdown(t *testing.T) {
	md := RenderMarkdown(proto.HMGTable())
	for _, want := range []string{
		"| State | Event | Guard | Next | Sharer set | Invalidations |",
		"| V | RemoteSt | other sharers present | V | requester only | inv other sharers |",
		"| V | Invalidation | always | I | clear sharers | inv full sharer set |",
	} {
		if !strings.Contains(md, want) {
			t.Errorf("rendered table missing %q:\n%s", want, md)
		}
	}
	if strings.Contains(RenderMarkdown(proto.NHCCTable()), "Invalidation |") {
		t.Error("flat table rendered an Invalidation row")
	}
}

// TestDesignDocSync: the Table I section of DESIGN.md is the verbatim
// output of RenderDoc, so the documented table cannot drift from the
// executable spec. Regenerate with `go run ./cmd/hmgspec -render`.
func TestDesignDocSync(t *testing.T) {
	const begin, end = "<!-- hmgspec:tablei:begin -->", "<!-- hmgspec:tablei:end -->"
	raw, err := os.ReadFile("../../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	i, j := strings.Index(doc, begin), strings.Index(doc, end)
	if i < 0 || j < 0 || j < i {
		t.Fatalf("DESIGN.md missing %s/%s markers", begin, end)
	}
	embedded := doc[i+len(begin) : j]
	want := "\n" + RenderDoc() + "\n"
	if embedded != want {
		t.Errorf("DESIGN.md Table I section is stale; regenerate with `go run ./cmd/hmgspec -render`\n--- embedded ---\n%s\n--- rendered ---\n%s", embedded, want)
	}
}
