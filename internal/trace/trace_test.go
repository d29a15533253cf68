package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"hmg/internal/topo"
)

func sampleTrace() *Trace {
	return &Trace{
		Name:           "sample",
		FootprintBytes: 1 << 20,
		Placement: []PlacementHint{
			{Page: 0, GPM: 2},
			{Page: 1, GPM: 5},
		},
		Kernels: []Kernel{
			{CTAs: []CTA{
				{Warps: []Warp{
					{Ops: []Op{
						{Kind: Load, Addr: 0x1000, Gap: 10},
						{Kind: Store, Addr: 0x1004, Gap: 2},
						{Kind: LoadAcq, Scope: ScopeGPU, Addr: 0x2000, Gap: 0},
						{Kind: StoreRel, Scope: ScopeSys, Addr: 0x2004, Gap: 5},
						{Kind: Atomic, Scope: ScopeGPU, Addr: 0x3000, Gap: 1},
					}},
					{Ops: []Op{{Kind: Load, Addr: 0x100, Gap: 3}}},
				}},
				{Warps: []Warp{{Ops: []Op{{Kind: Store, Addr: 0x4000}}}}},
			}},
			{CTAs: []CTA{{Warps: []Warp{{Ops: []Op{{Kind: Load, Addr: 0}}}}}}},
		},
	}
}

// TestOpPacksIn24Bytes pins the Op layout: generated op slabs and every
// pooled simulator context carry Ops by value.
func TestOpPacksIn24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Op{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Op{}) = %d, want 24", got)
	}
}

func TestScopeAndKindStrings(t *testing.T) {
	if ScopeGPU.String() != ".gpu" || ScopeSys.String() != ".sys" || ScopeCTA.String() != ".cta" || ScopeNone.String() != "none" {
		t.Error("scope names wrong")
	}
	if Load.String() != "Ld" || StoreRel.String() != "StRel" {
		t.Error("op kind names wrong")
	}
	if !strings.Contains(Scope(9).String(), "9") || !strings.Contains(OpKind(9).String(), "9") {
		t.Error("unknown enum strings wrong")
	}
}

func TestKindPredicates(t *testing.T) {
	cases := []struct {
		k              OpKind
		isLoad, isSync bool
	}{
		{Load, true, false},
		{Store, false, false},
		{Atomic, true, true},
		{LoadAcq, true, true},
		{StoreRel, false, true},
	}
	for _, c := range cases {
		if c.k.IsLoad() != c.isLoad || c.k.IsSync() != c.isSync {
			t.Errorf("%v predicates wrong", c.k)
		}
	}
}

func TestOpsCount(t *testing.T) {
	if got := sampleTrace().Ops(); got != 8 {
		t.Fatalf("Ops = %d, want 8", got)
	}
}

func TestValidate(t *testing.T) {
	if err := sampleTrace().Validate(); err != nil {
		t.Fatalf("sample invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Trace)
	}{
		{"empty name", func(tr *Trace) { tr.Name = "" }},
		{"empty kernel", func(tr *Trace) { tr.Kernels[0].CTAs = nil }},
		{"unaligned addr", func(tr *Trace) { tr.Kernels[0].CTAs[0].Warps[0].Ops[0].Addr = 3 }},
		{"sync no scope", func(tr *Trace) { tr.Kernels[0].CTAs[0].Warps[0].Ops[2].Scope = ScopeNone }},
		{"bad kind", func(tr *Trace) { tr.Kernels[0].CTAs[0].Warps[0].Ops[0].Kind = 99 }},
		{"bad scope", func(tr *Trace) { tr.Kernels[0].CTAs[0].Warps[0].Ops[0].Scope = 99 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := sampleTrace()
			c.mut(tr)
			if tr.Validate() == nil {
				t.Error("Validate accepted corrupt trace")
			}
		})
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatalf("round trip mismatch:\nin:  %+v\nout: %+v", tr, got)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Error("Decode accepted garbage")
	}
	if _, err := Decode(bytes.NewReader(nil)); err == nil {
		t.Error("Decode accepted empty input")
	}
	// Right magic, wrong header: a complete file of the older
	// hand-encoded format (version byte 1, per-warp address deltas).
	if _, err := Decode(bytes.NewReader(v1File)); err == nil || !strings.Contains(err.Error(), "format") {
		t.Errorf("Decode of a v1 file: err %v, want a header error naming the format", err)
	}
}

// v1File is a one-op trace named "old" in the format trace files had
// before they became the wire encoding of Trace: magic, version byte 1,
// name, footprint, placement count, then one kernel, CTA, warp and op.
var v1File = []byte("HMGT\x01\x03old\x00\x00\x01\x01\x01\x01\x00\x00\x00\x00\x00")

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	for _, tail := range [][]byte{{0}, {1, 2, 3}, buf.Bytes()} {
		data := append(bytes.Clone(buf.Bytes()), tail...)
		if _, err := Decode(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Errorf("Decode with %d trailing bytes: err %v, want a trailing-bytes error", len(tail), err)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, 10, len(full) / 2, len(full) - 1} {
		if _, err := Decode(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("Decode accepted truncation at %d", cut)
		}
	}
}

// Property: random well-formed traces round-trip exactly.
func TestRoundTripProperty(t *testing.T) {
	gen := func(seed int64) *Trace {
		rng := rand.New(rand.NewSource(seed))
		tr := &Trace{Name: "prop", FootprintBytes: rng.Int63n(1 << 30)}
		for p := 0; p < rng.Intn(4); p++ {
			tr.Placement = append(tr.Placement, PlacementHint{Page: topo.Page(rng.Intn(100)), GPM: topo.GPMID(rng.Intn(16))})
		}
		for k := 0; k < 1+rng.Intn(3); k++ {
			var kern Kernel
			for c := 0; c < 1+rng.Intn(3); c++ {
				var cta CTA
				for w := 0; w < rng.Intn(3); w++ {
					var wp Warp
					for o := 0; o < rng.Intn(10); o++ {
						op := Op{
							Kind: OpKind(rng.Intn(5)),
							Addr: topo.Addr(rng.Intn(1<<20)) &^ 3,
							Gap:  uint32(rng.Intn(100)),
						}
						if op.Kind.IsSync() {
							op.Scope = Scope(1 + rng.Intn(3))
						} else if rng.Intn(2) == 0 {
							op.Scope = ScopeCTA
						}
						wp.Ops = append(wp.Ops, op)
					}
					cta.Warps = append(cta.Warps, wp)
				}
				kern.CTAs = append(kern.CTAs, cta)
			}
			tr.Kernels = append(tr.Kernels, kern)
		}
		return tr
	}
	prop := func(seed int64) bool {
		tr := gen(seed)
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(tr, got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAssignCTAContiguous(t *testing.T) {
	// 16 CTAs on 4 GPMs: blocks of 4.
	for i := 0; i < 16; i++ {
		want := topo.GPMID(i / 4)
		if got := AssignCTA(i, 16, 4); got != want {
			t.Fatalf("AssignCTA(%d) = %d, want %d", i, got, want)
		}
	}
	// Monotone non-decreasing and covering all GPMs when n >= g.
	prev := topo.GPMID(0)
	seen := map[topo.GPMID]bool{}
	for i := 0; i < 37; i++ {
		g := AssignCTA(i, 37, 8)
		if g < prev {
			t.Fatal("AssignCTA not monotone")
		}
		if g < 0 || g >= 8 {
			t.Fatalf("AssignCTA out of range: %d", g)
		}
		prev = g
		seen[g] = true
	}
	if len(seen) != 8 {
		t.Fatalf("AssignCTA covered %d of 8 GPMs", len(seen))
	}
}

func TestAssignCTAPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AssignCTA out of range did not panic")
		}
	}()
	AssignCTA(5, 5, 4)
}

func BenchmarkEncode(b *testing.B) {
	tr := sampleTrace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Encode(&buf, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// failWriter errors after n bytes, exercising Encode's error paths.
type failWriter struct{ left int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.left <= 0 {
		return 0, errWrite
	}
	n := len(p)
	if n > w.left {
		n = w.left
	}
	w.left -= n
	if n < len(p) {
		return n, errWrite
	}
	return n, nil
}

var errWrite = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "synthetic write failure" }

func TestEncodeWriteErrors(t *testing.T) {
	tr := sampleTrace()
	var full bytes.Buffer
	if err := Encode(&full, tr); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < full.Len(); cut += 7 {
		if err := Encode(&failWriter{left: cut}, tr); err == nil {
			t.Fatalf("Encode succeeded with writer failing after %d bytes", cut)
		}
	}
}

func TestEncodeRejectsInvalidTrace(t *testing.T) {
	tr := sampleTrace()
	tr.Name = ""
	var buf bytes.Buffer
	if err := Encode(&buf, tr); err == nil {
		t.Fatal("Encode accepted invalid trace")
	}
}
