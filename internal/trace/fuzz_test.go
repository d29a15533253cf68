package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecode throws arbitrary bytes at the trace decoder: it must never
// panic, and anything it accepts must re-encode and decode to a
// deep-equal trace.
func FuzzDecode(f *testing.F) {
	// Seed with a valid trace and a few corruptions of it.
	valid := &Trace{
		Name:           "seed",
		FootprintBytes: 4096,
		Placement:      []PlacementHint{{Page: 1, GPM: 2}},
		Kernels: []Kernel{{CTAs: []CTA{{Warps: []Warp{{Ops: []Op{
			{Kind: Load, Addr: 0x100, Gap: 3},
			{Kind: StoreRel, Scope: ScopeSys, Addr: 0x104, Val: 9},
		}}}}}}},
	}
	var buf bytes.Buffer
	if err := Encode(&buf, valid); err != nil {
		f.Fatal(err)
	}
	seed := buf.Bytes()
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add([]byte("HMGT"))
	f.Add([]byte{})
	f.Add(v1File)
	corrupt := append([]byte(nil), seed...)
	corrupt[len(corrupt)/2] ^= 0xff
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Decode(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panicking is not
		}
		var out bytes.Buffer
		if err := Encode(&out, tr); err != nil {
			t.Fatalf("accepted trace failed to re-encode: %v", err)
		}
		tr2, err := Decode(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded trace failed to decode: %v", err)
		}
		if !reflect.DeepEqual(tr, tr2) {
			t.Fatalf("round trip mismatch: %+v vs %+v", tr, tr2)
		}
	})
}
