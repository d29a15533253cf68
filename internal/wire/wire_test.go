package wire

import (
	"math"
	"reflect"
	"testing"
)

type inner struct {
	Tag   string
	Flags []bool
}

// every holds each kind the codec encodes, plus nesting.
type every struct {
	B   bool
	I   int
	I8  int8
	I16 int16
	I32 int32
	I64 int64
	U   uint
	U8  uint8
	U16 uint16
	U32 uint32
	U64 uint64
	F32 float32
	F64 float64
	S   string
	Xs  []uint64
	In  inner
	Ins []inner
}

func full() every {
	return every{
		B: true, I: -1, I8: math.MinInt8, I16: 300, I32: -70000, I64: math.MinInt64,
		U: 1, U8: math.MaxUint8, U16: 60000, U32: 1 << 31, U64: math.MaxUint64,
		F32: 0.5, F64: -1.0 / 3, S: "bench-αβ",
		Xs:  []uint64{7, 11, 1 << 40},
		In:  inner{Tag: "x", Flags: []bool{true, false}},
		Ins: []inner{{}, {Tag: "y"}},
	}
}

func encode(v any) []byte { return Append(nil, reflect.ValueOf(v)) }

func TestRoundTrip(t *testing.T) {
	for _, want := range []every{full(), {}} {
		buf := encode(want)
		var got every
		rest, err := Decode(buf, reflect.ValueOf(&got).Elem())
		if err != nil {
			t.Fatal(err)
		}
		if len(rest) != 0 {
			t.Fatalf("%d bytes left over", len(rest))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
		}
		if string(encode(want)) != string(buf) {
			t.Fatal("Append is not deterministic")
		}
	}
	// An empty slice decodes as nil, and a decode replaces whatever the
	// target held.
	got := every{Xs: []uint64{1, 2}, Ins: []inner{{Tag: "old"}}}
	if _, err := Decode(encode(every{Xs: []uint64{}}), reflect.ValueOf(&got).Elem()); err != nil {
		t.Fatal(err)
	}
	if got.Xs != nil || got.Ins != nil {
		t.Fatalf("empty slices decoded as %#v and %#v, want nil", got.Xs, got.Ins)
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	buf := encode(full())
	for cut := 0; cut < len(buf); cut++ {
		var v every
		if _, err := Decode(buf[:cut], reflect.ValueOf(&v).Elem()); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", cut, len(buf))
		}
	}
	for _, c := range []struct {
		name string
		buf  []byte
		into any
	}{
		{"bool byte 2", []byte{2}, new(struct{ B bool })},
		{"string count past the end", []byte{5, 'a'}, new(struct{ S string })},
		{"slice count past the end", append([]byte{0xff, 0xff, 0x03}, make([]byte, 100)...), new(struct{ Xs []uint8 })},
		{"uint overflows uint8", encode(struct{ U uint64 }{256}), new(struct{ U uint8 })},
		{"int overflows int8", encode(struct{ I int64 }{-129}), new(struct{ I int8 })},
		{"float overflows float32", encode(struct{ F float64 }{1e300}), new(struct{ F float32 })},
		{"varint longer than 64 bits", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, new(struct{ U uint64 })},
	} {
		if _, err := Decode(c.buf, reflect.ValueOf(c.into).Elem()); err == nil {
			t.Errorf("%s: decoded without error", c.name)
		}
	}
}

// TestUnencodedKindsPanic: a field of a kind the codec does not encode
// panics on both sides rather than dropping out of an encoding.
func TestUnencodedKindsPanic(t *testing.T) {
	for _, v := range []any{
		&struct{ P *int }{},
		&struct{ M map[int]int }{},
		&struct{ X any }{},
	} {
		e := reflect.ValueOf(v).Elem()
		for name, f := range map[string]func(){
			"Append": func() { Append(nil, e) },
			"Decode": func() { Decode(make([]byte, 16), e) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s of %T did not panic", name, v)
					}
				}()
				f()
			}()
		}
	}
}

// TestSchemaTracksShape: adding a field, renaming one or changing its
// kind changes the schema digest; the type's name does not.
func TestSchemaTracksShape(t *testing.T) {
	type base struct {
		A uint64
		S []string
	}
	type renamedType struct {
		A uint64
		S []string
	}
	type added struct {
		A uint64
		S []string
		B bool
	}
	type renamedField struct {
		B uint64
		S []string
	}
	type rekinded struct {
		A int64
		S []string
	}
	type elemRekinded struct {
		A uint64
		S []uint64
	}
	want := Schema(reflect.TypeOf(base{}))
	if Schema(reflect.TypeOf(renamedType{})) != want {
		t.Error("renaming the type changed its schema")
	}
	for _, v := range []any{added{}, renamedField{}, rekinded{}, elemRekinded{}} {
		if Schema(reflect.TypeOf(v)) == want {
			t.Errorf("%T has the same schema as base", v)
		}
	}
}
