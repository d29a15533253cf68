package gsim

import (
	"math"
	"reflect"
	"testing"

	"hmg/internal/engine"
	"hmg/internal/proto"
)

// fullResults fills every field of Results with a distinct non-zero
// value via reflection, so a field added to the struct but forgotten by
// the codec fails the round-trip below instead of silently decoding to
// zero.
func fullResults(t testing.TB) *Results {
	t.Helper()
	r := &Results{}
	v := reflect.ValueOf(r).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		salt := uint64(i + 3)
		switch f.Kind() {
		case reflect.String:
			f.SetString("bench-αβ") // non-ASCII to exercise byte-exact strings
		case reflect.Uint64:
			f.SetUint(salt * 1_000_003)
		case reflect.Int:
			f.SetInt(int64(proto.HMG))
		case reflect.Float64:
			f.SetFloat(0.001953125 * float64(salt)) // exact binary fraction
		case reflect.Slice:
			f.Set(reflect.ValueOf([]engine.Cycle{7, 11, 1 << 40}))
		default:
			t.Fatalf("Results field %s has kind %v the codec test cannot fill — extend fullResults and the codec",
				v.Type().Field(i).Name, f.Kind())
		}
	}
	return r
}

func TestResultsCodecCoversEveryField(t *testing.T) {
	want := fullResults(t)
	buf, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalResults(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip lost data:\n got %+v\nwant %+v", got, want)
	}
	// The encoding is deterministic: same value, same bytes.
	buf2, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(buf2) {
		t.Fatal("MarshalBinary is not deterministic")
	}
}

func TestResultsCodecZeroValue(t *testing.T) {
	buf, err := (&Results{}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalResults(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, &Results{}) {
		t.Fatalf("zero round trip: %+v", got)
	}
}

// TestResultsCodecRejectsDamage walks every truncation point and a byte
// flip at every offset: decode must return an error or a value unequal
// to the original — never panic, never silently accept damage that
// changes the payload. (Some flips hit encoding slack, e.g. the high
// bits of the float, and legitimately decode unequal.)
func TestResultsCodecRejectsDamage(t *testing.T) {
	want := fullResults(t)
	buf, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(buf); cut++ {
		if _, err := UnmarshalResults(buf[:cut]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", cut, len(buf))
		}
	}
	for i := range buf {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0x40
		got, err := UnmarshalResults(mut)
		if err == nil && reflect.DeepEqual(got, want) {
			t.Fatalf("flip at offset %d decoded equal to the original", i)
		}
	}
	if _, err := UnmarshalResults(append(buf, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestResultsCodecAllocations pins the codec's allocations for a
// record with a name and kernel cycles: MarshalBinary one (the buffer),
// UnmarshalResults three (the Results, its name and its kernel cycles).
func TestResultsCodecAllocations(t *testing.T) {
	r := fullResults(t)
	r.KernelCycles = append(r.KernelCycles, 5)
	buf, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { r.MarshalBinary() }); n > 1 {
		t.Errorf("MarshalBinary makes %v allocations, want at most 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { UnmarshalResults(buf) }); n > 3 {
		t.Errorf("UnmarshalResults makes %v allocations, want at most 3", n)
	}
}

// FuzzUnmarshalResults: no input panics the decoder, and any input it
// accepts re-encodes to a record that decodes to the same value.
func FuzzUnmarshalResults(f *testing.F) {
	full, err := fullResults(f).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	zero, err := (&Results{}).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	f.Add(zero)
	f.Add(full[:len(full)/2])
	f.Add(append(append([]byte(nil), full...), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalResults(data)
		if err != nil {
			return
		}
		again, err := r.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		r2, err := UnmarshalResults(again)
		if err != nil {
			t.Fatalf("re-encoded record rejected: %v", err)
		}
		// A NaN never deep-equals itself; its bits must survive instead.
		if math.Float64bits(r2.Seconds) != math.Float64bits(r.Seconds) {
			t.Fatalf("round trip changed Seconds bits: %x, want %x", math.Float64bits(r2.Seconds), math.Float64bits(r.Seconds))
		}
		r.Seconds, r2.Seconds = 0, 0
		if !reflect.DeepEqual(r, r2) {
			t.Fatalf("round trip changed the record:\n got %+v\nwant %+v", r2, r)
		}
	})
}
