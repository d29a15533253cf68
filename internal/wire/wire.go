// Package wire is the one field codec of every binary format in this
// repo: the deterministic byte encoding that a run's content address
// (internal/experiments), the stored gsim.Results record and the trace
// file (internal/trace) are built from, and the schema digest that folds
// their shapes into the store's model-version stamp and the trace file
// header.
//
// Append walks a value in declaration order: unsigned integers as
// uvarints, signed integers as zigzag varints, floats as 8 little-endian
// bytes of their float64 bits, bools as one byte, strings and slices as
// a uvarint count followed by their bytes or elements, and structs as
// their fields. Every encoding is self-delimiting, so distinct values of
// one type encode to distinct bytes, and the same value to the same
// bytes on every machine. Any other kind (pointer, map, interface,
// array, channel, function) panics, so a field of such a kind cannot
// silently drop out of an encoding.
package wire

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
)

// Append appends the encoding of v to b and returns the extended slice.
// It never allocates beyond growing b.
func Append(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			b = Append(b, v.Field(i))
		}
		return b
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(b, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.AppendUvarint(b, v.Uint())
	case reflect.Float32, reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		b = binary.AppendUvarint(b, uint64(v.Len()))
		return append(b, v.String()...)
	case reflect.Slice:
		b = binary.AppendUvarint(b, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			b = Append(b, v.Index(i))
		}
		return b
	}
	panic(unsupported(v.Type()))
}

var errTruncated = errors.New("wire: truncated encoding")

// Decode is the strict inverse of Append: it decodes one value of v's
// type from the front of b into v, which must be settable, and returns
// the bytes that follow it. It rejects truncation, a string or slice
// count larger than the bytes left, a value that overflows a narrower
// field, and a bool byte other than 0 or 1. An empty slice decodes as
// nil.
func Decode(b []byte, v reflect.Value) ([]byte, error) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			var err error
			if b, err = Decode(b, v.Field(i)); err != nil {
				return nil, err
			}
		}
		return b, nil
	case reflect.Bool:
		if len(b) == 0 {
			return nil, errTruncated
		}
		if b[0] > 1 {
			return nil, fmt.Errorf("wire: bool byte %d", b[0])
		}
		v.SetBool(b[0] == 1)
		return b[1:], nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x, n := binary.Varint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		if v.OverflowInt(x) {
			return nil, fmt.Errorf("wire: %d overflows %s", x, v.Type())
		}
		v.SetInt(x)
		return b[n:], nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		if v.OverflowUint(x) {
			return nil, fmt.Errorf("wire: %d overflows %s", x, v.Type())
		}
		v.SetUint(x)
		return b[n:], nil
	case reflect.Float32, reflect.Float64:
		if len(b) < 8 {
			return nil, errTruncated
		}
		x := math.Float64frombits(binary.LittleEndian.Uint64(b))
		if v.OverflowFloat(x) {
			return nil, fmt.Errorf("wire: %g overflows %s", x, v.Type())
		}
		v.SetFloat(x)
		return b[8:], nil
	case reflect.String:
		n, b, err := count(b)
		if err != nil {
			return nil, err
		}
		v.SetString(string(b[:n]))
		return b[n:], nil
	case reflect.Slice:
		n, b, err := count(b)
		if err != nil {
			return nil, err
		}
		v.SetZero() // stays nil when n is 0
		// Grow+SetLen allocates the backing array only; MakeSlice+Set
		// would allocate a slice header too.
		v.Grow(n)
		v.SetLen(n)
		for i := 0; i < n; i++ {
			if b, err = Decode(b, v.Index(i)); err != nil {
				return nil, err
			}
		}
		return b, nil
	}
	panic(unsupported(v.Type()))
}

// count decodes a string or slice count. Every byte of a string and
// every element of a slice takes at least one byte (a slice of
// field-less structs is the one exception, and no encoded type holds
// one: TestWireCountGuardPremise in internal/experiments walks them),
// so a count larger than the bytes left is damage, rejected before it
// can size an allocation.
func count(b []byte) (int, []byte, error) {
	n, w := binary.Uvarint(b)
	if w <= 0 {
		return 0, nil, errTruncated
	}
	b = b[w:]
	if n > uint64(len(b)) {
		return 0, nil, fmt.Errorf("wire: count %d exceeds the %d bytes left", n, len(b))
	}
	return int(n), b, nil
}

// Schema returns a digest of t's encoding shape: the kind of every
// value and the name of every struct field, recursively. Adding,
// removing, renaming, reordering or changing the kind of a field
// changes it, so a stamp that includes it rolls by itself when the
// bytes Append writes for t change meaning.
func Schema(t reflect.Type) [sha256.Size]byte {
	return sha256.Sum256(appendSchema(nil, t))
}

func appendSchema(b []byte, t reflect.Type) []byte {
	b = append(b, t.Kind().String()...)
	switch t.Kind() {
	case reflect.Struct:
		b = append(b, '{')
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			b = append(b, f.Name...)
			b = append(b, ' ')
			b = appendSchema(b, f.Type)
			b = append(b, ';')
		}
		return append(b, '}')
	case reflect.Slice:
		return appendSchema(append(b, ' '), t.Elem())
	}
	return b
}

func unsupported(t reflect.Type) string {
	return "wire: " + t.String() + " has kind " + t.Kind().String() + ", which the field codec does not encode"
}
