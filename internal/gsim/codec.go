// The Results record, the payload of the on-disk campaign store
// (internal/resstore): the internal/wire encoding of every field in
// declaration order, so the same Results value produces the same bytes
// on every machine — the property that lets the store address records
// by content and verify them with a payload digest. The shape of
// Results (wire.Schema) is part of the store's model-version stamp, so
// adding, renaming or retyping a field rolls the stamp by itself and
// every older record becomes a miss.

package gsim

import (
	"fmt"
	"reflect"

	"hmg/internal/wire"
)

// MarshalBinary implements encoding.BinaryMarshaler with the wire
// encoding. It never fails.
func (r *Results) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, 256+len(r.Name)+8*len(r.KernelCycles))
	return wire.Append(b, reflect.ValueOf(r).Elem()), nil
}

// UnmarshalResults decodes a Results record produced by MarshalBinary.
// It is strict: truncation, damage the wire decoder detects, or
// trailing bytes are errors — the store treats any of them as a cache
// miss.
func UnmarshalResults(data []byte) (*Results, error) {
	r := &Results{}
	rest, err := wire.Decode(data, reflect.ValueOf(r).Elem())
	if err != nil {
		return nil, fmt.Errorf("gsim: results record: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("gsim: %d trailing bytes after results record", len(rest))
	}
	return r, nil
}
