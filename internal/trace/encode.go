package trace

import (
	"bytes"
	"fmt"
	"io"
	"reflect"

	"hmg/internal/wire"
)

// header opens every trace file: the magic "HMGT" and the first 8 bytes
// of Trace's wire schema digest. The body is the wire encoding of the
// Trace, so a change to Trace's shape changes the header and old files
// are rejected instead of misread.
var header = func() []byte {
	s := wire.Schema(reflect.TypeOf(Trace{}))
	return append([]byte("HMGT"), s[:8]...)
}()

// Encode writes the trace in binary form.
func Encode(out io.Writer, t *Trace) error {
	if err := t.Validate(); err != nil {
		return err
	}
	b := wire.Append(bytes.Clone(header), reflect.ValueOf(t).Elem())
	_, err := out.Write(b)
	return err
}

// Decode reads a binary trace written by Encode. Bytes after the trace
// are an error.
func Decode(in io.Reader) (*Trace, error) {
	b, err := io.ReadAll(in)
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(b, header) {
		return nil, fmt.Errorf("trace: not a trace file of this format: header %q, want %q", b[:min(len(b), len(header))], header)
	}
	t := new(Trace)
	rest, err := wire.Decode(b[len(header):], reflect.ValueOf(t).Elem())
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if len(rest) > 0 {
		return nil, fmt.Errorf("trace: %d trailing bytes", len(rest))
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
