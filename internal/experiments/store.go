// A run's one identity: the content address that keys both memo tiers,
// and the model-version stamp that scopes it. The address digests the
// canonical run specification (runKey: complete benchmark parameters,
// protocol, defaulted variant and effective machine shape), the
// campaign scaling options and a stamp tied to the simulated model
// itself. Any divergence hashes to a different address and
// re-simulates; the store can waste disk, never serve a wrong figure.

package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"sync"

	"hmg/internal/gsim"
	"hmg/internal/proto"
	"hmg/internal/proto/spec"
	"hmg/internal/resstore"
	"hmg/internal/topo"
	"hmg/internal/workload"
)

// modelSchemaVersion names the simulated model's behavior outside what
// the Table I spec tables capture (timing, caches, interconnect,
// workload generators). Bump it whenever a change moves simulated
// cycles or event counts — the hmgperf gate that pins those against
// the committed BENCH_*.json baseline is the tripwire for forgetting:
// a baseline regeneration must come with a schema bump, or stale store
// records would keep serving the old model's figures.
const modelSchemaVersion = 4

// ModelVersion returns the campaign store's model-version stamp: the
// manual schema version, a digest of the machine-readable Table I spec
// tables (the declarative protocol definition — if the tables change,
// every cached figure is stale by construction), and the Results codec
// version. Records stamped differently are cache misses. The stamp is
// computed once per process: every input is fixed at build time.
func ModelVersion() string { return modelVersion() }

var modelVersion = sync.OnceValue(func() string {
	h := sha256.Sum256([]byte(spec.RenderDoc()))
	return fmt.Sprintf("hmg-model-v%d-tablei-%x-results-v%d",
		modelSchemaVersion, h[:8], gsim.ResultsCodecVersion)
})

// OpenStore opens (creating if needed) the content-addressed result
// store at dir, stamped with the current model version — the
// constructor behind `hmgbench -cachedir` and `hmgperf -cachedir`.
func OpenStore(dir string) (*resstore.Store, error) {
	return resstore.Open(dir, ModelVersion())
}

// StoreKey returns the content address of one run of this campaign: its
// key in the in-process memo and in the persistent store alike. Specs
// that canonicalize to the same run (see Runner.key) share it.
func (r *Runner) StoreKey(bench workload.Params, kind proto.Kind, v Variant, sp topo.Spec) resstore.Key {
	return r.address(r.key(bench, kind, v, sp))
}

// address digests run k with the campaign scaling options under the
// model-version stamp. The preimage is built in a stack buffer, so an
// address costs no allocation.
func (r *Runner) address(k runKey) resstore.Key {
	var buf [512]byte
	b := appendString(buf[:0], "hmg-runspec-v2")
	b = appendString(b, ModelVersion())
	b = appendValue(b, reflect.ValueOf(&k).Elem())
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.opts.Scale))
	b = binary.LittleEndian.AppendUint64(b, uint64(r.opts.SMsPerGPM))
	b = binary.LittleEndian.AppendUint64(b, pageSizeKB)
	return sha256.Sum256(b)
}

// appendString appends s's length, then s, to an address preimage.
func appendString(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint64(b, uint64(len(s))), s...)
}

// appendValue appends every field of v to an address preimage, walking
// structs in field order; each value has a fixed width or a length
// prefix, so distinct runs encode distinctly. It panics on a kind it
// does not encode, so a new field of such a kind cannot silently drop
// out of the address.
func appendValue(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			b = appendValue(b, v.Field(i))
		}
		return b
	case reflect.Bool:
		var x uint64
		if v.Bool() {
			x = 1
		}
		return binary.LittleEndian.AppendUint64(b, x)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.LittleEndian.AppendUint64(b, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.LittleEndian.AppendUint64(b, v.Uint())
	case reflect.Float32, reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		return appendString(b, v.String())
	}
	panic("experiments: run key holds a field of kind " + v.Kind().String() + " that the content address does not encode")
}
