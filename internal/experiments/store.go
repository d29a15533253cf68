// A run's one identity: the content address that keys both memo tiers,
// and the model-version stamp that scopes it. The address digests the
// wire encoding of the stamp, the canonical run specification (runKey:
// complete benchmark parameters, protocol, defaulted variant and
// effective machine shape) and the campaign scaling options. Any
// divergence hashes to a different address and re-simulates; the store
// can waste disk, never serve a wrong figure.

package experiments

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"sync"

	"hmg/internal/gsim"
	"hmg/internal/proto"
	"hmg/internal/proto/spec"
	"hmg/internal/resstore"
	"hmg/internal/topo"
	"hmg/internal/wire"
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
// every cached figure is stale by construction), and the wire schemas
// of the Results record and of the address preimage (a field added to
// either changes what their bytes mean). Records stamped differently
// are cache misses. The stamp is computed once per process: every
// input is fixed at build time.
func ModelVersion() string { return modelVersion() }

var modelVersion = sync.OnceValue(func() string {
	table := sha256.Sum256([]byte(spec.RenderDoc()))
	results := wire.Schema(reflect.TypeOf(gsim.Results{}))
	run := wire.Schema(reflect.TypeOf(preimage{}))
	return fmt.Sprintf("hmg-model-v%d-tablei-%x-results-%x-runspec-%x",
		modelSchemaVersion, table[:8], results[:8], run[:8])
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

// preimage is everything a run's content address digests.
type preimage struct {
	stamp     string
	run       runKey
	scale     float64
	smsPerGPM int
	pageKB    int
}

// address digests run k with the campaign scaling options under the
// model-version stamp. The preimage is encoded into a stack buffer, so
// an address costs no allocation.
func (r *Runner) address(k runKey) resstore.Key {
	p := preimage{ModelVersion(), k, r.opts.Scale, r.opts.SMsPerGPM, pageSizeKB}
	var buf [512]byte
	return sha256.Sum256(wire.Append(buf[:0], reflect.ValueOf(&p).Elem()))
}
