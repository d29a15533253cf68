// The campaign's persistent memo tier: content addresses for runs and
// the model-version stamp that scopes them. Both tiers key on one
// canonical run specification (runKey): complete benchmark parameters,
// protocol, defaulted variant and effective machine shape. The disk
// store outlives the process, so its keys also digest the campaign
// scaling options and a stamp tied to the simulated model itself. Any
// divergence hashes to a different address and re-simulates; the store
// can waste disk, never serve a wrong figure.

package experiments

import (
	"crypto/sha256"
	"fmt"
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
const modelSchemaVersion = 3

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

// StoreKey returns the content address of one run of this campaign.
// Specs that canonicalize to the same in-process memo key (see
// Runner.key) produce the same StoreKey, so both tiers dedup alike.
func (r *Runner) StoreKey(bench workload.Params, kind proto.Kind, v Variant, sp topo.Spec) resstore.Key {
	return r.storeKey(r.key(bench, kind, v, sp))
}

// storeKey digests run k with the campaign scaling options under the
// model-version stamp.
func (r *Runner) storeKey(k runKey) resstore.Key {
	return resstore.SumKey(
		"hmg-runspec-v1",
		ModelVersion(),
		fmt.Sprintf("%+v", k.bench),
		k.kind.String(),
		fmt.Sprintf("%+v", k.v),
		k.shape.String(),
		fmt.Sprintf("scale=%v sms=%d page=%d", r.opts.Scale, r.opts.SMsPerGPM, pageSizeKB),
	)
}
