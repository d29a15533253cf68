// A run's one identity: the content address that keys both memo tiers,
// and the model-version stamp that the store checks. The address digests
// the wire encoding of the canonical run specification (runKey: complete
// benchmark parameters, protocol, defaulted variant and effective
// machine shape) and the campaign scaling options: what the run is, not
// which model ran it. The stamp lives only in each record's header, so
// a record of another model is a miss that re-simulates and is
// overwritten in place; the store holds one record per distinct run and
// never serves a wrong figure.

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

// ModelVersion returns the campaign store's model-version stamp: a
// digest of the machine-readable Table I spec tables (the declarative
// protocol definition), the wire schemas of the Results record and of
// the address preimage (a field added to either changes what their
// bytes mean), and the canary digest (see canary), which rolls whenever
// a change moves what the simulator computes. Records stamped
// differently are cache misses. Every input is fixed at build time, so
// the stamp is computed once per process, on first use: the first store
// open (or hmgbench -storeversion) pays for the canary's runs.
var ModelVersion = sync.OnceValue(modelVersion)

// modelVersion computes the stamp.
func modelVersion() string {
	table := sha256.Sum256([]byte(spec.RenderDoc()))
	results := wire.Schema(reflect.TypeOf(gsim.Results{}))
	run := wire.Schema(reflect.TypeOf(preimage{}))
	c, err := canary(canaryRuns(PlanUnion(Figures())), nil)
	if err != nil {
		panic(err) // a model that cannot run its own plan has no stamp
	}
	return fmt.Sprintf("hmg-model-canary-%x-tablei-%x-results-%x-runspec-%x",
		c[:8], table[:8], results[:8], run[:8])
}

// The canary is what makes the stamp follow the model's behaviour: a
// fixed set of small runs, taken from the campaign plan itself, whose
// Results bytes are digested into the stamp. It runs on a 2x2 machine
// at scale 0.01 through Runner.simulate, so the campaign's
// configuration (Runner.Config), shape resolution and static placement
// are part of what it sees; it never goes through the memo or the
// store, whose records carry the stamp.
var canaryOptions = Options{Scale: 0.01, SMsPerGPM: 8, Topo: topo.Spec{NumGPUs: 2, GPMsPerGPU: 2}}

// canaryBench runs every (protocol, variant) pair of the plan, and
// canaryKind every distinct benchmark. bfs tells apart 42 of the plan's
// 44 pairs at canary scale (only SW-Hier's L2 capacities coincide).
const (
	canaryBench = "bfs"
	canaryKind  = proto.HMG
)

// canaryRuns returns the canary's runs in plan order: canaryBench under
// every unique (protocol, canonical variant) pair of plan, then every
// other distinct benchmark of plan under canaryKind at the Table II
// point.
func canaryRuns(plan []RunSpec) []RunSpec {
	bench, err := workload.Get(canaryBench)
	if err != nil {
		panic(err)
	}
	var runs []RunSpec
	seen := make(map[RunSpec]bool)
	add := func(s RunSpec) {
		s.V = canonicalVariant(s.Kind, s.V)
		if !seen[s] {
			seen[s] = true
			runs = append(runs, s)
		}
	}
	for _, s := range plan {
		add(RunSpec{Bench: bench, Kind: s.Kind, V: s.V})
	}
	for _, s := range plan {
		add(RunSpec{Bench: s.Bench, Kind: canaryKind})
	}
	return runs
}

// canary simulates runs one after another on the canary machine and
// digests the wire encoding of their Results. edit, when non-nil,
// rewrites each run's configuration: the tests perturb the model
// through it.
func canary(runs []RunSpec, edit func(gsim.Config) gsim.Config) ([sha256.Size]byte, error) {
	r, err := NewRunner(canaryOptions)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	h := sha256.New()
	w := &worker{traces: &traceSet{}} // one machine; no shared traces
	var buf []byte
	for _, s := range runs {
		res, err := r.simulate(r.key(s.Bench, s.Kind, s.V, s.Topo), w, edit)
		if err != nil {
			return [sha256.Size]byte{}, fmt.Errorf("experiments: canary: %w", err)
		}
		buf = wire.Append(buf[:0], reflect.ValueOf(res).Elem())
		h.Write(buf)
	}
	return [sha256.Size]byte(h.Sum(nil)), nil
}

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
	run       runKey
	scale     float64
	smsPerGPM int
	pageKB    int
}

// address digests run k with the campaign scaling options. The preimage
// is encoded into a stack buffer, so an address costs no allocation.
func (r *Runner) address(k runKey) resstore.Key {
	p := preimage{k, r.opts.Scale, r.opts.SMsPerGPM, pageSizeKB}
	var buf [512]byte
	return sha256.Sum256(wire.Append(buf[:0], reflect.ValueOf(&p).Elem()))
}
