package experiments

import (
	"strings"
	"testing"

	"hmg/internal/proto"
	"hmg/internal/topo"
)

// TestTopoScalePlanCoverage checks the study's recorded plan covers
// every machine shape for both protocols plus the per-shape baseline,
// and that the shapes produce distinct memo keys (no accidental folding
// of a 16x8 run into the 4x4 cache).
func TestTopoScalePlanCoverage(t *testing.T) {
	r := testRunner()
	specs := PlanUnion([]Figure{figure(t, "toposcale")})
	want := len(topoScaleSpecs) * len(topoScaleBenchNames) * (len(topoScaleKinds) + 1)
	if len(specs) != want {
		t.Fatalf("plan has %d specs, want %d", len(specs), want)
	}
	keys := map[runKey]bool{}
	for _, s := range specs {
		keys[r.key(s.Bench, s.Kind, s.V, s.Topo)] = true
	}
	if len(keys) != want {
		t.Fatalf("plan folds to %d unique keys, want %d distinct", len(keys), want)
	}
	// The 4x4 shape must share keys with plain Table II runs.
	b := specs[0].Bench
	k44 := r.key(b, proto.NoRemoteCache, Variant{}, topo.Spec{NumGPUs: 4, GPMsPerGPU: 4})
	if k44 != r.key(b, proto.NoRemoteCache, Variant{}, topo.Spec{}) {
		t.Fatal("4x4 toposcale runs do not reuse Table II memo keys")
	}
	if !strings.Contains(r.name(r.key(b, proto.NHCC, Variant{}, topo.Spec{NumGPUs: 16, GPMsPerGPU: 8})), "@16x8") {
		t.Fatal("16x8 run's log name is not topology-suffixed")
	}
}

// TestTopoScaleDeterminism generates the toposcale figure serially and
// on 8 workers at a small scale: the rendered table must be
// byte-identical — the -jobs contract extended to topology-suffixed
// memo keys, including the second sharer-bitmap word the 16x8 flat
// runs exercise.
func TestTopoScaleDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("two full toposcale campaigns are slow; run without -short")
	}
	if raceEnabled {
		// The worker-pool/memo machinery is race-exercised at full scale
		// by TestPrewarmDeterminism; two more campaigns under the
		// detector add minutes without new interleavings.
		t.Skip("toposcale byte-identity is covered by the non-race tier")
	}
	gen := func(jobs int) string {
		r, err := NewRunner(Options{Scale: 0.02, SMsPerGPM: 2, Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Prewarm(PlanUnion([]Figure{figure(t, "toposcale")})); err != nil {
			t.Fatal(err)
		}
		tab, err := TopoScale(r)
		if err != nil {
			t.Fatal(err)
		}
		return tab.String()
	}
	if s, p := gen(1), gen(8); s != p {
		t.Fatalf("toposcale output differs between -jobs 1 and -jobs 8:\n--- jobs=1\n%s\n--- jobs=8\n%s", s, p)
	}
}
