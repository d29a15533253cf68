package gsim_test

import (
	"testing"

	"hmg/internal/experiments"
	"hmg/internal/gsim"
	"hmg/internal/proto"
	"hmg/internal/workload"
)

// TestMSHRTablesDoNotGrow: New sizes every GPM's MSHR table for the
// lines its configuration keeps outstanding, so lstm and bfs at the perf
// matrix's scale, on the campaign runner's 4x4 machine, finish without
// a single table growing inside Run.
func TestMSHRTablesDoNotGrow(t *testing.T) {
	const scale = 0.25
	r, err := experiments.NewRunner(experiments.Options{Scale: scale, SMsPerGPM: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, abbrev := range []string{"lstm", "bfs"} {
		bench, err := workload.Get(abbrev)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []proto.Kind{proto.SWHier, proto.NHCC, proto.HMG} {
			cfg := r.Config(kind, experiments.Variant{})
			sys, err := gsim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run(bench.Generate(cfg.Topo, scale)); err != nil {
				t.Fatal(err)
			}
			want := gsim.MSHRSlotsFor(cfg)
			for g, n := range sys.MSHRTableSizes() {
				if n != want {
					t.Errorf("%s/%v: GPM %d's MSHR table grew from %d to %d slots", abbrev, kind, g, want, n)
				}
			}
		}
	}
}
