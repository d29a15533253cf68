package gsim_test

import (
	"bytes"
	"testing"

	"hmg/internal/experiments"
	"hmg/internal/gsim"
	"hmg/internal/proto"
	"hmg/internal/trace"
	"hmg/internal/workload"
)

// encodeTrace returns tr's wire bytes.
func encodeTrace(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunNeverWritesTrace: Run only reads its trace — ops are copied
// by value into warp and op contexts — so a trace's bytes are the same
// after a run under every protocol, with and without the write-back and
// downgrade options. A campaign shares one trace among the runs of a
// benchmark on this.
func TestRunNeverWritesTrace(t *testing.T) {
	const scale = 0.05
	r, err := experiments.NewRunner(experiments.Options{Scale: scale, SMsPerGPM: 8})
	if err != nil {
		t.Fatal(err)
	}
	kinds := []proto.Kind{proto.NoRemoteCache, proto.SWNonHier, proto.SWHier, proto.NHCC, proto.HMG, proto.Ideal, proto.GPUVI, proto.CARVE}
	type point struct {
		kind proto.Kind
		v    experiments.Variant
	}
	var points []point
	for _, k := range kinds {
		points = append(points, point{k, experiments.Variant{}})
		if p := proto.For(k); !p.MCA && !p.Classify {
			points = append(points, point{k, experiments.Variant{WriteBack: true}})
		}
		if proto.For(k).Hardware {
			points = append(points, point{k, experiments.Variant{Downgrade: true}})
		}
	}
	for _, abbrev := range []string{"bfs", "lstm"} {
		bench, err := workload.Get(abbrev)
		if err != nil {
			t.Fatal(err)
		}
		tr := bench.Generate(r.Config(proto.HMG, experiments.Variant{}).Topo, scale)
		want := encodeTrace(t, tr)
		for _, p := range points {
			sys, err := gsim.New(r.Config(p.kind, p.v))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run(tr); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(encodeTrace(t, tr), want) {
				t.Fatalf("%s: a %v %+v run wrote its trace", abbrev, p.kind, p.v)
			}
		}
	}
}

// TestResetRunAllocations: a machine reset to the configuration it just
// ran keeps every slab, so running the same trace again allocates only
// what the run hands back: the Results and their KernelCycles. The run
// before each reset leaves downgrade notices in flight.
func TestResetRunAllocations(t *testing.T) {
	const scale = 0.05
	r, err := experiments.NewRunner(experiments.Options{Scale: scale, SMsPerGPM: 8})
	if err != nil {
		t.Fatal(err)
	}
	bench, err := workload.Get("bfs")
	if err != nil {
		t.Fatal(err)
	}
	cfg := r.Config(proto.HMG, experiments.Variant{Downgrade: true})
	tr := bench.Generate(cfg.Topo, scale)
	sys, err := gsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(tr); err != nil {
		t.Fatal(err)
	}
	if sys.DowngradesInFlight() == 0 {
		t.Fatal("no downgrade notice in flight at the reset; test is vacuous")
	}
	if n := testing.AllocsPerRun(3, func() {
		if err := sys.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(tr); err != nil {
			t.Fatal(err)
		}
	}); n != 2 {
		t.Fatalf("Reset and a rerun make %v allocations, want 2 (the Results and their KernelCycles)", n)
	}
}
