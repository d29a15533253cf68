package hmg

import (
	"strconv"
	"strings"
	"testing"

	"hmg/internal/directory"
)

// scaleTopo reshapes a default configuration to the given spec and
// shrinks capacities so large-machine tests stay fast.
func scaleTopo(t *testing.T, p Protocol, spec string) Config {
	t.Helper()
	sp, err := ParseTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(p)
	cfg.Topo = sp.Apply(cfg.Topo)
	cfg.Topo.SMsPerGPM = 2
	cfg.Topo.PageSize = 64 * 1024
	cfg.L1.CapacityBytes = 16 * 1024
	cfg.L2Slice.CapacityBytes = 64 * 1024
	cfg.Dir.Entries = 256
	cfg.TrackValues = true
	return cfg
}

// TestFlatProtocolBeyond32GPMs is the regression test for the old
// 32-bit sharer word: a flat hardware protocol on a 16x8 machine tracks
// 128 global GPM ids, which used to panic in directory.GPMBit on the
// first remote access. It must now construct, run a real trace under
// the invariant checker, and report zero violations.
func TestFlatProtocolBeyond32GPMs(t *testing.T) {
	for _, spec := range []string{"16x8", "8x8"} {
		cfg := scaleTopo(t, ProtocolNHCC, spec)
		sys, err := NewSystem(cfg, WithInvariantChecks())
		if err != nil {
			t.Fatalf("NewSystem(NHCC %s): %v", spec, err)
		}
		tr, err := GenerateBenchmark("bfs", cfg, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(tr)
		if err != nil {
			t.Fatalf("Run(NHCC %s): %v", spec, err)
		}
		if res.Cycles == 0 || res.Ops == 0 {
			t.Fatalf("NHCC %s ran nothing: %+v", spec, res)
		}
		if err := sys.CheckErr(); err != nil {
			t.Fatalf("NHCC %s invariant violations: %v", spec, err)
		}
		if testing.Short() {
			return // one machine size is enough under -short
		}
	}
}

// TestHierarchicalAt16x8 runs HMG on the largest toposcale machine
// under the checker.
func TestHierarchicalAt16x8(t *testing.T) {
	cfg := scaleTopo(t, ProtocolHMG, "16x8")
	sys, err := NewSystem(cfg, WithInvariantChecks())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateBenchmark("bfs", cfg, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(tr); err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckErr(); err != nil {
		t.Fatalf("HMG 16x8 invariant violations: %v", err)
	}
}

// TestTopologyValidation pins the constructor errors that replaced the
// GPMBit panic: protocol-aware sharer-id-space checks with descriptive
// messages, and acceptance for software protocols at any shape.
func TestTopologyValidation(t *testing.T) {
	// Flat hardware beyond the id space: a 128x64 machine (8192 GPMs)
	// must be rejected by name, quoting the id-space cap.
	cfg := DefaultConfig(ProtocolNHCC)
	cfg.Topo.NumGPUs, cfg.Topo.GPMsPerGPU = 128, 64
	_, err := NewSystem(cfg)
	if err == nil {
		t.Fatal("flat protocol at 8192 GPMs accepted")
	}
	for _, want := range []string{"global GPM ids", "8192", strconv.Itoa(directory.MaxSharerIDs) + "-id sharer space"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("flat-overflow error %q does not mention %q", err, want)
		}
	}
	// The largest toposcale machine fills the flat id space exactly;
	// one more GPU overflows it.
	cfg.Topo.NumGPUs, cfg.Topo.GPMsPerGPU = 16, 8
	if err := cfg.Validate(); err != nil {
		t.Fatalf("NHCC at 16x8 rejected: %v", err)
	}
	cfg.Topo.NumGPUs = 17
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "136") {
		t.Fatalf("NHCC at 17x8 (136 GPMs): err = %v, want the flat-overflow error", err)
	}

	// The same shape is fine hierarchically (each axis is in range).
	// Validate() alone — actually constructing an 8192-GPM system is
	// pointlessly slow for a validation check.
	hier := DefaultConfig(ProtocolHMG)
	hier.Topo.NumGPUs, hier.Topo.GPMsPerGPU = 128, 64
	if err := hier.Validate(); err != nil {
		t.Fatalf("HMG at 128x64 rejected: %v", err)
	}
	// ...until one axis itself overflows.
	hier.Topo.NumGPUs = directory.MaxSharerIDs + 1
	if _, err := NewSystem(hier); err == nil {
		t.Fatal("HMG with an overflowing GPU axis accepted")
	}

	// Software coherence tracks no sharers and takes any shape.
	sw := DefaultConfig(ProtocolSWHier)
	sw.Topo.NumGPUs, sw.Topo.GPMsPerGPU = directory.MaxSharerIDs+1, 2
	if err := sw.Validate(); err != nil {
		t.Fatalf("software protocol rejected by sharer-space check: %v", err)
	}
}
