package main

import (
	"os"
	"testing"
)

// TestCompareByteGate: compare fails when a cell's Run or gsim.New bytes
// grow past the tolerance, passes growth inside it, and skips the check
// against a baseline that predates the fields.
func TestCompareByteGate(t *testing.T) {
	snap := func(runBytes, newBytes uint64) *Snapshot {
		return &Snapshot{Scale: matrixScale, SMsPerGPM: 8, Runs: []Run{{
			Bench: "lstm", Protocol: "HMG", Cycles: 10, Events: 100,
			RunBytes: runBytes, NewBytes: newBytes,
		}}}
	}
	// compare reports each failure on stderr; keep the expected ones out
	// of the test log.
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devNull.Close()
	stderr := os.Stderr
	os.Stderr = devNull
	defer func() { os.Stderr = stderr }()
	const mb = 1 << 20
	for _, c := range []struct {
		name      string
		base, cur *Snapshot
		wantFail  bool
	}{
		{"equal", snap(4*mb, mb), snap(4*mb, mb), false},
		{"within tolerance", snap(4*mb, mb), snap(4*mb+60<<10, mb+20<<10), false},
		{"run bytes grew", snap(4*mb, mb), snap(5*mb, mb), true},
		{"new bytes grew", snap(4*mb, mb), snap(4*mb, 2*mb), true},
		{"baseline without byte fields", snap(0, 0), snap(9*mb, 9*mb), false},
	} {
		if got := compare(c.base, c.cur, 0.02, 1.5); got != c.wantFail {
			t.Errorf("%s: compare failed = %v, want %v", c.name, got, c.wantFail)
		}
	}
}
