package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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
		if got := compare(c.base, c.cur, io.Discard); got != c.wantFail {
			t.Errorf("%s: compare failed = %v, want %v", c.name, got, c.wantFail)
		}
	}
}

// emptyRuns is a well-formed snapshot that gates no cell.
const emptyRuns = `{"schema":"hmgperf/v1","scale":0.25,"sms_per_gpm":8,"topo":"4x4","runs":[]}`

// TestParseSnapshotRejectsPartialMatrix: a baseline gates exactly the
// pinned matrix's cells. One that misses a cell, names one twice or
// adds an unknown one is an error, not a smaller gate; every committed
// baseline parses.
func TestParseSnapshotRejectsPartialMatrix(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed BENCH_*.json baselines: %v", err)
	}
	for _, path := range append(paths, "../../PERF_16x8.json") {
		if _, err := readSnapshot(path); err != nil {
			t.Errorf("committed baseline: %v", err)
		}
	}
	buf, err := os.ReadFile("../../BENCH_2026-10-19b.json")
	if err != nil {
		t.Fatal(err)
	}
	var full Snapshot
	if err := json.Unmarshal(buf, &full); err != nil {
		t.Fatal(err)
	}
	edit := func(f func(s *Snapshot)) []byte {
		s := full
		s.Runs = append([]Run(nil), full.Runs...)
		f(&s)
		b, err := json.Marshal(&s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, c := range []struct {
		name, want string
		buf        []byte
	}{
		{"no runs", "is missing", []byte(emptyRuns)},
		{"missing cell", "bfs/HMG is missing", edit(func(s *Snapshot) { s.Runs = s.Runs[:8] })},
		{"duplicate cell", "listed twice", edit(func(s *Snapshot) { s.Runs[1] = s.Runs[0] })},
		{"unknown cell", "not a cell", edit(func(s *Snapshot) { s.Runs[0].Bench = "nw-16K" })},
		{"negative measurement", "negative", edit(func(s *Snapshot) { s.Runs[0].AllocsPerEvent = -1 })},
		{"wrong schema", "unknown schema", edit(func(s *Snapshot) { s.Schema = "hmgperf/v0" })},
		{"truncated", "unexpected end", buf[:len(buf)/2]},
	} {
		_, err := parseSnapshot(c.buf)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: parseSnapshot error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// FuzzParseSnapshot: parsing never panics, any accepted snapshot
// re-marshals and re-parses to a deep-equal snapshot, and a snapshot
// gated against itself passes.
func FuzzParseSnapshot(f *testing.F) {
	for _, path := range []string{"../../BENCH_2026-10-19b.json", "../../PERF_16x8.json"} {
		buf, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
		f.Add(buf[:len(buf)/2])
	}
	f.Add([]byte(emptyRuns))
	f.Add([]byte(`{"schema":"hmgperf/v0","runs":[]}`))
	f.Fuzz(func(t *testing.T, buf []byte) {
		s, err := parseSnapshot(buf)
		if err != nil {
			return
		}
		again, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted snapshot does not marshal: %v", err)
		}
		s2, err := parseSnapshot(again)
		if err != nil {
			t.Fatalf("re-marshaled snapshot rejected: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("re-parse differs:\n%+v\n%+v", s, s2)
		}
		if compare(s, s, io.Discard) {
			t.Fatalf("snapshot fails against itself:\n%s", buf)
		}
	})
}
