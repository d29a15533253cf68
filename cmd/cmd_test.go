// Package cmd_test smoke-tests the command-line tools end to end: each
// binary is built with the local toolchain and driven through its main
// flows.
package cmd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hmg/internal/experiments"
	"hmg/internal/trace"
)

// build compiles one tool into a temp dir and returns the binary path.
func build(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	cmd := exec.Command("go", "build", "-o", bin, "./"+pkg)
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
	return string(out)
}

func TestHmgtraceFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	bin := build(t, "cmd/hmgtrace")
	list := run(t, bin, "list")
	if !strings.Contains(list, "nw-16K") || !strings.Contains(list, "mst") {
		t.Fatalf("list output missing benchmarks:\n%s", list)
	}
	file := filepath.Join(t.TempDir(), "t.hmgt")
	gen := run(t, bin, "gen", "-bench", "overfeat", "-scale", "0.1", "-o", file)
	if !strings.Contains(gen, "wrote") {
		t.Fatalf("gen output: %s", gen)
	}
	if fi, err := os.Stat(file); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file missing: %v", err)
	}
	info := run(t, bin, "info", file)
	if !strings.Contains(info, "overfeat") || !strings.Contains(info, "kernels:   2") {
		t.Fatalf("info output:\n%s", info)
	}
	fig3 := run(t, bin, "fig3", "-bench", "lstm", "-scale", "0.1")
	if !strings.Contains(fig3, "%") {
		t.Fatalf("fig3 output: %s", fig3)
	}
}

func TestHmgsimFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	bin := build(t, "cmd/hmgsim")
	out := run(t, bin, "-bench", "overfeat", "-protocol", "HMG", "-scale", "0.1", "-sms", "4")
	for _, want := range []string{"benchmark:", "cycles:", "L2 hit rate:", "inter-GPU traffic:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("hmgsim output missing %q:\n%s", want, out)
		}
	}
	// Bad arguments fail fast with a descriptive error: exit status 1,
	// no panic, no hang. Overflowing -topo specs used to panic in trace
	// generation (a GPM count wrapped to 0 or past MaxInt) or spin
	// there for seconds before the sharer-space check was reached.
	topoArgs := func(spec string) []string {
		return []string{"-bench", "bfs", "-protocol", "NHCC", "-scale", "0.01", "-sms", "1", "-topo", spec}
	}
	for _, c := range []struct {
		args []string
		want []string
	}{
		// Unknown names list the registry's names.
		{[]string{"-bench", "overfeat", "-protocol", "nope"}, []string{"known:", "NoRemoteCaching"}},
		{[]string{"-bench", "nosuch", "-protocol", "HMG"}, []string{"known:", "nw-16K"}},
		{topoArgs("4294967296x4294967296"), []string{"overflows the GPM count"}},
		{topoArgs("3037000500x3037000500"), []string{"overflows the GPM count"}},
		{topoArgs("65536x65536"), []string{"4294967296 GPMs", "sharer space"}},
		// The runner reads -scale 0 as "the default", but the trace is
		// generated from the flag itself, so 0 must be rejected first.
		{[]string{"-bench", "bfs", "-protocol", "HMG", "-scale", "0"}, []string{"scale 0 out of (0,1]"}},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		out, err := exec.CommandContext(ctx, bin, c.args...).CombinedOutput()
		hung := ctx.Err() == context.DeadlineExceeded
		cancel()
		if hung {
			t.Fatalf("hmgsim %v hung", c.args)
		}
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 || strings.Contains(string(out), "panic") {
			t.Fatalf("hmgsim %v: err=%v, want a clean exit 1 error:\n%s", c.args, err, out)
		}
		for _, want := range c.want {
			if !strings.Contains(string(out), want) {
				t.Fatalf("hmgsim %v error does not mention %q:\n%s", c.args, want, out)
			}
		}
	}
	// -check attaches the conformance checker and reports a clean run.
	out3 := run(t, bin, "-bench", "overfeat", "-protocol", "HMG", "-scale", "0.1", "-sms", "2", "-check")
	if !strings.Contains(out3, "conformance:       0 invariant violations") {
		t.Fatalf("hmgsim -check output missing conformance line:\n%s", out3)
	}
}

// TestHmgsimTraceOutOfRange runs a trace file whose op lies far beyond
// the simulated page limit: hmgsim must exit 1 with an error naming the
// op and its page, not panic or size a page table by the address.
func TestHmgsimTraceOutOfRange(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	bin := build(t, "cmd/hmgsim")
	tr := &trace.Trace{Name: "far", Kernels: []trace.Kernel{{CTAs: []trace.CTA{{Warps: []trace.Warp{{Ops: []trace.Op{
		{Kind: trace.Load, Addr: 0},
		{Kind: trace.Load, Addr: 1 << 62},
	}}}}}}}}
	file := filepath.Join(t.TempDir(), "far.hmgt")
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-trace", file, "-protocol", "HMG").CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 || strings.Contains(string(out), "panic") {
		t.Fatalf("hmgsim -trace: err=%v, want a clean exit 1 error:\n%s", err, out)
	}
	for _, want := range []string{"k0 c0 w0 op1", "addr 0x4000000000000000 is on page", "16777216-page limit"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("hmgsim -trace error does not mention %q:\n%s", want, out)
		}
	}
}

func TestHmgtraceUnknownBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	bin := build(t, "cmd/hmgtrace")
	out := filepath.Join(t.TempDir(), "x.hmgt")
	// Unknown benchmarks list the registry's names; out-of-range scales,
	// NaN included, fail before generating. Each is a clean exit 1,
	// never a panic.
	for _, c := range []struct {
		args []string
		want []string
	}{
		{[]string{"gen", "-bench", "nosuch", "-o", out}, []string{"known:", "nw-16K"}},
		{[]string{"fig3", "-bench", "nosuch"}, []string{"known:", "nw-16K"}},
		{[]string{"gen", "-bench", "bfs", "-o", out, "-scale", "0"}, []string{"scale 0 out of (0,1]"}},
		{[]string{"gen", "-bench", "bfs", "-o", out, "-scale", "-1"}, []string{"scale -1 out of (0,1]"}},
		{[]string{"gen", "-bench", "bfs", "-o", out, "-scale", "2"}, []string{"scale 2 out of (0,1]"}},
		{[]string{"gen", "-bench", "bfs", "-o", out, "-scale", "NaN"}, []string{"scale NaN out of (0,1]"}},
		{[]string{"fig3", "-bench", "bfs", "-scale", "0"}, []string{"scale 0 out of (0,1]"}},
	} {
		got, err := exec.Command(bin, c.args...).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 || strings.Contains(string(got), "panic") {
			t.Fatalf("hmgtrace %v: err=%v, want a clean exit 1 error:\n%s", c.args, err, got)
		}
		for _, want := range c.want {
			if !strings.Contains(string(got), want) {
				t.Fatalf("hmgtrace %v error does not mention %q:\n%s", c.args, want, got)
			}
		}
	}
}

// TestHmgcheckFlow drives the conformance sweep end to end: a small
// trunk sweep must pass, and the same sweep with an injected Table I
// mutation must fail — the harness proving its own teeth.
func TestHmgcheckFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	bin := build(t, "cmd/hmgcheck")
	out := run(t, bin, "-seeds", "24", "-bench", "nw-16K", "-scale", "0.1")
	if !strings.Contains(out, "cases passed") {
		t.Fatalf("hmgcheck output:\n%s", out)
	}
	// The spec tier (one enumeration per table instantiation) rides
	// along in every sweep.
	if !strings.Contains(out, "2 spec)") {
		t.Fatalf("hmgcheck summary missing the spec tier:\n%s", out)
	}
	mutated, err := exec.Command(bin, "-seeds", "64", "-bench", "nw-16K", "-scale", "0.1", "-mutate", "1").CombinedOutput()
	if err == nil {
		t.Fatalf("hmgcheck passed with an injected protocol bug:\n%s", mutated)
	}
	if !strings.Contains(string(mutated), "FAILED") {
		t.Fatalf("mutated sweep did not report failures:\n%s", mutated)
	}
	// The spec tier fails on its own, whatever the traces exercise.
	if !strings.Contains(string(mutated), "FAIL spec enumerate") {
		t.Fatalf("mutated sweep passed its spec tier:\n%s", mutated)
	}
	// Unknown names reuse the registry-derived errors.
	if out, err := exec.Command(bin, "-protocol", "nope").CombinedOutput(); err == nil || !strings.Contains(string(out), "known:") {
		t.Fatalf("hmgcheck unknown protocol: err=%v out=%s", err, out)
	}
	if out, err := exec.Command(bin, "-bench", "nosuch").CombinedOutput(); err == nil || !strings.Contains(string(out), "known:") {
		t.Fatalf("hmgcheck unknown benchmark: err=%v out=%s", err, out)
	}
	// Out-of-range scales fail before any worker generates a trace, and
	// a negative -seeds fails before the litmus tier is built: a clean
	// non-zero exit, never a worker panic or a ~2^64-iteration loop.
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "0"}, "scale 0 out of (0,1]"},
		{[]string{"-scale", "-1"}, "scale -1 out of (0,1]"},
		{[]string{"-scale", "7"}, "scale 7 out of (0,1]"},
		{[]string{"-scale", "NaN"}, "scale NaN out of (0,1]"},
		{[]string{"-seeds", "-5"}, "-seeds -5 is negative"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		out, err := exec.CommandContext(ctx, bin, c.args...).CombinedOutput()
		hung := ctx.Err() == context.DeadlineExceeded
		cancel()
		if hung {
			t.Fatalf("hmgcheck %v hung", c.args)
		}
		if err == nil || strings.Contains(string(out), "panic:") {
			t.Fatalf("hmgcheck %v: err=%v, want a clean non-zero exit:\n%s", c.args, err, out)
		}
		if !strings.Contains(string(out), c.want) {
			t.Fatalf("hmgcheck %v error does not mention %q:\n%s", c.args, c.want, out)
		}
	}
}

// TestHmgperfFlow runs the pinned perf matrix end to end: the snapshot
// holds all nine cells with deterministic counts, and -cpuprofile
// writes a profile that go tool pprof parses and that shows the event
// loop.
func TestHmgperfFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	bin := build(t, "cmd/hmgperf")
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "bench.json")
	profPath := filepath.Join(dir, "cpu.prof")
	out := run(t, bin, "-o", snapPath, "-cpuprofile", profPath)
	if !strings.Contains(out, "wrote "+snapPath+" (9 runs)") {
		t.Fatalf("hmgperf output:\n%s", out)
	}
	buf, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Runs []struct {
			Cycles, Events uint64
		}
	}
	if err := json.Unmarshal(buf, &snap); err != nil {
		t.Fatalf("snapshot does not parse: %v", err)
	}
	for i, r := range snap.Runs {
		if r.Cycles == 0 || r.Events == 0 {
			t.Fatalf("cell %d reports %d cycles and %d events", i, r.Cycles, r.Events)
		}
	}
	if fi, err := os.Stat(profPath); err != nil || fi.Size() == 0 {
		t.Fatalf("CPU profile missing or empty: %v", err)
	}
	top, err := exec.Command("go", "tool", "pprof", "-top", bin, profPath).CombinedOutput()
	if err != nil {
		t.Fatalf("go tool pprof -top: %v\n%s", err, top)
	}
	if !strings.Contains(string(top), "engine.(*Engine).Run") {
		t.Fatalf("profile does not show the event loop:\n%s", top)
	}
}

// TestHmgspecFlow drives the Table I spec certifier end to end: the
// trunk run certifies both instantiations, -render emits the DESIGN.md
// fragment, and each deliberate proto.Mutation bit must make the
// enumeration report a named invariant violation — the spec tier
// proving its own teeth.
func TestHmgspecFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	bin := build(t, "cmd/hmgspec")
	out := run(t, bin)
	for _, want := range []string{
		"NHCC: 9 states, 104 transitions, 0 violations",
		"HMG: 9 states, 93 transitions, 0 violations",
		"certified",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("hmgspec output missing %q:\n%s", want, out)
		}
	}
	rendered := run(t, bin, "-render")
	for _, want := range []string{
		"| State | Event | Guard | Next | Sharer set | Invalidations |",
		"| V | Invalidation | always | I | clear sharers | inv full sharer set |",
	} {
		if !strings.Contains(rendered, want) {
			t.Fatalf("hmgspec -render missing %q:\n%s", want, rendered)
		}
	}
	for _, bit := range []string{"1", "2", "4"} {
		mutated, err := exec.Command(bin, "-mutate", bit).CombinedOutput()
		if err == nil {
			t.Fatalf("hmgspec -mutate %s passed with an injected protocol bug:\n%s", bit, mutated)
		}
		if !strings.Contains(string(mutated), "FAILED") || !strings.Contains(string(mutated), "FAIL HMG: full-set-invalidation:") {
			t.Fatalf("hmgspec -mutate %s did not name the violated invariant:\n%s", bit, mutated)
		}
	}
}

func TestHmgbenchSingleFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	bin := build(t, "cmd/hmgbench")
	out := run(t, bin, "-fig", "cost")
	if !strings.Contains(out, "55.00") {
		t.Fatalf("hmgbench cost output:\n%s", out)
	}
	md := run(t, bin, "-fig", "cost", "-format", "md")
	if !strings.Contains(md, "| bits per entry | 55.00 |") {
		t.Fatalf("markdown output:\n%s", md)
	}
	csv := run(t, bin, "-fig", "cost", "-format", "csv")
	if !strings.Contains(csv, "bits per entry,55.00") {
		t.Fatalf("csv output:\n%s", csv)
	}
	if _, err := exec.Command(bin, "-fig", "nosuch").CombinedOutput(); err == nil {
		t.Fatal("hmgbench accepted unknown figure")
	}
}

// TestHmgbenchFigureRegistrySync pins hmgbench's user-facing figure
// lists to the experiments.Figures registry: the unknown-figure error
// (which prints the known set), the -fig flag usage, and the package
// doc comment must all name exactly the registry's figures.
func TestHmgbenchFigureRegistrySync(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	names := experiments.FigureNames()
	if len(names) != 22 {
		t.Fatalf("registry has %d figures, want 22", len(names))
	}

	bin := build(t, "cmd/hmgbench")
	out, err := exec.Command(bin, "-fig", "nosuch").CombinedOutput()
	if err == nil {
		t.Fatal("hmgbench accepted unknown figure")
	}
	_, known, ok := strings.Cut(string(out), "known: ")
	if !ok {
		t.Fatalf("unknown-figure error does not list known figures:\n%s", out)
	}
	got := strings.Split(strings.TrimSuffix(strings.TrimSpace(known), ")"), ",")
	want := append(append([]string{}, names...), "all")
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("known-figure list out of sync with registry:\n got %v\nwant %v", got, want)
	}

	usage, _ := exec.Command(bin, "-help").CombinedOutput()
	src, err := os.ReadFile(filepath.Join("hmgbench", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	doc, _, ok := strings.Cut(string(src), "package main")
	if !ok {
		t.Fatal("no package clause in hmgbench/main.go")
	}
	for _, n := range names {
		if !strings.Contains(string(usage), n) {
			t.Errorf("-fig flag usage does not mention figure %q", n)
		}
		if !strings.Contains(doc, n+",") && !strings.Contains(doc, n+".") {
			t.Errorf("hmgbench doc comment does not list figure %q", n)
		}
	}
}

// TestHmgbenchJobsDeterminism: parallel prewarming must not change the
// tables — -jobs 8 output is byte-identical to -jobs 1.
func TestHmgbenchJobsDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	bin := build(t, "cmd/hmgbench")
	serial := run(t, bin, "-fig", "9", "-scale", "0.1", "-sms", "4", "-jobs", "1")
	parallel := run(t, bin, "-fig", "9", "-scale", "0.1", "-sms", "4", "-jobs", "8")
	if !bytes.Equal([]byte(serial), []byte(parallel)) {
		t.Fatalf("-jobs 8 output differs from -jobs 1:\n--- jobs=1\n%s\n--- jobs=8\n%s", serial, parallel)
	}
}

// TestHmgbenchStoreFlow drives the persistent result store end to end:
// a cold campaign populates -cachedir, a warm rerun must serve every
// run from disk (zero simulations) with byte-identical tables, and a
// deliberately truncated record must be re-simulated — again to
// identical bytes — never trusted. scripts/verify.sh repeats this flow
// at the full acceptance scale (-fig all -scale 0.25); this test keeps
// the same contract cheap enough for the tier-1 suite.
func TestHmgbenchStoreFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	bin := build(t, "cmd/hmgbench")
	store := filepath.Join(t.TempDir(), "store")
	campaign := func() (string, string) {
		t.Helper()
		cmd := exec.Command(bin, "-fig", "9", "-scale", "0.1", "-sms", "4", "-cachedir", store, "-v")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("hmgbench -cachedir: %v\n%s", err, stderr.String())
		}
		return stdout.String(), stderr.String()
	}

	cold, coldLog := campaign()
	if !strings.Contains(coldLog, "disk misses") || strings.Contains(coldLog, " 0 disk writes") {
		t.Fatalf("cold campaign did not populate the store:\n%s", coldLog)
	}
	warm, warmLog := campaign()
	if warm != cold {
		t.Fatalf("warm tables differ from cold:\n--- cold\n%s\n--- warm\n%s", cold, warm)
	}
	if !strings.Contains(warmLog, "campaign: 0 unique runs") {
		t.Fatalf("warm campaign simulated runs the store should have served:\n%s", warmLog)
	}
	if strings.Contains(warmLog, " 0 disk hits") || !strings.Contains(warmLog, "0 disk misses") {
		t.Fatalf("warm campaign not fully disk-served:\n%s", warmLog)
	}

	// Damage one record: exactly that run re-simulates, and the output
	// bytes still match the cold campaign's.
	victims, err := filepath.Glob(filepath.Join(store, "*", "*", "*.res"))
	if err != nil || len(victims) == 0 {
		t.Fatalf("no store records found: %v", err)
	}
	fi, err := os.Stat(victims[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(victims[0], fi.Size()-1); err != nil {
		t.Fatal(err)
	}
	healed, healedLog := campaign()
	if healed != cold {
		t.Fatalf("re-simulated tables differ from cold:\n--- cold\n%s\n--- healed\n%s", cold, healed)
	}
	if !strings.Contains(healedLog, "campaign: 1 unique runs") {
		t.Fatalf("truncated record was not re-simulated (or more than one run was):\n%s", healedLog)
	}

	// -storeversion prints the stamp that scopes the store — the CI
	// cache key.
	if got := strings.TrimSpace(run(t, bin, "-storeversion")); got != experiments.ModelVersion() {
		t.Fatalf("-storeversion = %q, want %q", got, experiments.ModelVersion())
	}
}

// TestHmglintFlow drives the linter through its exit-code contract:
// a clean module exits 0, an injected violation exits nonzero with the
// finding on the output, and an unknown analyzer name lists the known
// set (mirroring the registry errors of the other tools).
func TestHmglintFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	bin := build(t, "cmd/hmglint")

	// A tiny module using the simulator package names, once clean and
	// once with a wall-clock read injected into the engine package.
	writeModule := func(engineSrc string) string {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module probe\n\ngo 1.22\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dir, "engine"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "engine", "engine.go"), []byte(engineSrc), 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	runIn := func(dir string, args ...string) (string, error) {
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		return string(out), err
	}

	clean := writeModule("package engine\n\nfunc Tick(now uint64) uint64 { return now + 1 }\n")
	if out, err := runIn(clean, "./..."); err != nil {
		t.Fatalf("hmglint on a clean module: %v\n%s", err, out)
	}

	dirty := writeModule("package engine\n\nimport \"time\"\n\nfunc Tick() int64 { return time.Now().UnixNano() }\n")
	out, err := runIn(dirty, "./...")
	if err == nil {
		t.Fatalf("hmglint passed a wall-clock read in package engine:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("violation exit = %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(out, "time.Now reads the wall clock") || !strings.Contains(out, "determinism") {
		t.Fatalf("finding not reported:\n%s", out)
	}

	// Unknown analyzer selection mirrors proto.ParseKind: the error
	// names every registered analyzer.
	out, err = runIn(clean, "-analyzers", "bogus", "./...")
	if err == nil {
		t.Fatalf("hmglint accepted unknown analyzer:\n%s", out)
	}
	for _, name := range []string{"determinism", "eventemit", "exhaustive", "hotalloc", "readonlyhooks"} {
		if !strings.Contains(out, name) {
			t.Fatalf("unknown-analyzer error does not list %q:\n%s", name, out)
		}
	}

	// -list names the same set for discoverability.
	listOut, err := runIn(clean, "-list")
	if err != nil {
		t.Fatalf("hmglint -list: %v\n%s", err, listOut)
	}
	for _, name := range []string{"determinism", "eventemit", "exhaustive", "hotalloc", "readonlyhooks"} {
		if !strings.Contains(listOut, name) {
			t.Fatalf("-list output missing %q:\n%s", name, listOut)
		}
	}

	// -json emits one machine-readable object per finding on stdout
	// (the count line stays on stderr, so stdout is pure JSON).
	jsonCmd := exec.Command(bin, "-json", "./...")
	jsonCmd.Dir = dirty
	var stdout, stderr bytes.Buffer
	jsonCmd.Stdout, jsonCmd.Stderr = &stdout, &stderr
	err = jsonCmd.Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("-json violation exit = %v, want exit status 2\n%s%s", err, stdout.String(), stderr.String())
	}
	sawJSON := false
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		var f struct{ Analyzer, Position, Message string }
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("-json emitted a non-JSON line %q: %v", line, err)
		}
		if f.Analyzer == "determinism" &&
			strings.Contains(f.Position, "engine.go") &&
			strings.Contains(f.Message, "time.Now reads the wall clock") {
			sawJSON = true
		}
	}
	if !sawJSON {
		t.Fatalf("-json output missing the determinism finding:\n%s", stdout.String())
	}
}

// TestHmglintVettool drives the go vet unitchecker protocol end to
// end: `go vet -vettool=hmglint` over a throwaway module must relay
// the finding text and the nonzero exit.
func TestHmglintVettool(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI build in -short mode")
	}
	bin := build(t, "cmd/hmglint")

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module probe\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "engine"), 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package engine\n\nimport \"time\"\n\nfunc Tick() int64 { return time.Now().UnixNano() }\n"
	if err := os.WriteFile(filepath.Join(dir, "engine", "engine.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool passed a wall-clock read:\n%s", out)
	}
	if !strings.Contains(string(out), "time.Now reads the wall clock") {
		t.Fatalf("vettool finding not relayed by go vet:\n%s", out)
	}
}
