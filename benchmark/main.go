// Command hmgbenchmark measures the simulator's own speed on fixed
// workloads and checks, on every run, that the simulated results are
// unchanged. See README.md for the metric table and the run command.
//
//	hmgbenchmark --workload matrix --seed 0 --seconds 40 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of BENCHMARK.json; with
// --trace 1 it runs the same simulations untraced and traced, plus the
// layer probes, and prints the per-layer metrics. The last line of standard
// output is always one JSON object: correct, attempted, failed, metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// workloadNames lists the workloads: the two of BENCHMARK.json, then
// inval-16x8, which is run by hand (see README.md).
var workloadNames = []string{"matrix", "campaign-fig8", "inval-16x8"}

func main() {
	name := flag.String("workload", "", "workload to run: matrix, campaign-fig8 or inval-16x8")
	seed := flag.Int64("seed", 0, "workload seed (0 reproduces the pinned fingerprints)")
	seconds := flag.Float64("seconds", 40, "measured time budget of one run, in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end measurement")
	workdir := flag.String("workdir", ".bench_build", "directory for temporary stores and span files")
	printPins := flag.Bool("print-pins", false, "print the fingerprints of the default seed as the Go source of pins.go and exit")
	printPerLayer := flag.Bool("print-per-layer", false, "print the per-layer metric list in BENCHMARK.json form and exit")
	flag.Parse()

	switch {
	case *printPins:
		if err := writePins(os.Stdout, *workdir); err != nil {
			fatalf("%v", err)
		}
		return
	case *printPerLayer:
		if err := writePerLayer(os.Stdout); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *traced != 0 && *traced != 1 {
		fatalf("--trace must be 0 or 1, got %d", *traced)
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive, got %v", *seconds)
	}
	known := false
	for _, w := range workloadNames {
		known = known || w == *name
	}
	if !known {
		fatalf("unknown workload %q (known: %v)", *name, workloadNames)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatalf("%v", err)
	}

	run := &benchRun{
		workload: *name,
		seed:     *seed,
		budget:   time.Duration(*seconds * float64(time.Second)),
		workdir:  *workdir,
		metrics:  map[string]metric{},
	}
	var err error
	switch {
	case *traced == 1:
		err = run.traced()
	case *name == "campaign-fig8":
		err = run.campaignEndToEnd()
	default:
		err = run.simEndToEnd()
	}
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	run.print()
}

// fatalf reports a run that could not measure anything; it prints no
// result line and exits non-zero.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hmgbenchmark: "+format+"\n", args...)
	os.Exit(1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchRun is one invocation: its inputs, its operation accounting, and
// the metrics it reports.
type benchRun struct {
	workload string
	seed     int64
	budget   time.Duration
	workdir  string

	attempted, failed int
	metrics           map[string]metric
}

func (b *benchRun) set(name, unit string, v float64) { b.metrics[name] = metric{v, unit} }

// op accounts one operation (a simulated run, a rendered table, a warm
// store read). problems are the checks it failed; any problem fails it.
func (b *benchRun) op(what string, problems []string) {
	b.attempted++
	if len(problems) == 0 {
		return
	}
	b.failed++
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "FAIL %s: %s\n", what, p)
	}
}

// print writes the human-readable metric lines and, last, the JSON
// result object.
func (b *benchRun) print() {
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.metrics[n]
		fmt.Printf("%-36s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("operations: %d attempted, %d failed\n", b.attempted, b.failed)
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{b.failed == 0, b.attempted, b.failed, b.metrics})
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(out))
}

// setEndToEnd records the five end-to-end metrics of BENCHMARK.json,
// with the host times scaled to nominal host speed.
func (b *benchRun) setEndToEnd(host *hostClock, wall, setup time.Duration, ops uint64, rssMB, allocsPerOp float64) {
	host.report(wall, setup)
	w := host.scale(wall)
	b.set("wall_s", "s", w)
	b.set("setup_s", "s", host.scale(setup))
	b.set("sim_kops_per_s", "kops/s", float64(ops)/w/1e3)
	b.set("peak_rss_mb", "MB", rssMB)
	b.set("allocs_per_op", "allocs/op", allocsPerOp)
}

// resetPeakRSS starts a new peak-RSS window for one pass: it returns the
// freed heap to the operating system and resets the kernel's resident
// high-water mark, which getrusage reports, to the current resident
// size. Where the reset is not permitted, peakRSSMB keeps reporting the
// process's lifetime peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident set size since the last resetPeakRSS.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the median of xs (the mean of the two middle values
// for an even count). xs is not modified.
func median[T ~int64 | ~float64](xs []T) T {
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// keepPassing reports whether another pass of about passLen fits in the
// budget, always allowing the first minPasses.
func keepPassing(done int, start time.Time, passLen, budget time.Duration) bool {
	const minPasses = 3
	return done < minPasses || time.Since(start)+passLen <= budget
}

// spanPath is where a traced run writes its spans.
func (b *benchRun) spanPath() string {
	return filepath.Join(b.workdir, "spans", fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))
}
