// Command hmgcheck is the protocol conformance sweep: it runs seeded
// litmus cases and the full Table III benchmark suite under every
// coherence protocol with the runtime invariant checker attached, and
// exits non-zero on any oracle or invariant violation.
//
// Usage:
//
//	hmgcheck                      # full sweep: litmus seeds + benchmarks × protocols
//	hmgcheck -seeds 512           # more litmus cases
//	hmgcheck -bench nw-16K        # restrict the benchmark tier
//	hmgcheck -protocol HMG        # restrict both tiers to one protocol
//	hmgcheck -mutate 1 -seeds 64  # self-test: inject a Table I bug, expect failures
//
// The -mutate flag injects deliberate protocol bugs (proto.Mutation
// bits) and is how the harness proves it has teeth: a mutated sweep
// must fail.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"

	"hmg"
	"hmg/internal/check"
	"hmg/internal/consist"
	"hmg/internal/gsim"
	"hmg/internal/proto"
	"hmg/internal/proto/spec"
	"hmg/internal/topo"
	"hmg/internal/workload"
)

type task struct {
	name string
	run  func() error
}

func main() {
	seeds := flag.Int("seeds", 128, "number of seeded litmus cases")
	scale := flag.Float64("scale", 0.25, "benchmark workload scale in (0,1]")
	protoName := flag.String("protocol", "", "restrict the sweep to one protocol")
	benchName := flag.String("bench", "", "restrict the benchmark tier to one benchmark")
	jobs := flag.Int("jobs", runtime.NumCPU(), "parallel workers")
	topoFlag := flag.String("topo", "", topo.SpecFlagUsage+" (reshapes the benchmark tier's conformance machine)")
	mutate := flag.Int("mutate", 0, "inject Table I mutation bits (self-test; a clean run must fail)")
	verbose := flag.Bool("v", false, "print every case, not just failures")
	flag.Parse()

	shape, err := topo.ParseSpec(*topoFlag)
	if err != nil {
		fatal(err)
	}
	if err := workload.CheckScale(*scale); err != nil {
		fatal(err)
	}
	if *seeds < 0 {
		fatal(fmt.Errorf("-seeds %d is negative", *seeds))
	}

	var only proto.Kind
	restrict := *protoName != ""
	if restrict {
		k, err := hmg.ParseProtocol(*protoName)
		if err != nil {
			fatal(err)
		}
		only = k
	}
	if *benchName != "" {
		if _, err := workload.Get(*benchName); err != nil {
			fatal(err)
		}
	}
	mu := proto.Mutation(*mutate)

	var tasks []task
	for seed := uint64(0); seed < uint64(*seeds); seed++ {
		cs := check.CaseFromSeed(seed)
		if restrict && cs.Protocol != only {
			continue
		}
		tasks = append(tasks, task{
			name: "litmus " + cs.Name(),
			run:  func() error { return cs.RunMutated(mu) },
		})
	}
	for _, k := range hmg.Protocols() {
		if restrict && k != only {
			continue
		}
		for _, name := range workload.Names() {
			if *benchName != "" && name != *benchName {
				continue
			}
			k, name := k, name
			tasks = append(tasks, task{
				name: fmt.Sprintf("bench %v/%s", k, name),
				run:  func() error { return runBench(k, name, *scale, mu, shape) },
			})
		}
	}

	// Spec tier: exhaustive small-model enumeration per table
	// instantiation, stepping the transition function DirCtrl executes.
	// The -mutate bits reach the enumeration, so a mutated sweep fails
	// here even when no litmus or benchmark trace happens to exercise
	// the broken cell.
	for _, tab := range []proto.Table{proto.NHCCTable(), proto.HMGTable()} {
		if restrict && only.String() != tab.Name {
			continue
		}
		tab := tab
		tasks = append(tasks, task{
			name: "spec enumerate " + tab.Name,
			run: func() error {
				rep, err := spec.Enumerate(tab, mu)
				if err != nil {
					return err
				}
				return rep.Err()
			},
		})
	}

	failures := sweep(tasks, *jobs, *verbose)
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "hmgcheck: %d/%d cases FAILED\n", len(failures), len(tasks))
		os.Exit(1)
	}
	fmt.Printf("hmgcheck: %d cases passed (%d litmus, %d bench, %d spec)\n",
		len(tasks), countPrefix(tasks, "litmus "), countPrefix(tasks, "bench "), countPrefix(tasks, "spec "))
}

// runBench executes one benchmark under one protocol on the conformance
// machine (reshaped by -topo) with the invariant checker attached.
func runBench(k proto.Kind, name string, scale float64, mu proto.Mutation, sp topo.Spec) error {
	cfg := consist.SmallConfig(k)
	cfg.Topo = sp.Apply(cfg.Topo)
	cfg.Mutation = mu
	sys, err := gsim.New(cfg)
	if err != nil {
		return err
	}
	ck := check.Attach(sys)
	p, err := workload.Get(name)
	if err != nil {
		return err
	}
	if _, err := sys.Run(p.Generate(cfg.Topo, scale)); err != nil {
		return err
	}
	return ck.Err()
}

// sweep runs the tasks on a worker pool and returns the failures in
// task order (output is deterministic regardless of -jobs).
func sweep(tasks []task, jobs int, verbose bool) []string {
	if jobs < 1 {
		jobs = 1
	}
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				errs[i] = tasks[i].run()
			}
		}()
	}
	for i := range tasks {
		work <- i
	}
	close(work)
	wg.Wait()

	var failures []string
	for i, t := range tasks {
		if errs[i] != nil {
			failures = append(failures, t.name)
			fmt.Fprintf(os.Stderr, "FAIL %s\n     %v\n", t.name, errs[i])
		} else if verbose {
			fmt.Printf("ok   %s\n", t.name)
		}
	}
	sort.Strings(failures)
	return failures
}

func countPrefix(tasks []task, prefix string) int {
	n := 0
	for _, t := range tasks {
		if strings.HasPrefix(t.name, prefix) {
			n++
		}
	}
	return n
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "hmgcheck: %v\n", err)
	os.Exit(1)
}
