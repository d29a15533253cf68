// Command hmgsim runs one benchmark (or a trace file) on the simulator
// under a chosen coherence protocol and prints a result summary.
//
// Usage:
//
//	hmgsim -bench nw-16K -protocol HMG
//	hmgsim -bench lstm -protocol SW-NonHier -scale 0.5 -compare
//	hmgsim -trace prog.hmgt -protocol NHCC
//
// With -compare, the benchmark also runs under the no-remote-caching
// baseline and the normalized speedup is reported (the paper's metric).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hmg"
	"hmg/internal/experiments"
	"hmg/internal/proto"
	"hmg/internal/topo"
	"hmg/internal/trace"
	"hmg/internal/workload"
)

func main() {
	bench := flag.String("bench", "", "Table III benchmark to run (see hmgtrace list)")
	traceFile := flag.String("trace", "", "binary trace file to run instead of a benchmark")
	protoName := flag.String("protocol", "HMG", "coherence protocol: "+strings.Join(protocolNames(), ", "))
	scale := flag.Float64("scale", 1.0, "workload scale in (0,1]")
	compare := flag.Bool("compare", false, "also run the no-remote-caching baseline and report speedup")
	sms := flag.Int("sms", 8, "modeled SMs per GPM")
	topoFlag := flag.String("topo", "", topo.SpecFlagUsage)
	check := flag.Bool("check", false, "attach the protocol conformance checker; exit non-zero on invariant violations")
	flag.Parse()

	kind, err := hmg.ParseProtocol(*protoName)
	if err != nil {
		fatal(err)
	}
	// The runner reads a zero scale as "the default", but the trace is
	// generated from the flag itself, which must be in range.
	if err := workload.CheckScale(*scale); err != nil {
		fatal(err)
	}
	spec, err := topo.ParseSpec(*topoFlag)
	if err != nil {
		fatal(err)
	}
	r, err := experiments.NewRunner(experiments.Options{SMsPerGPM: *sms, Scale: *scale, Topo: spec})
	if err != nil {
		fatal(err)
	}
	cfg := r.Config(kind, experiments.Variant{})
	// Validate before generating: trace generation trusts the topology,
	// and an absurd -topo must fail here, not panic or spin in Generate.
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}

	var tr *hmg.Trace
	switch {
	case *traceFile != "":
		f, err := os.Open(*traceFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tr, err = trace.Decode(f)
		if err != nil {
			fatal(err)
		}
	case *bench != "":
		p, err := workload.Get(*bench)
		if err != nil {
			fatal(err)
		}
		tr = p.Generate(cfg.Topo, *scale)
	default:
		fatal(fmt.Errorf("one of -bench or -trace is required"))
	}

	var opts []hmg.Option
	if *check {
		// The checker's value invariants need value tracking.
		cfg.TrackValues = true
		opts = append(opts, hmg.WithInvariantChecks())
	}
	sys, err := hmg.NewSystem(cfg, opts...)
	if err != nil {
		fatal(err)
	}
	res, err := sys.Run(tr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("benchmark:         %s\n", tr.Name)
	fmt.Printf("protocol:          %v\n", kind)
	fmt.Printf("topology:          %v (%d GPMs)\n", cfg.Topo, cfg.Topo.TotalGPMs())
	fmt.Printf("ops:               %d (%d loads, %d stores, %d atomics)\n", res.Ops, res.Loads, res.Stores, res.Atomics)
	fmt.Printf("cycles:            %d (%.3f ms at 1.3 GHz)\n", res.Cycles, res.Seconds*1e3)
	fmt.Printf("L1 hit rate:       %.3f\n", res.L1HitRate())
	fmt.Printf("L2 hit rate:       %.3f\n", res.L2HitRate())
	fmt.Printf("inter-GPU traffic: %.2f GB/s\n", res.InterGPUGBs())
	fmt.Printf("intra-GPU traffic: %d bytes\n", res.IntraGPUBytes)
	fmt.Printf("avg load latency:  %.0f cycles\n", res.AvgLoadLatency())
	fmt.Printf("DRAM accesses:     %d reads, %d writes\n", res.DRAMReads, res.DRAMWrites)
	if res.DirStoresSeen > 0 {
		fmt.Printf("dir: %d stores seen, %.2f inv lines/store, %d evictions (%.2f lines each), %.2f GB/s inv traffic\n",
			res.DirStoresSeen, res.InvLinesPerStore(), res.DirEvicts, res.InvLinesPerDirEvict(), res.InvBandwidthGBs())
	}
	if *compare && *bench != "" {
		p, _ := workload.Get(*bench)
		base, err := r.Run(p, proto.NoRemoteCache, experiments.Variant{})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("speedup vs no-remote-caching baseline: %.2fx (%d / %d cycles)\n",
			float64(base.Cycles)/float64(res.Cycles), base.Cycles, res.Cycles)
	}
	if *check {
		if err := sys.CheckErr(); err != nil {
			fatal(err)
		}
		fmt.Printf("conformance:       %d invariant violations\n", len(sys.Violations()))
	}
}

func protocolNames() []string {
	var out []string
	for _, k := range hmg.Protocols() {
		out = append(out, k.String())
	}
	return out
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "hmgsim: %v\n", err)
	os.Exit(1)
}
