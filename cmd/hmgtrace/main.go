// Command hmgtrace generates, inspects, and profiles workload traces.
//
// Usage:
//
//	hmgtrace list                         # Table III benchmark inventory
//	hmgtrace gen -bench lstm -o lstm.hmgt # write a binary trace
//	hmgtrace info lstm.hmgt               # summarize a trace file
//	hmgtrace fig3 -bench lstm             # inter-GPU redundancy profile
package main

import (
	"flag"
	"fmt"
	"os"

	"hmg"
	"hmg/internal/trace"
	"hmg/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "list":
		list()
	case "gen":
		gen(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "fig3":
		fig3(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: hmgtrace {list | gen -bench NAME -o FILE | info FILE | fig3 -bench NAME} [-scale S]")
	os.Exit(2)
}

func list() {
	fmt.Printf("%-12s  %-22s  %-10s  %-8s  %s\n", "abbrev", "name", "footprint", "kernels", "sync")
	for _, p := range workload.Suite() {
		sync := "-"
		if p.SyncScope != trace.ScopeNone {
			sync = p.SyncScope.String()
		}
		fmt.Printf("%-12s  %-22s  %-10s  %-8d  %s\n", p.Abbrev, p.Name, p.TableIIIFootprint, p.Kernels, sync)
	}
}

func gen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	bench := fs.String("bench", "", "benchmark abbreviation")
	out := fs.String("o", "", "output file")
	scale := fs.Float64("scale", 1.0, "workload scale in (0,1]")
	fs.Parse(args)
	if *bench == "" || *out == "" {
		usage()
	}
	p, err := workload.Get(*bench)
	if err != nil {
		fatal(err)
	}
	if err := workload.CheckScale(*scale); err != nil {
		fatal(err)
	}
	cfg := hmg.DefaultConfig(hmg.ProtocolHMG)
	tr := p.Generate(cfg.Topo, *scale)
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := trace.Encode(f, tr); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: %d ops, %d kernels, %d placement hints\n", *out, tr.Ops(), len(tr.Kernels), len(tr.Placement))
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	tr, err := trace.Decode(f)
	if err != nil {
		fatal(err)
	}
	cfg := hmg.DefaultConfig(hmg.ProtocolHMG)
	st := workload.Summarize(tr, cfg.Topo)
	fmt.Printf("name:      %s\n", tr.Name)
	fmt.Printf("footprint: %d bytes\n", tr.FootprintBytes)
	fmt.Printf("kernels:   %d\n", st.Kernels)
	fmt.Printf("ops:       %d (%d loads, %d stores, %d atomics, %d sync)\n",
		st.Ops, st.Loads, st.Stores, st.Atomics, st.Syncs)
	fmt.Printf("placement: %d pages hinted\n", len(tr.Placement))
}

func fig3(args []string) {
	fs := flag.NewFlagSet("fig3", flag.ExitOnError)
	bench := fs.String("bench", "", "benchmark abbreviation")
	scale := fs.Float64("scale", 1.0, "workload scale in (0,1]")
	fs.Parse(args)
	if *bench == "" {
		usage()
	}
	p, err := workload.Get(*bench)
	if err != nil {
		fatal(err)
	}
	if err := workload.CheckScale(*scale); err != nil {
		fatal(err)
	}
	cfg := hmg.DefaultConfig(hmg.ProtocolHMG)
	tr := p.Generate(cfg.Topo, *scale)
	red := workload.InterGPURedundancy(tr, cfg.Topo)
	fmt.Printf("%s: %.1f%% of inter-GPU loads target lines also accessed by a sibling GPM\n", p.Abbrev, 100*red)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "hmgtrace: %v\n", err)
	os.Exit(1)
}
