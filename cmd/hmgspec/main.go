// Command hmgspec certifies the executable Table I against the paper's
// structural claims: it validates and compiles the NHCC and HMG rule
// tables and exhaustively enumerates every reachable directory state
// of the small model through the same transition function
// proto.DirCtrl executes, certifying zero transient states and
// full-sharer-set invalidation. Any violation exits non-zero.
//
// Usage:
//
//	hmgspec                  # validate + enumerate both tables
//	hmgspec -mutate 1        # self-test: inject a Table I bug, expect violations
//	hmgspec -render          # print the DESIGN.md Table I fragment and exit
//
// The -mutate flag steps the enumeration under deliberate
// proto.Mutation bugs and is how the spec tier proves it has teeth: a
// mutated enumeration must report a violated invariant.
package main

import (
	"flag"
	"fmt"
	"os"

	"hmg/internal/proto"
	"hmg/internal/proto/spec"
)

func main() {
	mutate := flag.Int("mutate", 0, "inject Table I mutation bits (self-test)")
	render := flag.Bool("render", false, "print the DESIGN.md Table I fragment and exit")
	verbose := flag.Bool("v", false, "print every violation, not just the first")
	flag.Parse()

	if *render {
		fmt.Print(spec.RenderDoc())
		return
	}

	failed := false
	for _, tab := range []proto.Table{proto.NHCCTable(), proto.HMGTable()} {
		rep, err := spec.Enumerate(tab, proto.Mutation(*mutate))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("hmgspec: %s: %d states, %d transitions, %d violations\n",
			tab.Name, rep.States, rep.Transitions, len(rep.Violations))
		for i, v := range rep.Violations {
			if !*verbose && i > 0 {
				break
			}
			fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", tab.Name, v)
		}
		if len(rep.Violations) > 0 {
			failed = true
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "hmgspec: FAILED")
		os.Exit(1)
	}
	fmt.Println("hmgspec: Table I certified on the executed transition function")
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "hmgspec: %v\n", err)
	os.Exit(1)
}
