// Command hmglint runs the repo's static-analysis suite
// (internal/lint): determinism, eventemit, exhaustive, hotalloc, and
// readonlyhooks.
//
//	hmglint ./...
//	hmglint -analyzers determinism,exhaustive ./internal/gsim
//	hmglint -list
//
// Each finding prints as one "file:line:col: message (hmglint/analyzer)"
// line on stdout.
//
// Exit status: 0 clean, 1 usage or internal error, 2 findings.
package main

import (
	"flag"
	"fmt"
	"os"

	"hmg/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is the whole command, returning its exit status.
func run(args []string) int {
	fs := flag.NewFlagSet("hmglint", flag.ContinueOnError)
	analyzers := fs.String("analyzers", "", "comma-separated analyzer selection (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: hmglint [-analyzers a,b] [-list] [packages]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	enabled, err := lint.Select(*analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := lint.Run("", patterns, enabled)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "hmglint: %d finding(s)\n", len(diags))
		return 2
	}
	return 0
}
