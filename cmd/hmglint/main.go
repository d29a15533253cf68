// Command hmglint runs the repo's static-analysis suite
// (internal/lint): determinism, eventemit, exhaustive, hotalloc, and
// readonlyhooks. It works standalone —
//
//	hmglint ./...
//	hmglint -analyzers determinism,exhaustive ./internal/gsim
//	hmglint -json ./...
//
// — or as a go vet tool:
//
//	go vet -vettool=$(go env GOBIN)/hmglint ./...
//
// Exit status: 0 clean, 1 usage or internal error, 2 findings.
package main

import (
	"os"

	"hmg/internal/lint"
)

func main() {
	os.Exit(lint.Main(os.Args[1:]))
}
