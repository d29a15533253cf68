package hmg

import (
	"hmg/internal/consist"
	"hmg/internal/gsim"
	"hmg/internal/topo"
)

// LitmusThread is one thread of a litmus program, pinned to a CTA slot
// (slot i runs on GPM i when Slots equals the GPM count).
type LitmusThread = consist.Thread

// LitmusProgram is a small multi-threaded program for probing the
// scoped memory model. Build one with NewLitmus.
type LitmusProgram = consist.Program

// LitmusObservation records one load's observed value.
type LitmusObservation = consist.Observation

// LitmusResult is a completed litmus run. Query observed values with
// Value(thread, op) and Observations().
type LitmusResult = consist.Result

// LitmusBuilder assembles a litmus program fluently:
//
//	prog := hmg.NewLitmus("mp").
//		Thread(0, storeData, releaseFlag).
//		Thread(3, acquireFlag, loadData).
//		Build()
type LitmusBuilder = consist.Builder

// NewLitmus starts a litmus program builder.
func NewLitmus(name string) *LitmusBuilder { return consist.New(name) }

// LitmusConfig is the conformance-testing configuration: a small
// 2 GPU × 2 GPM × 2 SM machine with value tracking enabled — the system
// the litmus suites and the conformance fuzzer run on.
func LitmusConfig(p Protocol) Config { return consist.SmallConfig(p) }

// RunLitmus executes a litmus program on a functional (value-tracking)
// system under the given configuration. Options apply to the underlying
// system, so a litmus run can carry the invariant checker:
//
//	res, err := hmg.RunLitmus(cfg, prog, hmg.WithInvariantChecks())
func RunLitmus(cfg Config, prog LitmusProgram, opts ...Option) (*LitmusResult, error) {
	var sys *System
	res, err := consist.Run(gsim.Config(cfg), prog, func(raw *gsim.System) {
		sys = wrap(raw, opts)
	})
	if err != nil {
		return nil, err
	}
	if err := sys.CheckErr(); err != nil {
		return res, err
	}
	return res, nil
}

// LitmusValues extracts every value any thread of the program stores to
// addr (including 0, the initial memory value).
func LitmusValues(prog LitmusProgram, addr topo.Addr) map[uint64]bool {
	return consist.WrittenValues(prog, addr)
}
