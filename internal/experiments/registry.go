package experiments

import (
	"hmg/internal/proto"
	"hmg/internal/report"
	"hmg/internal/topo"
	"hmg/internal/workload"
)

// RunSpec identifies one memoizable simulation of a campaign: a
// benchmark under a protocol and architectural variant, optionally on a
// non-default machine shape (the zero Spec means the campaign's base
// machine — Table II's 4x4 unless Options.Topo reshapes it). Specs that
// canonicalize to the same memo key (see Runner.key) execute once.
type RunSpec struct {
	Bench workload.Params
	Kind  proto.Kind
	V     Variant
	Topo  topo.Spec
}

// Figure is one entry of the campaign registry: a table generator
// whose requests to the Runner are also the figure's plan. PlanUnion
// learns the plan by running Gen once against a recording Runner that
// answers every request with a placeholder, so a generator's requests
// must not depend on the values of the results it reads. Static figures
// (configuration tables, trace profiles, and the self-timed Fig. 7
// calibration) make no memoized runs and are never dry-run.
type Figure struct {
	Name   string
	Gen    func(*Runner) (*report.Table, error)
	static bool
}

// Figures returns the full campaign registry in the paper's
// presentation order — the single source of truth for cmd/hmgbench's
// figure names and for campaign prewarming.
func Figures() []Figure {
	return []Figure{
		{Name: "tableII", Gen: func(r *Runner) (*report.Table, error) { return TableII(r), nil }, static: true},
		{Name: "tableIII", Gen: func(r *Runner) (*report.Table, error) { return TableIII(r), nil }, static: true},
		{Name: "cost", Gen: func(r *Runner) (*report.Table, error) { return HardwareCost(r), nil }, static: true},
		{Name: "3", Gen: Fig3, static: true},
		{Name: "7", Gen: Fig7, static: true},
		{Name: "2", Gen: Fig2},
		{Name: "8", Gen: Fig8},
		{Name: "9", Gen: Fig9},
		{Name: "10", Gen: Fig10},
		{Name: "11", Gen: Fig11},
		{Name: "12", Gen: Fig12},
		{Name: "13", Gen: Fig13},
		{Name: "14", Gen: Fig14},
		{Name: "granularity", Gen: Granularity},
		{Name: "downgrade", Gen: DowngradeAblation},
		{Name: "writeback", Gen: WriteBackAblation},
		{Name: "gpmscope", Gen: GPMScopeStudy},
		{Name: "scaling", Gen: ScalingStudy},
		{Name: "toposcale", Gen: TopoScale},
		{Name: "carve", Gen: RelatedProtocols},
		{Name: "locality", Gen: LocalityAblation},
		{Name: "mca", Gen: MCAStudy},
	}
}

// PlanUnion concatenates the run plans of figs in order — the campaign
// prewarm input for a figure selection. Each non-static figure's
// generator runs once against a recording Runner, whose requests become
// the plan. A generator that fails while recording keeps the runs it
// asked for so far; its error surfaces when the figure is rendered.
// Duplicate specs are fine: Prewarm folds specs sharing a memo key
// before scheduling.
func PlanUnion(figs []Figure) []RunSpec {
	// Regrowing from empty dominated recording; 64 per figure fits Figs. 8-11.
	rec := &Runner{recording: true, plan: make([]RunSpec, 0, 64*len(figs))}
	for _, f := range figs {
		if !f.static {
			_, _ = f.Gen(rec)
		}
	}
	return rec.plan
}

// FigureNames returns the registry names in presentation order.
func FigureNames() []string {
	var names []string
	for _, f := range Figures() {
		names = append(names, f.Name)
	}
	return names
}
