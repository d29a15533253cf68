// Package lint is hmglint: a static-analysis pass suite that enforces
// the simulator's determinism and protocol-spec discipline at build
// time, before the runtime conformance harness (internal/check) ever
// has to fire.
//
// The suite mirrors the golang.org/x/tools/go/analysis architecture —
// Analyzer, Pass, Diagnostic, per-package facts — on the standard
// library alone, so the repo stays dependency-free. Should x/tools
// become available, each Analyzer converts mechanically: Run already
// receives a Pass with Fset/Files/Pkg/Info and returns diagnostics.
//
// Five analyzers ship (see their files for the bug class each kills):
//
//   - determinism (determinism.go): no map-order iteration, wall-clock
//     reads, unseeded randomness, or goroutine spawns in simulator
//     packages.
//   - eventemit (eventemit.go): every protocol-state mutation in gsim
//     must be reachable from a (*System).emit call.
//   - exhaustive (exhaustive.go): switches over module enums cover
//     every value or fail loudly in a default.
//   - readonlyhooks (readonlyhooks.go): checker/observer code is
//     provably inert — it never calls a mutating simulator API.
//   - hotalloc (hotalloc.go): no allocation is reachable from the
//     steady-state hot path (engine.Run / Handler.Handle), via an
//     interprocedural may-allocate fact.
//
// Findings are suppressed site-by-site with a directive comment:
//
//	//lint:allow <analyzer> <reason>
//
// placed on the flagged line or the line above it; for hotalloc a
// directive on (or directly above) a function declaration covers the
// whole body. The reason is mandatory; a bare allow is
// itself a diagnostic, and so is an allow that no longer suppresses
// anything.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named pass.
type Analyzer struct {
	// Name is the identifier used on the command line and in
	// //lint:allow directives.
	Name string
	// Doc is a one-paragraph description.
	Doc string
	// Run inspects one package and returns its findings. The framework
	// applies suppression directives afterwards.
	Run func(*Pass) []Diagnostic
}

// Pass carries everything an Analyzer may inspect for one package.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// facts carries the cross-package facts (for every dependency
	// package and this one). See facts.go.
	facts factSet

	// Directive state, shared between fact computation and analyzer
	// runs so a directive consumed at fact time (hotalloc body-level
	// allows) still counts as used. Lazily built by
	// directives().
	dirs     []allowDirective
	dirDiags []Diagnostic
	dirsDone bool
	used     []bool // by index into dirs: the directive covered a site
}

// directives parses (once) and returns the package's allow directives;
// malformed ones are buffered as diagnostics for runAnalyzers.
func (p *Pass) directives() []allowDirective {
	if !p.dirsDone {
		p.dirs, p.dirDiags = parseDirectives(p)
		p.used = make([]bool, len(p.dirs))
		p.dirsDone = true
	}
	return p.dirs
}

// allowedAt reports whether an allow directive for the analyzer covers
// any of the given lines of file (directive on the line itself or the
// line above, so a standalone directive comment guards the statement
// beneath it). A match marks the directive as used.
func (p *Pass) allowedAt(analyzer, file string, lines ...int) bool {
	for i, dir := range p.directives() {
		if dir.analyzer != analyzer || dir.file != file {
			continue
		}
		for _, ln := range lines {
			if dir.line == ln || dir.line+1 == ln {
				p.used[i] = true
				return true
			}
		}
	}
	return false
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Position token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (hmglint/%s)", d.Position, d.Message, d.Analyzer)
}

// report appends a finding, resolving its position.
func (p *Pass) report(diags *[]Diagnostic, analyzer string, pos token.Pos, format string, args ...any) {
	*diags = append(*diags, Diagnostic{
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full registered suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		AnalyzerDeterminism,
		AnalyzerEventEmit,
		AnalyzerExhaustive,
		AnalyzerHotAlloc,
		AnalyzerReadonlyHooks,
	}
}

// analyzerNames lists registered names for error messages and directive
// validation.
func analyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

// Select resolves a comma-separated analyzer selection; empty selects
// the whole suite. Unknown names fail with the known set listed,
// mirroring proto.ParseKind.
func Select(names string) ([]*Analyzer, error) {
	if strings.TrimSpace(names) == "" {
		return Analyzers(), nil
	}
	var sel []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		found := false
		for _, a := range Analyzers() {
			if a.Name == n {
				sel = append(sel, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("hmglint: unknown analyzer %q (known: %v)", n, analyzerNames())
		}
	}
	return sel, nil
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	pos      token.Pos
	file     string
	line     int
	analyzer string
	reason   string
}

var allowRE = regexp.MustCompile(`^//lint:allow\s+(\S+)(?:\s+(.*))?$`)

// parseDirectives extracts every //lint:allow directive from the files
// and validates its shape: the analyzer must be a registered name and
// the reason is mandatory. Malformed directives are diagnostics in
// their own right (analyzer "lint") — an allow that silences nothing
// explainable is worse than the finding it hides.
func parseDirectives(pass *Pass) (dirs []allowDirective, diags []Diagnostic) {
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//lint:") {
					continue
				}
				m := allowRE.FindStringSubmatch(c.Text)
				if m == nil {
					pass.report(&diags, "lint", c.Pos(),
						"malformed lint directive %q (want //lint:allow <analyzer> <reason>)", c.Text)
					continue
				}
				name, reason := m[1], strings.TrimSpace(m[2])
				known := false
				for _, a := range Analyzers() {
					if a.Name == name {
						known = true
						break
					}
				}
				if !known {
					pass.report(&diags, "lint", c.Pos(),
						"//lint:allow names unknown analyzer %q (known: %v)", name, analyzerNames())
					continue
				}
				if reason == "" {
					pass.report(&diags, "lint", c.Pos(),
						"//lint:allow %s is missing its mandatory reason", name)
					continue
				}
				p := pass.Fset.Position(c.Pos())
				dirs = append(dirs, allowDirective{
					pos: c.Pos(), file: p.Filename, line: p.Line, analyzer: name, reason: reason,
				})
			}
		}
	}
	return dirs, diags
}

// runAnalyzers executes the selected suite on one loaded package and
// returns the post-suppression findings sorted by position.
func runAnalyzers(pass *Pass, enabled []*Analyzer) []Diagnostic {
	dirs := pass.directives()
	diags := append([]Diagnostic(nil), pass.dirDiags...)
	for _, a := range enabled {
		diags = append(diags, a.Run(pass)...)
	}
	var kept []Diagnostic
	for _, d := range diags {
		if !pass.allowedAt(d.Analyzer, d.Position.Filename, d.Position.Line) {
			kept = append(kept, d)
		}
	}
	diags = kept
	// Self-check: an allow that suppresses nothing — neither a finding
	// here nor a fact-time site — is stale and must be removed. Only
	// directives for currently-enabled analyzers are judged, so a
	// partial -analyzers run does not flag the other passes' allows.
	enabledNames := map[string]bool{}
	for _, a := range enabled {
		enabledNames[a.Name] = true
	}
	for i, dir := range dirs {
		if !enabledNames[dir.analyzer] || pass.used[i] {
			continue
		}
		pass.report(&diags, "lint", dir.pos,
			"//lint:allow %s suppresses nothing; the analyzer no longer reports at this site", dir.analyzer)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Position, diags[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags
}

// firstSegment returns the leading path element of an import path — the
// module-ownership heuristic the analyzers use to tell "our" packages
// from the standard library and other modules.
func firstSegment(path string) string {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
}

// sameModule reports whether two package paths share a leading path
// element (e.g. hmg/internal/gsim and hmg/internal/cache).
func sameModule(a, b string) bool { return firstSegment(a) == firstSegment(b) }

// callee resolves the static *types.Func a call expression invokes, or
// nil for dynamic calls, conversions, and builtins.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// recvNamed returns the (possibly pointer-stripped) named receiver type
// of a method, or nil for plain functions.
func recvNamed(f *types.Func) *types.Named {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
