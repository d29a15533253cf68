// The hotalloc analyzer: no allocation is reachable from the
// simulator's steady-state hot path. PR 6 made the event engine and
// the gsim continuation paths zero-alloc, but the guarantee was
// enforced only dynamically (TestScheduleSteadyStateZeroAlloc, the
// hmgperf allocs/event gate). This pass turns it into a compile-time
// invariant: a call graph is rooted at the event loop and every
// handler body, a per-function "may allocate" fact is propagated
// across packages, and any allocation site reachable from a root is a
// finding.
//
// Roots (matched by name convention, so fixtures exercise the same
// rules as the repo):
//
//   - the method Run on a type named Engine in a package named engine
//     (the event loop);
//   - any niladic method named Handle — the engine.Handler interface
//     implemented by gsim's pooled opCtx stage dispatcher, whose
//     case arms are the steady-state continuation bodies.
//
// Allocation sites recorded in the per-function fact (facts.go FnFact):
//
//   - function literals (a closure allocates its context);
//   - &CompositeLit and slice/map composite literals;
//   - make, new, and append (append may grow its backing array —
//     amortized-growth sites carry an allow with the amortization
//     argument);
//   - string concatenation and string↔[]byte/[]rune conversions;
//   - calls into allocating stdlib packages (fmt, errors, strings,
//     strconv, sort, bytes) — this is how fmt.Errorf/error wrapping
//     on a hot path is caught;
//   - interface boxing: a concrete non-pointer-shaped value passed to
//     an interface-typed parameter or converted to an interface type.
//     Pointer-shaped values (pointers, maps, chans, funcs) box without
//     allocating, which is exactly why engine.ScheduleHandler(*opCtx)
//     is free and stays clean.
//
// Arguments of panic(...) calls are exempt: a panicking path has left
// the steady state by definition.
//
// Known unsoundness, accepted on purpose: dynamic calls through
// stored func values and interface methods are invisible to the call
// graph, as are allocations hidden behind map growth and
// &localVariable escapes. The load, store and invalidation reply and
// done continuations are opCtx Handle arms and static calls from them,
// so they are analyzed; what stays invisible is the func continuations
// of the atomic, MCA, release-fence and kernel-drain paths (run through
// engine.Func) and the OnEvent hook. The hmgperf allocs/event gate
// remains the runtime backstop for those.
//
// Suppression: `//lint:allow hotalloc <reason>` on the site line or
// the line above, or on (or directly above) the enclosing function
// declaration — a body-level allow excludes every site in that
// function, which keeps justified continuation-heavy functions (e.g.
// gsim's atomic and kernel-drain closures, budgeted by the perf gate)
// to one directive each.

package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// AnalyzerHotAlloc makes the zero-alloc hot path a compile-time
// property.
var AnalyzerHotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "no allocation (closure, composite literal, make/append, interface " +
		"boxing, fmt) may be reachable from engine.Run or a Handle body",
	Run: runHotAlloc,
}

// FnFact is the hotalloc fact for one function: its own allocation
// sites (after body-level allows) and its static in-module callees.
type FnFact struct {
	// Allocs are the unsuppressed allocation sites in the body,
	// including nested function literals.
	Allocs []AllocSite
	// Calls are the FullNames of statically-resolved callees within
	// this module (same package included).
	Calls []string
}

// AllocSite is one allocation, positioned for cross-package reporting.
type AllocSite struct {
	// Pos is the "file:line:col" position of the site.
	Pos string
	// What describes the allocation.
	What string
}

// allocStdlib are standard-library packages whose exported API
// allocates on essentially every call path (formatting, error
// construction, string building, sorting).
var allocStdlib = map[string]bool{
	"fmt": true, "errors": true, "strings": true,
	"strconv": true, "sort": true, "bytes": true,
}

// computeAllocFacts fills fns with this package's per-function
// hotalloc facts.
func computeAllocFacts(pass *Pass, fns map[string]*FnFact) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fns[fn.FullName()] = allocFactFor(pass, fd)
		}
	}
}

// allocFactFor walks one declaration body, collecting allocation sites
// and static in-module callees. Function literals are walked in place,
// so a closure's body attributes to the declaration that creates it.
func allocFactFor(pass *Pass, fd *ast.FuncDecl) *FnFact {
	fact := &FnFact{}
	declLine := pass.Fset.Position(fd.Pos()).Line

	// panic(...) argument ranges are exempt from site collection.
	var panicRanges [][2]token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
				panicRanges = append(panicRanges, [2]token.Pos{call.Lparen, call.Rparen})
			}
		}
		return true
	})
	inPanic := func(pos token.Pos) bool {
		for _, r := range panicRanges {
			if r[0] <= pos && pos <= r[1] {
				return true
			}
		}
		return false
	}

	seenCall := map[string]bool{}
	consumed := map[ast.Node]bool{} // composite literals reported via their &
	site := func(n ast.Node, what string) {
		pos := pass.Fset.Position(n.Pos())
		if pass.allowedAt("hotalloc", pos.Filename, pos.Line, declLine) {
			return
		}
		fact.Allocs = append(fact.Allocs, AllocSite{Pos: pos.String(), What: what})
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if inPanic(n.Pos()) {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			site(n, "function literal allocates a closure")
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if cl, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					consumed[cl] = true
					site(n, "&composite literal escapes to the heap")
				}
			}
		case *ast.CompositeLit:
			if consumed[n] {
				return true
			}
			switch pass.Info.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				site(n, "slice literal allocates its backing array")
			case *types.Map:
				site(n, "map literal allocates")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if b, ok := pass.Info.TypeOf(n).Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					site(n, "string concatenation allocates")
				}
			}
		case *ast.CallExpr:
			hotallocCall(pass, n, site, seenCall, fact)
		}
		return true
	})
	return fact
}

// hotallocCall classifies one call expression: builtin allocators,
// string conversions, allocating stdlib calls, interface boxing at the
// call boundary, and the in-module call-graph edge.
func hotallocCall(pass *Pass, call *ast.CallExpr, site func(ast.Node, string), seenCall map[string]bool, fact *FnFact) {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				site(call, "make allocates")
			case "new":
				site(call, "new allocates")
			case "append":
				site(call, "append may grow its backing array")
			}
			return
		}
	}

	// Conversions: string↔[]byte/[]rune allocate; conversion to an
	// interface type boxes.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type.Underlying()
		from := pass.Info.TypeOf(call.Args[0])
		if from != nil {
			switch {
			case isString(to) && isByteOrRuneSlice(from.Underlying()):
				site(call, "[]byte/[]rune→string conversion allocates")
			case isByteOrRuneSlice(to) && isString(from.Underlying()):
				site(call, "string→[]byte/[]rune conversion allocates")
			case types.IsInterface(tv.Type) && !types.IsInterface(from) && !pointerShaped(from):
				site(call, fmt.Sprintf("conversion boxes %s into an interface", from))
			}
		}
		return
	}

	fn := callee(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	pkgPath := fn.Pkg().Path()
	if allocStdlib[pkgPath] {
		site(call, fmt.Sprintf("call to %s.%s allocates", fn.Pkg().Name(), fn.Name()))
		return
	}
	if sameModule(pkgPath, pass.Pkg.Path()) {
		if name := fn.FullName(); !seenCall[name] {
			seenCall[name] = true
			fact.Calls = append(fact.Calls, name)
		}
	}

	// Interface boxing at the parameter boundary: a concrete value of a
	// non-pointer-shaped type passed where an interface is expected gets
	// heap-boxed. Passing a pointer (gsim's *opCtx into
	// engine.ScheduleHandler) does not.
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() {
			if i < params.Len()-1 {
				pt = params.At(i).Type()
			} else if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		} else if i < params.Len() {
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := pass.Info.TypeOf(arg)
		if at == nil || types.IsInterface(at) || pointerShaped(at) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		site(arg, fmt.Sprintf("argument boxes %s into interface parameter of %s", at, fn.Name()))
	}
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// pointerShaped reports whether a value of type t fits in a pointer
// word, so boxing it into an interface copies the word without heap
// allocation.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// runHotAlloc finds this package's hot-path roots and walks the merged
// cross-package call-graph facts, reporting every reachable allocation
// site.
func runHotAlloc(pass *Pass) []Diagnostic {
	type root struct {
		fn   *types.Func
		why  string
		decl *ast.FuncDecl
	}
	var roots []root
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			switch {
			case pass.Pkg.Name() == "engine" && fn.Name() == "Run" && recvNamed(fn) != nil && recvNamed(fn).Obj().Name() == "Engine":
				roots = append(roots, root{fn, "engine.Run event loop", fd})
			case fn.Name() == "Handle" && niladicMethod(fn):
				roots = append(roots, root{fn, fmt.Sprintf("%s.Handle", recvName(fn)), fd})
			}
		}
	}
	if len(roots) == 0 {
		return nil
	}

	// BFS over the fact call graph; remember which root first reached
	// each function for the report.
	from := map[string]string{}
	var frontier []string
	for _, r := range roots {
		name := r.fn.FullName()
		if _, ok := from[name]; !ok {
			from[name] = r.why
			frontier = append(frontier, name)
		}
	}
	for len(frontier) > 0 {
		name := frontier[0]
		frontier = frontier[1:]
		fact := pass.Facts.Fns[name]
		if fact == nil {
			continue
		}
		for _, callee := range fact.Calls {
			if _, ok := from[callee]; !ok {
				from[callee] = from[name]
				frontier = append(frontier, callee)
			}
		}
	}

	var diags []Diagnostic
	for name, why := range from {
		fact := pass.Facts.Fns[name]
		if fact == nil {
			continue
		}
		for _, s := range fact.Allocs {
			diags = append(diags, Diagnostic{
				Position: parsePosition(s.Pos),
				Analyzer: "hotalloc",
				Message: fmt.Sprintf("%s in %s, reachable from hot path root %s",
					s.What, shortFnName(name), why),
			})
		}
	}
	return diags
}

// niladicMethod reports whether fn is a method with no parameters and
// no results — the engine.Handler shape.
func niladicMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && sig.Params().Len() == 0 && sig.Results().Len() == 0
}

// recvName returns the receiver type name of a method for messages.
func recvName(fn *types.Func) string {
	if n := recvNamed(fn); n != nil {
		return n.Obj().Name()
	}
	return "?"
}

// shortFnName strips the package path from a FullName for messages:
// "(hmg/internal/gsim.*System).fetch" → "(*System).fetch".
func shortFnName(full string) string {
	if i := strings.LastIndex(full, "/"); i >= 0 {
		// Drop everything up to the last path separator, keeping any
		// leading "(" or "(*" receiver syntax.
		prefix := ""
		for _, r := range full {
			if r == '(' || r == '*' {
				prefix += string(r)
				continue
			}
			break
		}
		return prefix + full[i+1:]
	}
	return full
}

// parsePosition turns an AllocSite "file:line:col" back into a
// token.Position for cross-package diagnostics.
func parsePosition(s string) token.Position {
	var p token.Position
	rest := s
	if i := strings.LastIndexByte(rest, ':'); i >= 0 {
		if col, err := strconv.Atoi(rest[i+1:]); err == nil {
			p.Column = col
			rest = rest[:i]
		}
	}
	if i := strings.LastIndexByte(rest, ':'); i >= 0 {
		if line, err := strconv.Atoi(rest[i+1:]); err == nil {
			p.Line = line
			rest = rest[:i]
		}
	}
	p.Filename = rest
	return p
}
