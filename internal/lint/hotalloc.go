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
// Allocation sites recorded in the per-function fact (fnFact):
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
// &localVariable escapes. Every gsim continuation — loads, stores,
// invalidations, atomics, MCA acks, release fences and the kernel
// drain — is an opCtx Handle arm or a static call from one, so all of
// them are analyzed; what stays invisible is stored func hooks such as
// OnEvent, for which the hmgperf allocs/event gate remains the runtime
// backstop.
//
// Suppression: `//lint:allow hotalloc <reason>` on the site line or
// the line above, or on (or directly above) the enclosing function
// declaration — a body-level allow excludes every site in that
// function, which keeps justified sites (pool growth, amortized append
// into reused storage) to one directive each.

package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
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

// fnFact is the hotalloc fact for one function: its own allocation
// sites (after body-level allows) and its static in-module callees.
type fnFact struct {
	// allocs are the unsuppressed allocation sites in the body,
	// including nested function literals.
	allocs []allocSite
	// calls are the FullNames of statically-resolved callees within
	// this module (same package included).
	calls []string
}

// allocSite is one allocation. Run parses every package into one
// FileSet, so pos resolves from any package's Pass.
type allocSite struct {
	pos  token.Pos
	what string
}

// allocStdlib are standard-library packages whose exported API
// allocates on essentially every call path (formatting, error
// construction, string building, sorting).
var allocStdlib = map[string]bool{
	"fmt": true, "errors": true, "strings": true,
	"strconv": true, "sort": true, "bytes": true,
}

// computeAllocFacts adds this package's per-function hotalloc facts to
// pass.facts.
func computeAllocFacts(pass *Pass) {
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
			pass.facts.fns[fn.FullName()] = allocFactFor(pass, fd)
		}
	}
}

// allocFactFor walks one declaration body, collecting allocation sites
// and static in-module callees. Function literals are walked in place,
// so a closure's body attributes to the declaration that creates it.
func allocFactFor(pass *Pass, fd *ast.FuncDecl) *fnFact {
	fact := &fnFact{}
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
		fact.allocs = append(fact.allocs, allocSite{pos: n.Pos(), what: what})
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
func hotallocCall(pass *Pass, call *ast.CallExpr, site func(ast.Node, string), seenCall map[string]bool, fact *fnFact) {
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
			fact.calls = append(fact.calls, name)
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
		fact := pass.facts.fns[name]
		if fact == nil {
			continue
		}
		for _, callee := range fact.calls {
			if _, ok := from[callee]; !ok {
				from[callee] = from[name]
				frontier = append(frontier, callee)
			}
		}
	}

	var diags []Diagnostic
	for name, why := range from {
		fact := pass.facts.fns[name]
		if fact == nil {
			continue
		}
		for _, s := range fact.allocs {
			pass.report(&diags, "hotalloc", s.pos, "%s in %s, reachable from hot path root %s",
				s.what, shortFnName(name), why)
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
