// The readonlyhooks analyzer: the conformance checker must be
// provably inert. internal/check documents that an attached checker
// "cannot change any simulation outcome" — it inspects caches and
// directories through Peek/ForEach, never Lookup (which touches LRU
// recency). Before this pass, that property rested on a deep-equal
// test; now it is a compile-time guarantee: no code reachable from a
// checker observer may call a simulator API whose mutability fact
// (facts.go) says it mutates, nor write a field of another package's
// type.
//
// Roots, in packages named check:
//
//   - methods and functions named onEvent/OnEvent;
//   - function literals installed as event sinks: assigned to a
//     selector named OnEvent, or passed to a method named Observe.
//
// From the roots the pass closes over same-package static calls
// (function literals are walked inside whatever declaration contains
// them, so hook closures are covered directly) and flags, inside the
// reachable set:
//
//   - any call to a function from another in-module package whose
//     fact is "mutates", with the distinction the facts pass earns
//     its keep on: cache.Lookup (LRU write) is flagged, cache.Peek
//     is not;
//   - any assignment through a pointer/map/slice rooted at a value of
//     another in-module package's named type (e.g. writing a
//     directory entry's sharer set obtained from ForEach), which no
//     call-based rule can see.

package lint

import (
	"go/ast"
	"go/types"
)

// hookField is the simulator's one observation hook, and observeMethod
// the method that chains sinks onto it.
const (
	hookField     = "OnEvent"
	observeMethod = "Observe"
)

// AnalyzerReadonlyHooks makes checker inertness a compile-time
// property.
var AnalyzerReadonlyHooks = &Analyzer{
	Name: "readonlyhooks",
	Doc: "code reachable from checker observers and OnEvent sinks must not " +
		"call mutating simulator APIs",
	Run: runReadonlyHooks,
}

func runReadonlyHooks(pass *Pass) []Diagnostic {
	if pass.Pkg.Name() != "check" {
		return nil
	}

	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}

	// Roots: observer entry points. Sink closures are walked as part of
	// whichever declaration installs them, so adding that declaration to
	// the root set covers the closure body.
	roots := map[*types.Func]bool{}
	for fn := range decls {
		if fn.Name() == "onEvent" || fn.Name() == "OnEvent" {
			roots[fn] = true
		}
	}
	for fn, fd := range decls {
		if roots[fn] {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					if isSelector(lhs, hookField) && i < len(n.Rhs) && containsFuncLit(n.Rhs[i]) {
						roots[fn] = true
					}
				}
			case *ast.CallExpr:
				if isSelector(n.Fun, observeMethod) {
					for _, arg := range n.Args {
						if containsFuncLit(arg) {
							roots[fn] = true
						}
					}
				}
			}
			return true
		})
	}

	// Close over same-package static calls.
	reachable := map[*types.Func]bool{}
	var frontier []*types.Func
	for fn := range roots {
		reachable[fn] = true
		frontier = append(frontier, fn)
	}
	for len(frontier) > 0 {
		fn := frontier[0]
		frontier = frontier[1:]
		fd := decls[fn]
		if fd == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			target := callee(pass.Info, call)
			if target != nil && target.Pkg() == pass.Pkg && !reachable[target] {
				reachable[target] = true
				frontier = append(frontier, target)
			}
			return true
		})
	}

	var diags []Diagnostic
	for fn := range reachable {
		fd := decls[fn]
		if fd == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				target := callee(pass.Info, n)
				if target == nil || target.Pkg() == nil || target.Pkg() == pass.Pkg {
					return true
				}
				if !sameModule(target.Pkg().Path(), pass.Pkg.Path()) {
					return true
				}
				if pass.facts.mutates[target.FullName()] {
					pass.report(&diags, "readonlyhooks", n.Pos(),
						"observer path %s calls %s, which mutates simulator state; "+
							"checker hooks must be read-only (use Peek/ForEach-style accessors)",
						fn.Name(), target.FullName())
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					// Installing a hook is the sanctioned foreign write.
					if isSelector(lhs, hookField) {
						continue
					}
					if t, bad := foreignWrite(pass, lhs); bad {
						pass.report(&diags, "readonlyhooks", lhs.Pos(),
							"observer path %s writes state of %s; checker hooks must be read-only",
							fn.Name(), t)
					}
				}
			case *ast.IncDecStmt:
				if t, bad := foreignWrite(pass, n.X); bad {
					pass.report(&diags, "readonlyhooks", n.X.Pos(),
						"observer path %s writes state of %s; checker hooks must be read-only",
						fn.Name(), t)
				}
			}
			return true
		})
	}
	return diags
}

// foreignWrite reports whether lhs is a write that escapes local
// storage (pointer/map/slice on the path) rooted at a value of another
// in-module package's named type.
func foreignWrite(pass *Pass, lhs ast.Expr) (string, bool) {
	root, real := writeTarget(pass, lhs)
	if !real || root == nil {
		return "", false
	}
	obj := pass.Info.Uses[root]
	if obj == nil {
		obj = pass.Info.Defs[root]
	}
	if obj == nil {
		return "", false
	}
	t := obj.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return "", false
	}
	p := n.Obj().Pkg()
	if p == pass.Pkg || !sameModule(p.Path(), pass.Pkg.Path()) {
		return "", false
	}
	return p.Name() + "." + n.Obj().Name(), true
}

// isSelector reports whether e is a selector naming name (x.name).
func isSelector(e ast.Expr, name string) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name
}

// containsFuncLit reports whether an expression contains a function
// literal (the installed hook body).
func containsFuncLit(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			found = true
		}
		return !found
	})
	return found
}
