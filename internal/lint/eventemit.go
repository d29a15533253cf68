// The eventemit analyzer: every protocol-state mutation in the gsim
// package must happen inside a function that (possibly transitively)
// reaches (*System).emit. The runtime conformance checker
// (internal/check) is only as good as the event stream it observes; a
// new transition handler that fills, invalidates, dirties, or
// retires lines without emitting leaves the checker blind to exactly
// the state change it exists to audit. This pass makes "silent
// mutation" a build-time error instead of a fuzz-luck discovery.
//
// Mechanics: the protocol-visible mutation surface is a fixed table of
// simulator APIs (cache fills/invalidations/flushes, directory
// transitions of Table I, directory entry allocation and removal, DRAM
// writes, dirty-bit sets; sharer sets are plain values, stored only
// through those transitions). The pass builds the gsim-internal static call graph
// (function literals attributed to their enclosing declaration),
// marks every function that can reach an emit call, and flags each
// mutation site inside a function that cannot. Reachability — not
// path-sensitivity — is the contract: a handler that emits on one
// branch and mutates on another passes; a handler with no emit
// anywhere in its call tree does not. Helpers whose events are
// emitted by every caller (pure absorption layers) carry
// //lint:allow eventemit directives naming the covering event.

package lint

import (
	"go/ast"
	"go/types"
)

// mutatingSimAPIs is the protocol-visible mutation surface, keyed by
// "pkgname.Type.Method" (package name, not import path, so fixtures
// exercise the same table).
var mutatingSimAPIs = map[string]bool{
	"cache.Cache.Fill":             true,
	"cache.Cache.Invalidate":       true,
	"cache.Cache.InvalidateRegion": true,
	"cache.Cache.InvalidateAll":    true,
	"cache.Cache.FlushDirty":       true,
	"cache.Cache.SetValue":         true,
	"cache.Cache.MergeFrom":        true,
	"proto.DirCtrl.RemoteLoad":     true,
	"proto.DirCtrl.RemoteStore":    true,
	"proto.DirCtrl.LocalStore":     true,
	"proto.DirCtrl.Invalidation":   true,
	"proto.DirCtrl.DropSharer":     true,
	"directory.Dir.Ensure":         true,
	"directory.Dir.Drop":           true,
	"memory.DRAM.StoreValue":       true,
}

// AnalyzerEventEmit enforces the mutate-implies-emit discipline in
// gsim.
var AnalyzerEventEmit = &Analyzer{
	Name: "eventemit",
	Doc: "every protocol-state mutation in gsim must be inside a function " +
		"that reaches (*System).emit",
	Run: runEventEmit,
}

func runEventEmit(pass *Pass) []Diagnostic {
	if pass.Pkg.Name() != "gsim" {
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

	// Call graph edges within the package, plus per-decl direct facts.
	calls := map[*types.Func]map[*types.Func]bool{}
	emitsDirect := map[*types.Func]bool{}
	type mutation struct {
		fn   *types.Func
		node ast.Node
		what string
	}
	var mutations []mutation

	for fn, fd := range decls {
		calls[fn] = map[*types.Func]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				target := callee(pass.Info, n)
				if target == nil {
					return true
				}
				if isEmit(target) {
					emitsDirect[fn] = true
				}
				if target.Pkg() == pass.Pkg {
					calls[fn][target] = true
				}
				if key := apiKey(target); mutatingSimAPIs[key] {
					mutations = append(mutations, mutation{fn, n, key})
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if key, ok := dirtyBitWrite(pass, lhs); ok {
						mutations = append(mutations, mutation{fn, lhs, key})
					}
				}
			}
			return true
		})
	}

	// Reaches-emit fixpoint over the reversed call graph.
	reaches := map[*types.Func]bool{}
	for fn := range emitsDirect {
		reaches[fn] = true
	}
	for changed := true; changed; {
		changed = false
		for fn, targets := range calls {
			if reaches[fn] {
				continue
			}
			for t := range targets {
				if reaches[t] {
					reaches[fn] = true
					changed = true
					break
				}
			}
		}
	}

	var diags []Diagnostic
	for _, m := range mutations {
		if reaches[m.fn] {
			continue
		}
		pass.report(&diags, "eventemit", m.node.Pos(),
			"%s mutates protocol state (%s) but cannot reach (*System).emit; "+
				"emit an event on this path or annotate with //lint:allow eventemit <covering event>",
			m.fn.Name(), m.what)
	}
	return diags
}

// isEmit recognizes the (*System).emit method of a package named gsim.
func isEmit(fn *types.Func) bool {
	if fn.Name() != "emit" {
		return false
	}
	n := recvNamed(fn)
	return n != nil && n.Obj().Name() == "System" &&
		n.Obj().Pkg() != nil && n.Obj().Pkg().Name() == "gsim"
}

// apiKey renders a method as "pkgname.Type.Method" for table lookup;
// plain functions and methods of unnamed types return "".
func apiKey(fn *types.Func) string {
	n := recvNamed(fn)
	if n == nil || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Name() + "." + n.Obj().Name() + "." + fn.Name()
}

// dirtyBitWrite recognizes assignments to the Dirty field of a
// cache.Entry — the write-back design option's state bit, which the
// API table cannot see because it is a plain field store.
func dirtyBitWrite(pass *Pass, lhs ast.Expr) (string, bool) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Dirty" {
		return "", false
	}
	t := pass.Info.TypeOf(sel.X)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Name() != "Entry" || n.Obj().Pkg() == nil || n.Obj().Pkg().Name() != "cache" {
		return "", false
	}
	return "cache.Entry.Dirty write", true
}
