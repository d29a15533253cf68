// Cross-package facts. Two fact kinds are computed for every
// in-module package and shared across the import graph: standalone
// mode keeps them in memory while walking `go list -deps` order;
// vettool mode serializes them to the facts files go vet threads
// between compilations.
//
//   - Mutates (this file): for every function, does calling it
//     possibly mutate state reachable from its receiver or arguments?
//     Feeds the readonlyhooks analyzer.
//   - Fns (hotalloc.go): per-function allocation sites and static
//     in-module callees. Feeds the hotalloc analyzer's hot-path
//     reachability walk.
//
// The analysis is a deliberately simple intra-procedural taint pass:
//
//   - Roots: the receiver and parameters. Local variables assigned
//     from expressions mentioning a tainted variable become tainted
//     (so `set := c.setOf(line); set[i].lru = x` is caught).
//   - A mutation is a write whose path provably leaves the local copy:
//     an assignment or ++/-- through a pointer dereference, a map or
//     slice index, or a field of a pointer — rooted at a tainted
//     variable. Writes to fields of a by-value receiver or parameter
//     only change the callee's copy and are not mutations.
//   - delete/clear on a tainted operand is a mutation.
//   - Calling a function whose fact is "mutates" with a tainted
//     receiver or argument is a mutation; same-package calls resolve
//     by fixpoint, cross-package calls through the dependency facts.
//
// Known unsoundness, accepted on purpose: mutations through dynamic
// calls (function values, interface methods) and through pointers
// returned by untracked calls are invisible. The readonlyhooks
// analyzer compensates by walking closure bodies in observer code
// directly, and the runtime checker's deep-equal inertness test
// remains the backstop.

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FactSet carries every fact kind the suite shares across packages.
// The exported field names are the vetx JSON schema go vet threads
// between compilation units.
type FactSet struct {
	// Mutates maps types.Func FullNames to "may mutate
	// receiver/argument state".
	Mutates map[string]bool
	// Fns maps types.Func FullNames to their allocation/call-graph
	// fact (hotalloc.go).
	Fns map[string]*FnFact
}

// NewFactSet returns an empty, writable fact set.
func NewFactSet() FactSet {
	return FactSet{
		Mutates: map[string]bool{},
		Fns:     map[string]*FnFact{},
	}
}

// merge folds src into fs. fs must come from NewFactSet; src may be a
// zero value (e.g. an unmarshalled empty vetx file).
func (fs FactSet) merge(src FactSet) {
	for k, v := range src.Mutates {
		if v {
			fs.Mutates[k] = true
		}
	}
	for k, v := range src.Fns {
		fs.Fns[k] = v
	}
}

// computeFacts derives every fact kind for one package, given the
// already-merged facts of its dependencies in pass.Facts. The returned
// set contains entries for this package's functions only.
func computeFacts(pass *Pass) FactSet {
	out := NewFactSet()
	computeMutates(pass, out.Mutates)
	computeAllocFacts(pass, out.Fns)
	return out
}

// computeMutates derives the mutability facts for one package.
func computeMutates(pass *Pass, local map[string]bool) {
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
	for changed := true; changed; {
		changed = false
		for fn, fd := range decls {
			name := fn.FullName()
			if local[name] {
				continue
			}
			if declMutates(pass, fd, local) {
				local[name] = true
				changed = true
			}
		}
	}
}

// declMutates reports whether one function body contains a mutation of
// tainted (caller-reachable) state, under the current fact estimates.
func declMutates(pass *Pass, fd *ast.FuncDecl, local map[string]bool) bool {
	taint := taintedObjects(pass, fd)
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if isTaintedWrite(pass, lhs, taint) {
					found = true
				}
			}
		case *ast.IncDecStmt:
			if isTaintedWrite(pass, n.X, taint) {
				found = true
			}
		case *ast.CallExpr:
			if callMutates(pass, n, taint, local) {
				found = true
			}
		}
		return !found
	})
	return found
}

// taintedObjects seeds and propagates the taint set for one function:
// receiver + parameters, then any variable assigned from an expression
// mentioning a tainted variable, iterated to a fixpoint.
func taintedObjects(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	taint := map[types.Object]bool{}
	addField := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := pass.Info.Defs[name]; obj != nil {
					taint[obj] = true
				}
			}
		}
	}
	addField(fd.Recv)
	addField(fd.Type.Params)

	mentions := func(e ast.Expr) bool {
		hit := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := pass.Info.Uses[id]; obj != nil && taint[obj] {
					hit = true
				}
			}
			return !hit
		})
		return hit
	}
	lhsObj := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if obj := pass.Info.Defs[id]; obj != nil {
			return obj
		}
		return pass.Info.Uses[id]
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				anyRHS := false
				for _, r := range n.Rhs {
					if mentions(r) {
						anyRHS = true
					}
				}
				if !anyRHS {
					return true
				}
				for _, l := range n.Lhs {
					if obj := lhsObj(l); obj != nil && !taint[obj] {
						taint[obj] = true
						changed = true
					}
				}
			case *ast.RangeStmt:
				if n.X == nil || !mentions(n.X) {
					return true
				}
				for _, l := range []ast.Expr{n.Key, n.Value} {
					if l == nil {
						continue
					}
					if obj := lhsObj(l); obj != nil && !taint[obj] {
						taint[obj] = true
						changed = true
					}
				}
			case *ast.ValueSpec:
				anyRHS := false
				for _, r := range n.Values {
					if mentions(r) {
						anyRHS = true
					}
				}
				if !anyRHS {
					return true
				}
				for _, name := range n.Names {
					if obj := pass.Info.Defs[name]; obj != nil && !taint[obj] {
						taint[obj] = true
						changed = true
					}
				}
			}
			return true
		})
	}
	return taint
}

// isTaintedWrite reports whether the write target provably escapes the
// local copy (pointer deref, map/slice index, or field-of-pointer on
// the path) and is rooted at a tainted variable.
func isTaintedWrite(pass *Pass, lhs ast.Expr, taint map[types.Object]bool) bool {
	root, real := writeTarget(pass, lhs)
	if !real || root == nil {
		return false
	}
	obj := pass.Info.Uses[root]
	if obj == nil {
		obj = pass.Info.Defs[root]
	}
	return obj != nil && taint[obj]
}

// writeTarget walks a write target down to its root identifier,
// reporting whether any step on the path dereferences shared storage.
func writeTarget(pass *Pass, e ast.Expr) (root *ast.Ident, real bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x, real
		case *ast.StarExpr:
			real = true
			e = x.X
		case *ast.IndexExpr:
			switch pass.Info.TypeOf(x.X).Underlying().(type) {
			case *types.Map, *types.Slice, *types.Pointer:
				real = true
			}
			e = x.X
		case *ast.SelectorExpr:
			if _, ok := pass.Info.TypeOf(x.X).Underlying().(*types.Pointer); ok {
				real = true
			}
			e = x.X
		default:
			// f().field, composite literals, etc: no stable root.
			return nil, false
		}
	}
}

// callMutates reports whether a call expression mutates tainted state:
// delete/clear builtins on tainted operands, or calls to functions
// whose fact says they mutate, passed a tainted receiver or argument.
func callMutates(pass *Pass, call *ast.CallExpr, taint map[types.Object]bool, local map[string]bool) bool {
	touchesTaint := func(e ast.Expr) bool {
		hit := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := pass.Info.Uses[id]; obj != nil && taint[obj] {
					hit = true
				}
			}
			return !hit
		})
		return hit
	}

	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
			if (b.Name() == "delete" || b.Name() == "clear") && len(call.Args) > 0 {
				return touchesTaint(call.Args[0])
			}
			return false
		}
	}
	fn := callee(pass.Info, call)
	if fn == nil {
		return false
	}
	mutates := local[fn.FullName()] || pass.Facts.Mutates[fn.FullName()]
	if !mutates {
		return false
	}
	// A tainted operand only conveys caller state if its type can carry
	// a reference to it: passing a tainted int to fmt.Sprintf (which
	// mutates its own printer) mutates nothing of the caller's.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok &&
		touchesTaint(sel.X) && carriesRefs(pass.Info.TypeOf(sel.X), nil) {
		return true
	}
	for _, a := range call.Args {
		if touchesTaint(a) && carriesRefs(pass.Info.TypeOf(a), nil) {
			return true
		}
	}
	return false
}

// carriesRefs reports whether a value of type t can hold a reference
// to the caller's mutable state: pointers, maps, slices, channels,
// function values, interfaces, unsafe pointers, or composites
// containing any of them. Pure value types (ints, strings, flat
// structs) cannot, so handing them to a mutating callee is harmless.
func carriesRefs(t types.Type, seen map[types.Type]bool) bool {
	if t == nil {
		return true // unknown: be conservative
	}
	if seen[t] {
		return false
	}
	if seen == nil {
		seen = map[types.Type]bool{}
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if carriesRefs(u.Field(i).Type(), seen) {
				return true
			}
		}
		return false
	case *types.Array:
		return carriesRefs(u.Elem(), seen)
	default:
		return true // tuples and anything exotic: be conservative
	}
}

// posOf is a tiny helper for analyzers reporting on nodes.
func posOf(n ast.Node) token.Pos { return n.Pos() }
