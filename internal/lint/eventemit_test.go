package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestMutatingSimAPIsResolve checks that every key of mutatingSimAPIs
// names a method declared in the module's packages. A key that names no
// method matches no call, so the table would claim a mutation surface
// the analyzer does not check.
func TestMutatingSimAPIsResolve(t *testing.T) {
	declared := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Fixtures declare look-alike packages, and dot
			// directories hold build output.
			if name := d.Name(); name == "testdata" || (name != "." && name != ".." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			recv := fd.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				declared[f.Name.Name+"."+id.Name+"."+fd.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for key := range mutatingSimAPIs {
		if !declared[key] {
			t.Errorf("mutatingSimAPIs lists %s, which no package of the module declares", key)
		}
	}
}
