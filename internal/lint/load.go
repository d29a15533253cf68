// Standalone package loading. hmglint avoids a go/packages dependency
// by shelling out to `go list -export -json -deps`, which emits every
// requested package and its dependencies in dependency order, with
// each compiled package's export-data file in the build cache. Type
// information for imports then comes from the standard library's gc
// importer reading those files — the same pipeline the compiler and
// go vet use, with no network and no module downloads.

package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	GoFiles    []string
	ImportMap  map[string]string
	Standard   bool
	DepOnly    bool
	Incomplete bool
}

// Run loads the packages matching patterns (resolved in dir; "" means
// the current directory) and applies the enabled analyzers to every
// matched non-dependency package, returning the merged, suppressed,
// position-sorted findings.
func Run(dir string, patterns []string, enabled []*Analyzer) ([]Diagnostic, error) {
	args := append([]string{
		"list", "-export",
		"-json=ImportPath,Name,Export,GoFiles,Dir,ImportMap,Standard,DepOnly,Incomplete",
		"-deps",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("hmglint: go list %v failed: %v\n%s", patterns, err, stderr.String())
	}

	var pkgs []*listPkg
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("hmglint: decoding go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		q := p
		pkgs = append(pkgs, &q)
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	facts := newFactSet()
	var diags []Diagnostic
	// Interprocedural passes (hotalloc) may report the same
	// cross-package site from several analyzed packages; keep one.
	seen := map[string]bool{}
	// go list -deps emits dependencies before dependents, so walking in
	// order guarantees a package's facts are ready before its importers.
	for _, p := range pkgs {
		if p.Standard || p.Name == "" {
			continue
		}
		if p.Incomplete {
			return nil, fmt.Errorf("hmglint: package %s did not build; fix compile errors first", p.ImportPath)
		}
		pass, err := typecheck(fset, imp, p, facts)
		if err != nil {
			return nil, err
		}
		computeFacts(pass)
		if !p.DepOnly {
			for _, d := range runAnalyzers(pass, enabled) {
				key := d.Analyzer + "\x00" + d.Position.String() + "\x00" + d.Message
				if seen[key] {
					continue
				}
				seen[key] = true
				diags = append(diags, d)
			}
		}
	}
	return diags, nil
}

// typecheck parses and type-checks one listed package. Test files are
// excluded by construction (go list's GoFiles never includes them),
// matching the suite's contract of analyzing simulator code only.
func typecheck(fset *token.FileSet, imp types.Importer, p *listPkg, facts factSet) (*Pass, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(p.Dir, name)
		}
		af, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("hmglint: %v", err)
		}
		files = append(files, af)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	// Imports in source may be vendor-relative; translate through the
	// package's ImportMap before hitting export data.
	conf := types.Config{Importer: mappedImporter{imp, p.ImportMap}}
	pkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("hmglint: typechecking %s: %v", p.ImportPath, err)
	}
	return &Pass{Fset: fset, Files: files, Pkg: pkg, Info: info, facts: facts}, nil
}

// mappedImporter applies an import-path translation map (vendoring,
// test variants) before delegating to the export-data importer.
type mappedImporter struct {
	imp types.Importer
	m   map[string]string
}

func (mi mappedImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := mi.m[path]; ok {
		path = mapped
	}
	return mi.imp.Import(path)
}
