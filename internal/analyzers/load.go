package analyzers

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
	"sort"
)

// listPackage is the subset of `go list -json` output the driver needs.
type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	Export     string
	GoFiles    []string
	ImportMap  map[string]string
	Standard   bool
	DepOnly    bool
}

// Load enumerates the packages matching patterns (relative to dir), parses
// and type-checks each one, and returns them ready for analysis. It shells
// out to `go list -export -deps -json`, so dependencies are resolved from
// compiler export data rather than re-type-checked from source — the same
// package graph the build uses, at build speed.
func Load(dir string, patterns []string) ([]*Package, error) {
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	exports := make(map[string]string)
	importMap := make(map[string]string)
	var targets []*listPackage
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		for from, to := range p.ImportMap {
			importMap[from] = to
		}
		if !p.DepOnly && !p.Standard && len(p.GoFiles) > 0 {
			targets = append(targets, p)
		}
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})

	var out []*Package
	for _, p := range targets {
		pkg, err := typeCheck(fset, imp, p)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// Package is one parsed, type-checked package.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Analyze runs the analyzers over the package and returns the findings.
func (p *Package) Analyze(list []*Analyzer) []Diagnostic {
	return RunAnalyzers(p.Fset, p.Files, p.Types, p.Info, list)
}

// goList invokes `go list -export -deps -json` and decodes the package
// stream. The -export flag populates build-cache export data for every
// dependency, which is what lets the type checker resolve imports without
// re-compiling the world from source.
func goList(dir string, patterns []string) ([]*listPackage, error) {
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// typeCheck parses the package's files and runs the go/types checker over
// them with dependencies resolved through imp.
func typeCheck(fset *token.FileSet, imp types.Importer, p *listPackage) (*Package, error) {
	files := make([]*ast.File, 0, len(p.GoFiles))
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.ImportPath, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
	}
	return &Package{Path: p.ImportPath, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
