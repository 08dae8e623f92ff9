// Package analyzers is the project-invariant static analysis suite behind
// cmd/dcnrlint.
//
// The repository's last two PRs each fixed a latent bug that a
// project-specific static check would have caught at review time: an
// unsynchronized sim.After racing on the DES event heap, and Store.Get
// assuming sorted input after ReadJSON. The paper this repo reproduces is a
// measurement study, so the simulator must stay deterministic and
// reproducible — an invariant the compiler cannot express. Each analyzer
// here encodes one such invariant:
//
//   - simdeterminism: simulation packages must not read the wall clock or
//     math/rand, and must not emit map-iteration-ordered output.
//   - lockflow (module-wide, module.go): des.Simulator mutations on a
//     mutex-owning struct must be reached with the mutex held (the PR-2
//     race class).
//   - obsnilsafe: obs metrics must be wired through the nil-safe Registry,
//     never constructed or copied by value.
//   - errchecklite: I/O-shaped error returns (ReadJSON, serve loops, file
//     and network calls) must not be silently discarded.
//
// The suite is standard library only: go/parser + go/types + go/importer,
// with package discovery and export data supplied by `go list`. Findings
// are suppressed by a `//lint:allow <analyzer> [reason]` comment on the
// flagged line or the line directly above it.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned for editors (file:line:col).
type Diagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// Analyzer is one project-invariant check. Run inspects the type-checked
// package in pass and reports findings through pass.Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `//lint:allow <name>` suppression comments.
	Name string
	// Doc is a one-line description for `dcnrlint -list`.
	Doc string
	// Contract is the longer invariant statement printed by
	// `dcnrlint -explain <name>`, with a pointer to an example fixture.
	Contract string
	// Run performs the check.
	Run func(*Pass)
}

// All is the analyzer catalog, in the order the driver runs them.
var All = []*Analyzer{SimDeterminism, ObsNilSafe, ErrCheckLite}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Pass hands one type-checked package to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// allow maps "file:line" to the set of analyzer names suppressed
	// there (the wildcard "*" suppresses every analyzer).
	allow map[string]map[string]bool
	// diags collects findings across analyzers for the package.
	diags *[]Diagnostic
}

// AllowDirective is the comment prefix that suppresses a finding.
const AllowDirective = "//lint:allow"

// buildAllow indexes every `//lint:allow` comment by file:line.
func buildAllow(fset *token.FileSet, files []*ast.File) map[string]map[string]bool {
	allow := make(map[string]map[string]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, AllowDirective)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				if allow[key] == nil {
					allow[key] = make(map[string]bool)
				}
				allow[key][fields[0]] = true
			}
		}
	}
	return allow
}

// allowed reports whether the analyzer is suppressed at the given position:
// a directive on the flagged line itself, or alone on the line above.
func (p *Pass) allowed(pos token.Position) bool {
	for _, line := range []int{pos.Line, pos.Line - 1} {
		set := p.allow[fmt.Sprintf("%s:%d", pos.Filename, line)]
		if set != nil && (set[p.Analyzer.Name] || set["*"]) {
			return true
		}
	}
	return false
}

// Reportf records a finding at pos unless an allow directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allowed(position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunAnalyzers runs every analyzer in list over one type-checked package
// and returns the findings sorted by position.
func RunAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, list []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	allow := buildAllow(fset, files)
	for _, a := range list {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			allow:    allow,
			diags:    &diags,
		}
		a.Run(pass)
	}
	sortDiagnostics(diags)
	return diags
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}

// calleeFunc resolves the statically-known callee of a call expression, or
// nil for calls through function values, builtins, and type conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isPkgFunc reports whether fn is the package-level function (or method)
// path.name.
func isPkgFunc(fn *types.Func, path, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == path && fn.Name() == name
}
