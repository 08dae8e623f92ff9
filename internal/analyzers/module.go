package analyzers

import (
	"fmt"
	"go/token"
	"path/filepath"
	"time"
)

// module.go is the inter-procedural layer of the suite: a Module bundles
// every type-checked package of one `go list` invocation, builds the
// call graph lazily, and runs ModuleAnalyzers — checks whose facts flow
// across function (and package) boundaries, unlike the per-package
// Analyzer kind in analyzers.go.

// Module is the whole analyzed package set, loaded once and shared by the
// per-package and module-wide analyzers.
type Module struct {
	Dir  string
	Fset *token.FileSet
	Pkgs []*Package

	graph *CallGraph
	allow map[string]map[string]bool
}

// LoadModule loads and type-checks the packages matching patterns
// (relative to dir) into a Module.
func LoadModule(dir string, patterns []string) (*Module, error) {
	pkgs, err := Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	return NewModule(dir, pkgs), nil
}

// NewModule wraps already-loaded packages (they must share one FileSet,
// as Load guarantees) into a Module.
func NewModule(dir string, pkgs []*Package) *Module {
	m := &Module{Dir: dir, Pkgs: pkgs}
	if len(pkgs) > 0 {
		m.Fset = pkgs[0].Fset
	} else {
		m.Fset = token.NewFileSet()
	}
	m.allow = make(map[string]map[string]bool)
	for _, p := range pkgs {
		for key, set := range buildAllow(p.Fset, p.Files) {
			if m.allow[key] == nil {
				m.allow[key] = make(map[string]bool)
			}
			for name := range set {
				m.allow[key][name] = true
			}
		}
	}
	return m
}

// Graph returns the module call graph, building it on first use.
func (m *Module) Graph() *CallGraph {
	if m.graph == nil {
		m.graph = buildCallGraph(m)
	}
	return m.graph
}

// allowedAt reports whether analyzer name is suppressed at position by a
// `//lint:allow` directive on the line or the line above.
func (m *Module) allowedAt(pos token.Position, name string) bool {
	for _, line := range []int{pos.Line, pos.Line - 1} {
		set := m.allow[fmt.Sprintf("%s:%d", pos.Filename, line)]
		if set != nil && (set[name] || set["*"]) {
			return true
		}
	}
	return false
}

// ModuleAnalyzer is one inter-procedural check. Run inspects the whole
// module through pass and reports findings through pass.Reportf; it
// returns an error only for infrastructure failures (a compiler
// invocation that failed, not a finding).
type ModuleAnalyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `//lint:allow <name>` suppression comments.
	Name string
	// Doc is a one-line description for `dcnrlint -list`.
	Doc string
	// Contract is the longer invariant statement printed by
	// `dcnrlint -explain <name>`, with a pointer to an example fixture.
	Contract string
	Run      func(*ModulePass) error
}

// AllModule is the module-analyzer catalog run by default. HotAlloc is
// deliberately not in it: it shells out to the compiler, so the driver
// runs it only behind -hot (`make lint-hot`).
var AllModule = []*ModuleAnalyzer{SimTaint, LockFlow}

// ModuleByName returns the module analyzer (including HotAlloc) with the
// given name, or nil.
func ModuleByName(name string) *ModuleAnalyzer {
	for _, a := range append([]*ModuleAnalyzer{HotAlloc}, AllModule...) {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// ModulePass hands the module to one analyzer.
type ModulePass struct {
	Analyzer *ModuleAnalyzer
	Mod      *Module

	diags *[]Diagnostic
}

// Reportf records a finding at pos unless an allow directive covers it.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.reportAt(p.Mod.Fset.Position(pos), format, args...)
}

// reportAt records a finding at an already-resolved position — the path
// hotalloc uses for compiler-reported diagnostics that never had a
// token.Pos in our FileSet.
func (p *ModulePass) reportAt(position token.Position, format string, args ...any) {
	if p.Mod.allowedAt(position, p.Analyzer.Name) {
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

// Analyze runs the module analyzers and returns findings sorted by
// position. Infrastructure errors abort the run.
func (m *Module) Analyze(list []*ModuleAnalyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range list {
		pass := &ModulePass{Analyzer: a, Mod: m, diags: &diags}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

// Timing is one analyzer's (or the loader's) wall cost, reported by
// RunModule so `make lint` can keep lint latency visible.
type Timing struct {
	Name string
	Wall time.Duration
}

// RunModule is the full driver pipeline: load the module once, run the
// per-package analyzers and the module analyzers over it, and return
// findings sorted by position with file paths relative to dir where
// possible, plus per-stage wall timings.
func RunModule(dir string, patterns []string, pkgList []*Analyzer, modList []*ModuleAnalyzer) ([]Diagnostic, []Timing, error) {
	var timings []Timing
	start := time.Now()
	m, err := LoadModule(dir, patterns)
	if err != nil {
		return nil, nil, err
	}
	timings = append(timings, Timing{Name: "load", Wall: time.Since(start)})

	var diags []Diagnostic
	for _, a := range pkgList {
		start = time.Now()
		for _, pkg := range m.Pkgs {
			diags = append(diags, pkg.Analyze([]*Analyzer{a})...)
		}
		timings = append(timings, Timing{Name: a.Name, Wall: time.Since(start)})
	}
	for _, a := range modList {
		start = time.Now()
		d, err := m.Analyze([]*ModuleAnalyzer{a})
		if err != nil {
			return nil, timings, err
		}
		diags = append(diags, d...)
		timings = append(timings, Timing{Name: a.Name, Wall: time.Since(start)})
	}

	if abs, err := filepath.Abs(dir); err == nil {
		for i := range diags {
			if rel, err := filepath.Rel(abs, diags[i].File); err == nil && filepath.IsLocal(rel) {
				diags[i].File = rel
			}
		}
	}
	sortDiagnostics(diags)
	return diags, timings, nil
}
