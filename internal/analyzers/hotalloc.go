package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// HotAlloc turns the repo's bench-only "0 allocs/op" invariant into a
// lint gate. A function whose doc comment carries a `//hot:noalloc`
// directive declares its body a hot region: the compiler's escape
// analysis must prove no value in it escapes to the heap. The analyzer
// re-runs the compiler with `-gcflags=<module>/...=-m` over every package
// of the module (the build cache replays the diagnostics, so repeat runs
// are cheap) and reports every "escapes to heap" / "moved to heap"
// diagnostic that lands inside a region — including a generic region's,
// which gc reports only while compiling a package that instantiates it.
//
// This is deliberately the compiler's own verdict, not a reimplementation
// of escape analysis: if gc says a line allocates, the bench gate would
// eventually say the same thing — at merge time instead of review time.
// Intentional allocations inside a hot region (error paths, one-time
// growth) are suppressed with //lint:allow hotalloc on the line.
//
// Because it shells out to `go build`, HotAlloc is not in the default
// AllModule catalog; the driver runs it behind -hot (`make lint-hot`).
var HotAlloc = &ModuleAnalyzer{
	Name: "hotalloc",
	Doc:  "//hot:noalloc regions must be free of compiler-reported heap escapes",
	Contract: `A function whose doc comment contains //hot:noalloc declares its body
an allocation-free region: the gc compiler's escape analysis (re-run over
the whole module via go build -gcflags=<module>/...=-m ./...; cached
builds replay diagnostics) must report no "escapes to heap"/"moved to
heap" inside it. A generic body is compiled, and its escapes reported at
its own lines, only in the packages that instantiate it, which is why
the whole module is compiled; each position is reported once. Annotated
in this repo: the DES scheduler hot path, the generic obs.Lane[T].Record
and its SpanRing, journal and timeline wrappers, timeline
Sampler.Sample, and tickets.Parse — the paths whose 0 allocs/op
invariant the benchmarks gate.
Intentional cold-path allocations take //lint:allow hotalloc on the line.
Runs behind dcnrlint -hot / make lint-hot because it shells out to the
compiler. Example fixture: internal/analyzers/testdata/hotallocmod/`,
	Run: runHotAlloc,
}

// HotDirective marks a function body as a no-allocation region when it
// appears in the function's doc comment.
const HotDirective = "//hot:noalloc"

// hotRegion is one annotated function, in file-coordinate form so
// compiler diagnostics can be matched against it.
type hotRegion struct {
	start, end token.Position // `func` to the closing brace; absolute path
	self       token.Position // the receiver, or the name of a plain func
	fn         string
}

// contains reports whether d lies in the region: the body, or the
// signature, where gc reports a parameter moved to the heap. The position
// gc gives the function itself is excluded: an instantiated generic's
// wrapper repeats its body's escapes there, and the body's own reports
// already cover them.
func (r hotRegion) contains(d escapeDiag) bool {
	if d.file != filepath.Clean(r.start.Filename) || d.line == r.self.Line && d.col == r.self.Column {
		return false
	}
	after := d.line > r.start.Line || d.line == r.start.Line && d.col >= r.start.Column
	before := d.line < r.end.Line || d.line == r.end.Line && d.col <= r.end.Column
	return after && before
}

func runHotAlloc(pass *ModulePass) error {
	m := pass.Mod
	var regions []hotRegion
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !hasHotDirective(fd) {
					continue
				}
				self := fd.Name.Pos() // where gc positions the function itself
				if fd.Recv != nil {
					self = fd.Recv.Pos()
				}
				regions = append(regions, hotRegion{
					start: m.Fset.Position(fd.Pos()),
					self:  m.Fset.Position(self),
					end:   m.Fset.Position(fd.Body.Rbrace),
					fn:    funcDisplayName(fd),
				})
			}
		}
	}
	if len(regions) == 0 {
		return nil
	}

	diags, err := escapeDiagnostics(m.Dir)
	if err != nil {
		return err
	}
	// Every generic shape and every instantiating package reports the
	// same source position again; report each position once.
	seen := make(map[escapeDiag]bool)
	for _, d := range diags {
		key := escapeDiag{file: d.file, line: d.line, col: d.col}
		if seen[key] {
			continue
		}
		for _, r := range regions {
			if !r.contains(d) {
				continue
			}
			seen[key] = true
			pass.reportAt(token.Position{Filename: d.file, Line: d.line, Column: d.col},
				"heap allocation in //hot:noalloc region %s: %s (restructure to keep it on the stack, or //lint:allow hotalloc for an intentional cold path)",
				r.fn, d.msg)
			break
		}
	}
	return nil
}

func hasHotDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, HotDirective)
		if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
			return true
		}
	}
	return false
}

func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		return "(" + typeExprString(fd.Recv.List[0].Type) + ")." + fd.Name.Name
	}
	return fd.Name.Name
}

func typeExprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.StarExpr:
		return "*" + typeExprString(v.X)
	case *ast.IndexExpr:
		return typeExprString(v.X)
	}
	return "?"
}

// escapeDiag is one parsed compiler diagnostic.
type escapeDiag struct {
	file      string
	line, col int
	msg       string
}

// escapeLine matches `path/to/file.go:12:34: message`.
var escapeLine = regexp.MustCompile(`^(.*\.go):(\d+):(\d+): (.*)$`)

// escapeDiagnostics compiles every package of the module in dir with -m
// and returns the heap-escape diagnostics with absolute file paths. The
// whole module is compiled, not just the packages that declare regions: a
// generic body is compiled, and its escapes reported at its own
// file:line, only in the packages that instantiate it.
func escapeDiagnostics(dir string) ([]escapeDiag, error) {
	cmd := exec.Command("go", "list", "-m")
	cmd.Dir = dir
	mod, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -m: %v", err)
	}
	flags := "-gcflags=" + strings.TrimSpace(string(mod)) + "/...=-m"
	cmd = exec.Command("go", "build", flags, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go build %s ./...: %v\n%s", flags, err, out)
	}
	// The compiler prints paths relative to the working directory; region
	// spans come from the FileSet, which holds absolute paths.
	absDir, err := filepath.Abs(dir)
	if err != nil {
		absDir = dir
	}
	var diags []escapeDiag
	for _, line := range strings.Split(string(out), "\n") {
		mt := escapeLine.FindStringSubmatch(line)
		if mt == nil {
			continue
		}
		msg := mt[4]
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		file := mt[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(absDir, file)
		}
		ln, _ := strconv.Atoi(mt[2])
		col, _ := strconv.Atoi(mt[3])
		diags = append(diags, escapeDiag{file: filepath.Clean(file), line: ln, col: col, msg: msg})
	}
	return diags, nil
}
