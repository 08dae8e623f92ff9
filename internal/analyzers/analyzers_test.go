package analyzers

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// fixtureDeps are the packages the testdata fixtures may import. Export
// data for them (and, via -deps, everything they import) backs the type
// checker, so fixtures type-check exactly like real code.
var fixtureDeps = []string{
	"dcnr/internal/des", "dcnr/internal/obs", "dcnr/internal/obs/health",
	"dcnr/internal/obs/journal", "dcnr/internal/obs/timeline",
	"dcnr/internal/serve", "dcnr/internal/sev", "dcnr/internal/simrand",
	"bytes", "fmt", "io", "log/slog", "math/rand", "net", "net/http",
	"os", "sort", "sync", "time",
}

var fixtureEnv struct {
	once sync.Once
	fset *token.FileSet
	imp  types.Importer
	err  error
}

func fixtureImporter(t *testing.T) (*token.FileSet, types.Importer) {
	t.Helper()
	fixtureEnv.once.Do(func() {
		pkgs, err := goList(".", fixtureDeps)
		if err != nil {
			fixtureEnv.err = err
			return
		}
		exports := make(map[string]string)
		for _, p := range pkgs {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
		fixtureEnv.fset = token.NewFileSet()
		fixtureEnv.imp = importer.ForCompiler(fixtureEnv.fset, "gc", func(path string) (io.ReadCloser, error) {
			file, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("fixture importer: no export data for %q", path)
			}
			return os.Open(file)
		})
	})
	if fixtureEnv.err != nil {
		t.Fatalf("loading fixture dependencies: %v", fixtureEnv.err)
	}
	return fixtureEnv.fset, fixtureEnv.imp
}

// loadFixture parses and type-checks one fixture package directory under
// testdata/src.
func loadFixture(t *testing.T, rel string) *Package {
	t.Helper()
	fset, imp := fixtureImporter(t)
	dir := filepath.Join("testdata", "src", rel)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	lp := &listPackage{ImportPath: "fixture/" + rel, Dir: dir}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") {
			lp.GoFiles = append(lp.GoFiles, e.Name())
		}
	}
	pkg, err := typeCheck(fset, imp, lp)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", rel, err)
	}
	return pkg
}

// diagKeys renders diagnostics as "file:line:col analyzer" for exact
// position assertions.
func diagKeys(diags []Diagnostic) []string {
	out := make([]string, 0, len(diags))
	for _, d := range diags {
		out = append(out, fmt.Sprintf("%s:%d:%d %s", filepath.Base(d.File), d.Line, d.Col, d.Analyzer))
	}
	return out
}

func assertDiags(t *testing.T, diags []Diagnostic, want []string) {
	t.Helper()
	got := diagKeys(diags)
	if len(got) != len(want) {
		t.Fatalf("diagnostics mismatch:\ngot  %q\nwant %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diagnostic %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

func TestSimDeterminismBadFixture(t *testing.T) {
	pkg := loadFixture(t, "simdeterminism/bad")
	diags := pkg.Analyze([]*Analyzer{SimDeterminism})
	assertDiags(t, diags, []string{
		"bad.go:8:2 simdeterminism",  // import "math/rand"
		"bad.go:16:7 simdeterminism", // time.Now()
		"bad.go:27:3 simdeterminism", // append in map range, never sorted
		"bad.go:35:3 simdeterminism", // fmt.Println in map range
		"bad.go:42:3 simdeterminism", // channel send in map range
	})
	for _, sub := range []string{"math/rand", "time.Now", "never sorted", "fmt.Println", "channel send"} {
		if !diagsMention(diags, sub) {
			t.Errorf("no diagnostic mentions %q", sub)
		}
	}
}

func TestSimDeterminismGoodFixture(t *testing.T) {
	pkg := loadFixture(t, "simdeterminism/good")
	assertDiags(t, pkg.Analyze([]*Analyzer{SimDeterminism}), nil)
}

// The heaplock fixtures hold the per-method shapes of the PR-2 race
// class; lockflow must report exactly these positions.
func TestHeapLockBadFixture(t *testing.T) {
	diags := moduleDiags(t, "heaplock/bad", []*ModuleAnalyzer{LockFlow})
	assertDiags(t, diags, []string{
		"bad.go:22:2 lockflow", // sim.After before Lock
		"bad.go:33:2 lockflow", // sim.Run after Unlock
		"bad.go:39:2 lockflow", // sim.Reset without the lock
		"bad.go:45:9 lockflow", // sim.Reserve without the lock
		"bad.go:46:2 lockflow", // sim.ScheduleReserved without the lock
	})
	if !diagsMention(diags, "des.Simulator.After") || !diagsMention(diags, "des.Simulator.Run") {
		t.Errorf("diagnostics should name the mutating method: %q", diagKeys(diags))
	}
}

func TestHeapLockGoodFixture(t *testing.T) {
	assertDiags(t, moduleDiags(t, "heaplock/good", []*ModuleAnalyzer{LockFlow}), nil)
}

func TestObsNilSafeBadFixture(t *testing.T) {
	pkg := loadFixture(t, "obsnilsafe/bad")
	diags := pkg.Analyze([]*Analyzer{ObsNilSafe})
	assertDiags(t, diags, []string{
		"bad.go:11:2 obsnilsafe",           // field of value type obs.Counter
		"bad.go:17:6 obsnilsafe",           // obs.Registry{} composite literal
		"bad.go:18:7 obsnilsafe",           // new(obs.Histogram)
		"bad.go:20:10 obsnilsafe",          // &obs.Gauge{} composite literal
		"bad.go:24:13 obsnilsafe",          // parameter of value type obs.Histogram
		"bad_health.go:10:2 obsnilsafe",    // field of value type health.Engine
		"bad_health.go:15:6 obsnilsafe",    // health.Engine{} composite literal
		"bad_health.go:16:9 obsnilsafe",    // new(health.Engine)
		"bad_journal.go:10:2 obsnilsafe",   // field of value type journal.Journal
		"bad_journal.go:15:6 obsnilsafe",   // journal.Journal{} composite literal
		"bad_journal.go:16:9 obsnilsafe",   // new(journal.Journal)
		"bad_journal.go:20:17 obsnilsafe",  // parameter of value type journal.Journal
		"bad_serve.go:10:2 obsnilsafe",     // field of value type serve.Server
		"bad_serve.go:16:6 obsnilsafe",     // serve.Server{} composite literal
		"bad_serve.go:17:9 obsnilsafe",     // new(serve.Server)
		"bad_timeline.go:10:2 obsnilsafe",  // field of value type timeline.Timeline
		"bad_timeline.go:15:6 obsnilsafe",  // timeline.Timeline{} composite literal
		"bad_timeline.go:16:9 obsnilsafe",  // new(timeline.Timeline)
		"bad_timeline.go:20:25 obsnilsafe", // parameter of value type timeline.Timeline
	})
	if !diagsMention(diags, "health.New") {
		t.Errorf("engine diagnostics should point at health.New: %q", diagKeys(diags))
	}
	if !diagsMention(diags, "journal.New") {
		t.Errorf("journal diagnostics should point at journal.New: %q", diagKeys(diags))
	}
	if !diagsMention(diags, "timeline.New") {
		t.Errorf("timeline diagnostics should point at timeline.New: %q", diagKeys(diags))
	}
	if !diagsMention(diags, "serve.New") {
		t.Errorf("server diagnostics should point at serve.New: %q", diagKeys(diags))
	}
}

func TestObsNilSafeGoodFixture(t *testing.T) {
	pkg := loadFixture(t, "obsnilsafe/good")
	assertDiags(t, pkg.Analyze([]*Analyzer{ObsNilSafe}), nil)
}

func TestErrCheckLiteBadFixture(t *testing.T) {
	pkg := loadFixture(t, "errchecklite/bad")
	diags := pkg.Analyze([]*Analyzer{ErrCheckLite})
	assertDiags(t, diags, []string{
		"bad.go:16:2 errchecklite", // f.Write
		"bad.go:17:2 errchecklite", // f.Close
		"bad.go:22:2 errchecklite", // fmt.Fprintf to a fallible writer
		"bad.go:28:5 errchecklite", // go serveLoop(...)
	})
	if !diagsMention(diags, "goroutine") {
		t.Errorf("the go-statement diagnostic should mention the goroutine: %q", diagKeys(diags))
	}
}

func TestErrCheckLiteGoodFixture(t *testing.T) {
	pkg := loadFixture(t, "errchecklite/good")
	assertDiags(t, pkg.Analyze([]*Analyzer{ErrCheckLite}), nil)
}

// TestAllowDirectiveScope pins the suppression contract: same line and
// line-above suppress, two lines above does not, and the analyzer name
// must match.
func TestAllowDirectiveScope(t *testing.T) {
	pkg := loadFixture(t, "simdeterminism/good")
	// The good fixture relies on same-line directives; a full run of every
	// analyzer over it must stay clean.
	assertDiags(t, pkg.Analyze(All), nil)
}

func diagsMention(diags []Diagnostic, sub string) bool {
	for _, d := range diags {
		if strings.Contains(d.Message, sub) {
			return true
		}
	}
	return false
}

func TestByName(t *testing.T) {
	for _, a := range All {
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not return the analyzer", a.Name)
		}
	}
	if ByName("nope") != nil {
		t.Errorf("ByName on unknown name should be nil")
	}
}
