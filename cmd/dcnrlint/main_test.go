package main

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dcnr/internal/analyzers"
)

// buildLint compiles the dcnrlint binary once per test run, into a
// directory that outlives any single test (t.TempDir is per-test).
var lintBin struct {
	once sync.Once
	path string
	err  error
}

func buildLint(t *testing.T) string {
	t.Helper()
	lintBin.once.Do(func() {
		dir, err := os.MkdirTemp("", "dcnrlint-e2e")
		if err != nil {
			lintBin.err = err
			return
		}
		lintBin.path = filepath.Join(dir, "dcnrlint")
		if out, err := exec.Command("go", "build", "-o", lintBin.path, ".").CombinedOutput(); err != nil {
			lintBin.err = errors.New(string(out))
		}
	})
	if lintBin.err != nil {
		t.Fatalf("building dcnrlint: %v", lintBin.err)
	}
	return lintBin.path
}

func TestMain(m *testing.M) {
	code := m.Run()
	if lintBin.path != "" {
		os.RemoveAll(filepath.Dir(lintBin.path))
	}
	os.Exit(code)
}

// runLint executes the binary and returns stdout, stderr, and exit code.
func runLint(t *testing.T, dir string, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(buildLint(t), args...)
	cmd.Dir = dir
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("running dcnrlint: %v\n%s", err, stderr.String())
		}
		code = exit.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

// TestFixtureModuleEndToEnd runs the built driver over the self-contained
// fixture module (its go.mod replaces dcnr with this repository), which
// seeds one violation per analyzer plus one clean package.
func TestFixtureModuleEndToEnd(t *testing.T) {
	stdout, stderr, code := runLint(t, filepath.Join("testdata", "fixturemod"), "-json", "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (findings)\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	var diags []analyzers.Diagnostic
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("-json output is not a diagnostic array: %v\n%s", err, stdout)
	}
	want := []string{
		"sim/sim.go:23 obsnilsafe",     // value obs.Counter field
		"sim/sim.go:28 lockflow",       // sim.After without the mutex, on the unlocked path Kick
		"sim/sim.go:28 simdeterminism", // time.Now in simulation scope
		"sim/sim.go:39 simtaint",       // wall-clock stamp reaches Lane.Record
		"sim/sim.go:43 simdeterminism", // time.Now inside the stamp helper
		"sim/sim.go:52 errchecklite",   // discarded f.Close error
	}
	got := make([]string, 0, len(diags))
	for _, d := range diags {
		got = append(got, filepath.ToSlash(d.File)+":"+itoa(d.Line)+" "+d.Analyzer)
	}
	if len(got) != len(want) {
		t.Fatalf("findings mismatch:\ngot  %q\nwant %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

func TestFixtureCleanPackage(t *testing.T) {
	stdout, stderr, code := runLint(t, filepath.Join("testdata", "fixturemod"), "./clean/...")
	if code != 0 || strings.TrimSpace(stdout) != "" {
		t.Fatalf("clean package: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

// TestRealTreeClean is the acceptance gate: the repository itself must
// lint clean, so `make lint` can sit in `make verify`.
func TestRealTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("lints the whole repository")
	}
	stdout, stderr, code := runLint(t, "../..", "./...")
	if code != 0 {
		t.Fatalf("repository does not lint clean (exit %d):\n%s%s", code, stdout, stderr)
	}
}

// TestRealTreeHotClean extends the acceptance gate to the compiler-backed
// hotalloc analyzer: every //hot:noalloc region in the repository must be
// escape-free, so `make lint-hot` can gate CI.
func TestRealTreeHotClean(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and lints the whole repository")
	}
	stdout, stderr, code := runLint(t, "../..", "-hot", "./...")
	if code != 0 {
		t.Fatalf("repository does not pass -hot (exit %d):\n%s%s", code, stdout, stderr)
	}
}

func TestListAnalyzers(t *testing.T) {
	stdout, _, code := runLint(t, ".", "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, a := range analyzers.All {
		if !strings.Contains(stdout, a.Name) {
			t.Errorf("-list output missing %q:\n%s", a.Name, stdout)
		}
	}
	for _, name := range []string{"simtaint", "lockflow", "hotalloc"} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output missing module analyzer %q:\n%s", name, stdout)
		}
	}
}

// TestExplain pins the -explain contract: every analyzer prints a
// non-trivial invariant statement; unknown names are a driver error.
func TestExplain(t *testing.T) {
	for _, name := range []string{"simdeterminism", "simtaint", "lockflow", "hotalloc"} {
		stdout, stderr, code := runLint(t, ".", "-explain", name)
		if code != 0 {
			t.Fatalf("-explain %s exited %d: %s", name, code, stderr)
		}
		if !strings.HasPrefix(stdout, name) || len(stdout) < 200 {
			t.Errorf("-explain %s output too thin:\n%s", name, stdout)
		}
	}
	_, stderr, code := runLint(t, ".", "-explain", "nosuch")
	if code != 2 || !strings.Contains(stderr, "unknown analyzer") {
		t.Errorf("-explain nosuch: exit %d, stderr %q", code, stderr)
	}
}

// TestGraphDOT runs -graph over the fixture module and checks the DOT
// neighborhood: the matched function is highlighted and its static call
// edge is present.
func TestGraphDOT(t *testing.T) {
	stdout, stderr, code := runLint(t, filepath.Join("testdata", "fixturemod"),
		"-graph", "Scheduler.Log", "./...")
	if code != 0 {
		t.Fatalf("-graph exited %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "digraph callgraph") {
		t.Fatalf("-graph did not emit DOT:\n%s", stdout)
	}
	if !strings.Contains(stdout, "fillcolor=lightyellow") {
		t.Errorf("-graph should highlight the matched root:\n%s", stdout)
	}
	if !strings.Contains(stdout, "Scheduler).Log\" -> ") || !strings.Contains(stdout, "stamp") {
		t.Errorf("-graph should include the Log -> stamp call edge:\n%s", stdout)
	}
}

// TestTimeFlag checks -time reports the load stage and one line per
// analyzer on stderr without disturbing the findings on stdout.
func TestTimeFlag(t *testing.T) {
	_, stderr, code := runLint(t, filepath.Join("testdata", "fixturemod"), "-time", "./clean/...")
	if code != 0 {
		t.Fatalf("-time clean run exited %d: %s", code, stderr)
	}
	for _, stage := range []string{"load", "simdeterminism", "simtaint", "lockflow"} {
		if !strings.Contains(stderr, stage) {
			t.Errorf("-time output missing stage %q:\n%s", stage, stderr)
		}
	}
}

// TestJSONEmptyArray pins the tooling contract: no findings still emits a
// valid (empty) JSON array, not null.
func TestJSONEmptyArray(t *testing.T) {
	stdout, _, code := runLint(t, filepath.Join("testdata", "fixturemod"), "-json", "./clean/...")
	if code != 0 {
		t.Fatalf("clean -json run exited %d", code)
	}
	if strings.TrimSpace(stdout) != "[]" {
		t.Errorf("empty findings should encode as []: %q", stdout)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}
