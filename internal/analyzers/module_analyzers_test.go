package analyzers

import (
	"testing"
)

func moduleDiags(t *testing.T, rel string, list []*ModuleAnalyzer) []Diagnostic {
	t.Helper()
	m := loadFixtureModule(t, rel)
	diags, err := m.Analyze(list)
	if err != nil {
		t.Fatalf("analyzing %s: %v", rel, err)
	}
	return diags
}

func TestSimTaintBadFixture(t *testing.T) {
	diags := moduleDiags(t, "simtaint/bad", []*ModuleAnalyzer{SimTaint})
	assertDiags(t, diags, []string{
		"bad.go:18:2 simtaint",  // wall taint through locals into Lane.Record
		"bad.go:30:2 simtaint",  // wall taint via the stamp() helper
		"bad.go:40:2 simtaint",  // tainted call into the sinkWrapper derived sink
		"bad.go:51:16 simtaint", // map-order taint into Store.Add
	})
	if !diagsMention(diags, "wall-clock") {
		t.Errorf("wall diagnostics should name the taint kind: %q", diagKeys(diags))
	}
	if !diagsMention(diags, "map-iteration-ordered") {
		t.Errorf("the Store.Add diagnostic should name map-order taint: %q", diagKeys(diags))
	}
	if !diagsMention(diags, "sinkWrapper") {
		t.Errorf("the derived-sink diagnostic should name the wrapper chain: %q", diagKeys(diags))
	}
}

func TestSimTaintGoodFixture(t *testing.T) {
	assertDiags(t, moduleDiags(t, "simtaint/good", []*ModuleAnalyzer{SimTaint}), nil)
}

// TestSimTaintRegression is the seeded-mutation proof: the package is
// outside simdeterminism's import-scope, so the old syntactic analyzer
// reports nothing, while the taint engine follows the wall-clock value
// through two helpers into the journal encoder.
func TestSimTaintRegression(t *testing.T) {
	pkg := loadFixture(t, "simtaint/regression")
	assertDiags(t, pkg.Analyze([]*Analyzer{SimDeterminism}), nil)

	diags := moduleDiags(t, "simtaint/regression", []*ModuleAnalyzer{SimTaint})
	assertDiags(t, diags, []string{
		"regression.go:29:2 simtaint",
	})
	if !diagsMention(diags, "Record") {
		t.Errorf("the diagnostic should name the journal sink: %q", diagKeys(diags))
	}
}

func TestLockFlowBadFixture(t *testing.T) {
	diags := moduleDiags(t, "lockflow/bad", []*ModuleAnalyzer{LockFlow})
	assertDiags(t, diags, []string{
		"bad.go:30:2 lockflow",       // helperB, reached via Submit -> helperA
		"bad.go:37:2 lockflow",       // aliased simulator pointer
		"bad.go:48:2 lockflow",       // conditional lock, must-join says unheld
		"bad.go:68:2 lockflow",       // tick, escaped as the method value e.hook
		"bad.go:73:2 lockflow",       // orphan, no call site
		"bad.go:83:2 lockflow",       // step, called from the plain function drive
		"bad.go:101:2 lockflow",      // poke, called under another type's mutex
		"bad.go:113:2 lockflow",      // flush, called from a goroutine's closure
		"bad.go:126:2 lockflow",      // flushNow, started by a go statement under the lock
		"bad.go:140:2 lockflow",      // settle, in a goroutine started by a des handler
		"bad_serve.go:25:2 lockflow", // Register in helper, reached via Mount -> mount
		"bad_serve.go:32:9 lockflow", // aliased server pointer, unlocked Start
	})
	if !diagsMention(diags, "Submit -> helperA -> helperB") {
		t.Errorf("the helperB diagnostic should carry the unlocked caller chain: %q", diagKeys(diags))
	}
	for _, via := range []string{"tick (method value)", "orphan (no call site)", "drive -> step", "Run -> poke", "Spawn (closure) -> flush"} {
		if !diagsMention(diags, via) {
			t.Errorf("no diagnostic names the entry point %q: %q", via, diagKeys(diags))
		}
	}
	if !diagsMention(diags, "Mount -> mount") {
		t.Errorf("the Register diagnostic should carry the unlocked caller chain: %q", diagKeys(diags))
	}
	if !diagsMention(diags, "serve.Server.Start") {
		t.Errorf("the Start diagnostic should name the serve mutator: %q", diagKeys(diags))
	}
}

func TestLockFlowGoodFixture(t *testing.T) {
	assertDiags(t, moduleDiags(t, "lockflow/good", []*ModuleAnalyzer{LockFlow}), nil)
}

// TestLockFlowRegression reintroduces the exact PR-2 Engine.Submit race
// two calls deep, behind a "caller holds mu" helper; lockflow names the
// unlocked path.
func TestLockFlowRegression(t *testing.T) {
	diags := moduleDiags(t, "lockflow/regression", []*ModuleAnalyzer{LockFlow})
	assertDiags(t, diags, []string{
		"regression.go:35:2 lockflow",
	})
	if !diagsMention(diags, "Submit -> schedule -> enqueue") {
		t.Errorf("the diagnostic should carry the Submit -> schedule -> enqueue path: %q", diagKeys(diags))
	}
}

func TestModuleByName(t *testing.T) {
	for _, a := range append([]*ModuleAnalyzer{HotAlloc}, AllModule...) {
		if ModuleByName(a.Name) != a {
			t.Errorf("ModuleByName(%q) did not return the analyzer", a.Name)
		}
		if a.Contract == "" {
			t.Errorf("%s needs a Contract for -explain", a.Name)
		}
	}
	if ModuleByName("nope") != nil {
		t.Errorf("ModuleByName on unknown name should be nil")
	}
	for _, a := range All {
		if a.Contract == "" {
			t.Errorf("%s needs a Contract for -explain", a.Name)
		}
	}
}
