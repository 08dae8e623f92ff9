package analyzers

// The heaplock regression pair: PR 2 fixed remediation.Engine.Submit
// scheduling on the shared DES heap after releasing the engine mutex —
// a race the type system cannot see and reviewers missed once already.
// The fixture under testdata/src/heaplock/regression reintroduces that
// exact call pattern; lockflow must flag it, and the real (fixed)
// remediation package must stay clean. The dynamic counterpart is
// remediation.TestStatsConsistentUnderConcurrentSubmit, which the tier-1
// gate runs under the race detector: reintroducing the bug in the real
// engine trips both layers.

import "testing"

func TestHeapLockRegressionFixtureFlagged(t *testing.T) {
	diags := moduleDiags(t, "heaplock/regression", []*ModuleAnalyzer{LockFlow})
	assertDiags(t, diags, []string{
		"regression.go:30:2 lockflow", // sim.After after mu.Unlock — the PR-2 bug
	})
	if !diagsMention(diags, "race on the event heap") {
		t.Errorf("diagnostic should explain the race: %q", diagKeys(diags))
	}
}

func TestHeapLockRealRemediationClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a package via go list")
	}
	m, err := LoadModule("../..", []string{"dcnr/internal/remediation"})
	if err != nil {
		t.Fatalf("loading remediation: %v", err)
	}
	if len(m.Pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(m.Pkgs))
	}
	diags, err := m.Analyze([]*ModuleAnalyzer{LockFlow})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("fixed remediation engine should be clean, got %q", diagKeys(diags))
	}
}
