package analyzers

import (
	"testing"
)

// TestHotAllocFixtureModule runs the compiler-backed analyzer over the
// standalone fixture module: each violating region produces exactly one
// finding at the compiler-reported position — including the generic Box,
// whose escape only the instantiating inst package's compile reports —
// while the clean region, the unannotated allocator, and the allowed
// escape produce none.
func TestHotAllocFixtureModule(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go build")
	}
	m, err := LoadModule("testdata/hotallocmod", []string{"./..."})
	if err != nil {
		t.Fatalf("loading fixture module: %v", err)
	}
	diags, err := m.Analyze([]*ModuleAnalyzer{HotAlloc})
	if err != nil {
		t.Fatalf("hotalloc: %v", err)
	}
	assertDiags(t, diags, []string{
		"hot.go:12:10 hotalloc", // new(int) escapes in BadHot
		"hot.go:48:10 hotalloc", // new(T) escapes in Box, instantiated by inst
	})
	if !diagsMention(diags, "BadHot") || !diagsMention(diags, "Box") {
		t.Errorf("the finding should name the annotated region: %q", diagKeys(diags))
	}
	if !diagsMention(diags, "escapes to heap") {
		t.Errorf("the finding should quote the compiler diagnostic: %q", diagKeys(diags))
	}
}
