package analyzers

// engine_test.go covers the v2 analysis engine on its own — CFG lowering
// shapes, the generic dataflow solver, call-graph resolution, and
// inter-procedural summary propagation — so an engine regression fails
// here even if every analyzer still happens to pass its fixtures.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// parseFuncBody wraps a statement list in a function and parses it.
// BuildCFG needs no type information, so undeclared helpers are fine.
func parseFuncBody(t *testing.T, body string) *ast.FuncDecl {
	t.Helper()
	src := "package p\n\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parsing body: %v\n%s", err, src)
	}
	return file.Decls[0].(*ast.FuncDecl)
}

func TestCFGConstruction(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{
			name: "if without else",
			body: `x := 1
if x > 0 {
	x++
}
return`,
			want: `b0[assign cond] -> b1 b2
b1[incdec] -> b2
b2[return] -> b3
b3[] (exit)
`,
		},
		{
			name: "if else join",
			body: `x := 1
if x > 0 {
	a()
} else {
	b()
}
c()`,
			want: `b0[assign cond] -> b1 b2
b1[expr] -> b3
b2[expr] -> b3
b3[expr] -> b4
b4[] (exit)
`,
		},
		{
			name: "for with break and continue",
			body: `for i := 0; i < 3; i++ {
	if i == 1 {
		continue
	}
	if i == 2 {
		break
	}
	work()
}
after()`,
			want: `b0[assign] -> b1
b1[cond] -> b3 b8
b2[incdec] -> b1
b3[cond] -> b4 b5
b4[continue] -> b2
b5[cond] -> b6 b7
b6[break] -> b8
b7[expr] -> b2
b8[expr] -> b9
b9[] (exit)
`,
		},
		{
			name: "switch with fallthrough and default",
			body: `x := 0
switch x {
case 1:
	a()
	fallthrough
case 2:
	b()
default:
	c()
}
d()`,
			want: `b0[assign cond cond cond] -> b1 b2 b3
b1[expr fallthrough] -> b2
b2[expr] -> b4
b3[expr] -> b4
b4[expr] -> b5
b5[] (exit)
`,
		},
		{
			name: "select",
			body: `select {
case v := <-ch:
	use(v)
case ch2 <- 1:
	done()
}
end()`,
			want: `b0[] -> b1 b2
b1[assign expr] -> b3
b2[send expr] -> b3
b3[expr] -> b4
b4[] (exit)
`,
		},
		{
			name: "goto loop",
			body: `i := 0
loop:
	i++
	if i < 3 {
		goto loop
	}
	return`,
			want: `b0[assign] -> b1
b1[incdec cond] -> b2 b3
b2[goto] -> b1
b3[return] -> b4
b4[] (exit)
`,
		},
		{
			name: "defer and range",
			body: `defer cleanup()
for k := range m {
	use(k)
}`,
			want: `b0[defer] -> b1
b1[range] -> b2 b3
b2[expr] -> b1
b3[] -> b4
b4[] (exit)
`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := BuildCFG(parseFuncBody(t, tc.body))
			if got := cfg.String(); got != tc.want {
				t.Errorf("CFG mismatch:\ngot:\n%s\nwant:\n%s", got, tc.want)
			}
			// Preds must mirror Succs exactly.
			for _, b := range cfg.Blocks {
				for _, s := range b.Succs {
					found := false
					for _, p := range s.Preds {
						if p == b {
							found = true
						}
					}
					if !found {
						t.Errorf("b%d -> b%d has no matching pred entry", b.Index, s.Index)
					}
				}
			}
		})
	}
}

// loadFixtureModule wraps one fixture package as a Module for the
// module-wide analyzers and the call graph.
func loadFixtureModule(t *testing.T, rel string) *Module {
	t.Helper()
	pkg := loadFixture(t, rel)
	return NewModule(filepath.Join("testdata", "src", rel), []*Package{pkg})
}

func fixtureFunc(t *testing.T, m *Module, name string) *types.Func {
	t.Helper()
	for _, pkg := range m.Pkgs {
		if obj := pkg.Types.Scope().Lookup(name); obj != nil {
			if fn, ok := obj.(*types.Func); ok {
				return fn
			}
		}
	}
	t.Fatalf("fixture function %s not found", name)
	return nil
}

func TestCallGraphStaticEdges(t *testing.T) {
	m := loadFixtureModule(t, "engine/chain")
	g := m.Graph()
	wantEdges := map[string]string{
		"A": "B", "B": "C", "A2": "B2", "B2": "C2", "Clean": "A2",
	}
	for from, to := range wantEdges {
		n := g.Lookup(fixtureFunc(t, m, from))
		if n == nil {
			t.Fatalf("no node for %s", from)
		}
		found := false
		for _, e := range n.Out {
			if e.To.Fn.Name() == to {
				found = true
				if e.Dynamic || e.InClosure {
					t.Errorf("%s -> %s should be a plain static edge", from, to)
				}
			}
		}
		if !found {
			t.Errorf("missing call edge %s -> %s; out = %d edges", from, to, len(n.Out))
		}
	}
	// In-edges mirror out-edges.
	c2 := g.Lookup(fixtureFunc(t, m, "C2"))
	if len(c2.In) != 1 || c2.In[0].From.Fn.Name() != "B2" {
		t.Errorf("C2 in-edges: want exactly [B2], got %d", len(c2.In))
	}
}

func TestCallGraphInterfaceResolution(t *testing.T) {
	m := loadFixtureModule(t, "engine/iface")
	g := m.Graph()
	run := g.Lookup(fixtureFunc(t, m, "Run"))
	if run == nil {
		t.Fatal("no node for Run")
	}
	var targets []string
	for _, e := range run.Out {
		if !e.Dynamic {
			t.Errorf("interface call edge to %s should be Dynamic", e.To.Name())
		}
		targets = append(targets, e.To.Name())
	}
	if len(targets) != 2 {
		t.Fatalf("Run should resolve to exactly the two implementations, got %v", targets)
	}
	joined := strings.Join(targets, " ")
	if !strings.Contains(joined, "ByValue") || !strings.Contains(joined, "ByPointer") {
		t.Errorf("Run targets = %v, want ByValue.Do and (*ByPointer).Do", targets)
	}
}

func TestCallGraphClosureEdges(t *testing.T) {
	m := loadFixtureModule(t, "lockflow/good")
	g := m.Graph()
	// Engine.Arm calls e.tick only inside the event-loop closure.
	for _, n := range g.Order {
		if n.Fn.Name() != "Arm" {
			continue
		}
		for _, e := range n.Out {
			if e.To.Fn.Name() == "tick" && (!e.InClosure || !e.InHandler || e.Go) {
				t.Errorf("Arm -> tick runs inside the des handler literal; edge must be InClosure and InHandler, not Go")
			}
		}
		return
	}
	t.Fatal("Arm not found in lockflow/good")
}

// TestCallGraphGoEdges pins the Go flag on a go statement's own call and
// that a goroutine started inside a des handler is not InHandler.
func TestCallGraphGoEdges(t *testing.T) {
	m := loadFixtureModule(t, "lockflow/bad")
	edges := map[string]*CGEdge{}
	for _, n := range m.Graph().Order {
		for _, e := range n.Out {
			edges[n.Fn.Name()+"->"+e.To.Fn.Name()] = e
		}
	}
	if e := edges["Detach->flushNow"]; e == nil || !e.Go || e.InClosure {
		t.Errorf("Detach -> flushNow = %+v, want a Go edge outside closures", e)
	}
	if e := edges["Relay->settle"]; e == nil || !e.InClosure || e.InHandler || e.Go {
		t.Errorf("Relay -> settle = %+v, want InClosure, not InHandler (a goroutine), not Go", e)
	}
}

// TestTaintSummaryPropagation3Deep pins the engine's inter-procedural
// contract on the chain fixture: wall taint surfaces through three
// returns, and a sink obligation climbs through three parameter lists.
func TestTaintSummaryPropagation3Deep(t *testing.T) {
	m := loadFixtureModule(t, "engine/chain")
	g := m.Graph()
	sums := computeTaintSummaries(g)

	a := sums[fixtureFunc(t, m, "A")]
	if len(a.ret) != 1 || a.ret[0]&taintWall == 0 {
		t.Errorf("A's result must be wall-tainted through B and C; ret = %#v", a.ret)
	}
	if sums[fixtureFunc(t, m, "B")].ret[0]&taintWall == 0 {
		t.Errorf("B's result must be wall-tainted through C")
	}

	// A2(l, r): r is parameter slot 1; its taint must be marked
	// sink-bound two hops above the actual l.Record call.
	for _, name := range []string{"A2", "B2", "C2"} {
		s := sums[fixtureFunc(t, m, name)]
		if s.sink&paramTaintBit(1) == 0 {
			t.Errorf("%s's record parameter must be summarized sink-bound (sink=%#x)", name, s.sink)
		}
		if s.sink&paramTaintBit(0) != 0 {
			t.Errorf("%s's lane parameter is not record data; sink=%#x", name, s.sink)
		}
	}
	if via := sums[fixtureFunc(t, m, "A2")].via; !strings.Contains(via, "B2") {
		t.Errorf("A2's sink witness should name B2, got %q", via)
	}
	// Clean passes an untainted record: the whole fixture must be silent.
	diags, err := m.Analyze([]*ModuleAnalyzer{SimTaint})
	if err != nil {
		t.Fatal(err)
	}
	assertDiags(t, diags, nil)
}
