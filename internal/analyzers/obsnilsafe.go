package analyzers

import (
	"go/ast"
	"go/types"
)

// ObsNilSafe enforces the obs package's wiring contract outside obs
// itself: metric values come from a Registry (whose nil form hands out nil,
// no-op metrics), are held by pointer, and are only touched through their
// nil-safe methods. The health engine rides the same contract: a nil
// *health.Engine is the uninstrumented no-op, and health.New is the only
// constructor that validates rules and wires state. The causal journal
// follows suit: a nil *journal.Journal drops records for free, and
// journal.New is the only way to get a journal with its name tables
// fixed. The timeline sampler is the same shape again: a nil
// *timeline.Timeline records nothing, and timeline.New is the only
// constructor that wires the column table and staging ring. The serving
// layer closes the set: a nil *serve.Server is inert (Register and
// Shutdown no-op, Start errors), and serve.New is the only constructor
// that wires the mux and the lifecycle state behind Start/Shutdown.
// Violations this catches:
//
//   - constructing obs.Counter/Gauge/Histogram/Registry/Tracer,
//     health.Engine, journal.Journal, timeline.Timeline, or
//     serve.Server with a composite literal or new(): a hand-rolled
//     metric is invisible to every exposition path (Snapshot and
//     Prometheus), a zero-value Registry panics on first use, a
//     zero-value Engine skips rule validation, a hand-rolled Journal
//     encodes bare ordinals, a hand-rolled Timeline sidesteps the
//     one constructor the wiring is written against, and a zero-value
//     Server has no mux — Register panics and Shutdown's idempotence
//     guard is gone.
//   - declaring a field, variable, or parameter of value (non-pointer)
//     guarded type: copying the embedded atomics/mutexes forks the state,
//     and a value can never be the nil no-op that uninstrumented runs rely
//     on.
//
// obs.Event, the snapshot types, health's plain-data types (Targets,
// Rule, SLOReport), journal's plain-data types (Record, Index, Summary),
// and timeline.Sample stay unrestricted.
var ObsNilSafe = &Analyzer{
	Name: "obsnilsafe",
	Doc:  "obs metrics and health engines must come from their constructors and be held by pointer",
	Contract: `obs guarded types (Registry metrics, health.Engine, journal
Journal, timeline.Timeline, serve.Server) rely on nil-receiver
no-ops for zero-cost disablement, so
they must be obtained from their constructors and held only as pointers:
no composite literals, no new(T), no value-typed fields or copies —
any of which bypasses the nil-safety contract and panics or splits state.
Example fixture: internal/analyzers/testdata/src/obsnilsafe/bad/bad.go`,
	Run: runObsNilSafe,
}

const (
	obsPath      = "dcnr/internal/obs"
	healthPath   = "dcnr/internal/obs/health"
	journalPath  = "dcnr/internal/obs/journal"
	timelinePath = "dcnr/internal/obs/timeline"
	servePath    = "dcnr/internal/serve"
)

// obsGuardedTypes are the types with construction and copy rules, per
// package. Constructors: Registry methods for metrics, NewRegistry,
// NewTracer, health.New, journal.New, timeline.New, serve.New.
var obsGuardedTypes = map[string]map[string]bool{
	obsPath: {
		"Counter": true, "Gauge": true, "Histogram": true,
		"Registry": true, "Tracer": true,
	},
	healthPath:   {"Engine": true},
	journalPath:  {"Journal": true},
	timelinePath: {"Timeline": true},
	servePath:    {"Server": true},
}

// isObsGuarded reports whether t is a guarded type, returning its
// package-qualified name (e.g. "obs.Counter", "health.Engine").
func isObsGuarded(t types.Type) (string, bool) {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	set := obsGuardedTypes[named.Obj().Pkg().Path()]
	if set == nil || !set[named.Obj().Name()] {
		return "", false
	}
	return named.Obj().Pkg().Name() + "." + named.Obj().Name(), true
}

func runObsNilSafe(pass *Pass) {
	if obsGuardedTypes[pass.Pkg.Path()] != nil {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if tv, ok := pass.Info.Types[n]; ok {
					if name, guarded := isObsGuarded(tv.Type); guarded {
						pass.Reportf(n.Pos(),
							"%s constructed directly: use %s so the value is registered and nil-safe",
							name, obsConstructor(name))
					}
				}
			case *ast.CallExpr:
				if isBuiltin(pass.Info, n, "new") && len(n.Args) == 1 {
					if tv, ok := pass.Info.Types[n.Args[0]]; ok && tv.IsType() {
						if name, guarded := isObsGuarded(tv.Type); guarded {
							pass.Reportf(n.Pos(),
								"new(%s) bypasses the constructor: use %s", name, obsConstructor(name))
						}
					}
				}
			}
			return true
		})
	}
	// Value-typed declarations: every defined field/var/param whose type is
	// a guarded type held by value.
	for ident, obj := range pass.Info.Defs {
		v, ok := obj.(*types.Var)
		if !ok {
			continue
		}
		if name, guarded := isObsGuarded(v.Type()); guarded {
			pass.Reportf(ident.Pos(),
				"%s holds %s by value: declare *%s (values copy internal state and can never be the nil no-op)",
				ident.Name, name, name)
		}
	}
}

func obsConstructor(name string) string {
	switch name {
	case "obs.Registry":
		return "obs.NewRegistry"
	case "obs.Tracer":
		return "obs.NewTracer"
	case "health.Engine":
		return "health.New"
	case "journal.Journal":
		return "journal.New"
	case "timeline.Timeline":
		return "timeline.New"
	case "serve.Server":
		return "serve.New"
	}
	return "Registry." + name[len("obs."):]
}
