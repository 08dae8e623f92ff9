package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// LockFlow targets the race class fixed in PR 2: a struct that owns both a
// mutex and a *des.Simulator (the remediation.Engine shape) mutated the
// simulator's event heap outside the mutex, so concurrent Submit calls
// corrupted the heap. The des kernel is deliberately unsynchronized — any
// type that shares a simulator across goroutines owns the locking.
//
// A must-hold dataflow over each guarded method's CFG learns the lock
// state at every statement, and a fixpoint over the call graph propagates
// "this method can be entered with the mutex NOT held". Unlocked entry
// points seed it: exported methods (external callers hold nothing), and
// unexported methods that have no call site (no caller proves the lock
// is held), escape as a method value (anyone may call it later), or are
// called other than by a same-type method on its own receiver (a plain
// function, another type's method, another instance, a closure that is
// not a DES handler, or a go statement's new goroutine holds none of this
// instance's mutex). Other
// unexported methods inherit it from non-closure call sites where the
// caller had not locked. A mutation is reported only when an unlocked
// path actually reaches it — with the caller chain named in the message —
// so a helper documented as "caller holds mu" is verified against its
// actual callers, and a correctly confined helper stays silent.
//
// Scope and conventions (DESIGN §12): only methods of structs owning both
// a mutex and a guarded shared resource are analyzed. Two resource kinds
// are guarded: *des.Simulator, and *serve.Server, whose Register and Start
// calls belong to the single-goroutine construction phase (serve's
// lifecycle contract), so a struct sharing a Server behind a mutex must
// hold it around them. Plain functions driving a resource single-threaded
// (setup code, the sweep runner) are out of scope. Mutations are matched
// type-wise on ANY expression of a guarded type, so `sim := e.sim;
// sim.After(...)` is seen. Closures and method values handed straight to
// a des mutator as its handler run inside the single-threaded DES event
// loop: call sites inside them do not transmit unlocked reachability, and
// a helper reached only that way is exempt.
var LockFlow = &ModuleAnalyzer{
	Name: "lockflow",
	Doc:  "guarded-resource mutations (DES heap, serve.Server lifecycle) must be unreachable from call paths that do not hold the owning mutex",
	Contract: `On any struct owning both a mutex and a guarded shared resource
(*des.Simulator or *serve.Server), every call path from an unlocked entry
point to a resource mutation — a des heap mutation (Schedule/After/Run/
Step/Reset/Reserve/ScheduleReserved) or a serve lifecycle call
(Register/Start), on ANY expression of the guarded type, aliases
included — must acquire the mutex along the way (the PR-2 race class).
Unlocked entry points are exported methods, and unexported methods with
no call site, that escape as a method value, or that are called from
anywhere but a same-type method on its own receiver (a plain function,
another type, another instance, a closure that is not a des handler) or
started by a go statement.
lockflow follows calls between methods: a helper annotated "caller holds
mu" is verified against its actual callers and reported with the
unlocked caller chain if the claim is false. Closures and method values
passed as a des mutator's handler are exempt (they run on the
single-threaded DES event loop).
Example fixtures: internal/analyzers/testdata/src/lockflow/bad/bad.go,
internal/analyzers/testdata/src/heaplock/bad/bad.go`,
	Run: runLockFlow,
}

const desPath = "dcnr/internal/des"

// heapMutators are the des.Simulator methods that touch the event heap or
// clock and are therefore unsafe to call concurrently. Reset recycles
// every pooled node, so a racing Reset corrupts the free list as well as
// the heap. Reserve and ScheduleReserved move the sequence counter, the
// pending count and the reservation bitmap.
var heapMutators = map[string]bool{
	"Schedule": true, "After": true, "Run": true, "Step": true, "Reset": true,
	"Reserve": true, "ScheduleReserved": true,
}

// serveMutators are the serve.Server methods confined to the single-
// goroutine construction phase: Register appends to an unsynchronized
// route table and Start transitions the lifecycle, so a struct sharing a
// Server across goroutines must confine both behind its mutex.
var serveMutators = map[string]bool{"Register": true, "Start": true}

// resourceKind is one guarded shared-resource field type: owning it
// together with a mutex puts a struct in lockflow's scope, and the
// mutator set names the calls that must be reached locked.
type resourceKind struct {
	pkgPath, typeName string
	mutators          map[string]bool
	consequence       string // why an unlocked mutation is a bug
}

var lockflowKinds = []resourceKind{
	{desPath, "Simulator", heapMutators, "concurrent callers race on the event heap"},
	{servePath, "Server", serveMutators, "Register and Start are unsynchronized construction-phase calls"},
}

// display renders the kind as it appears in diagnostics, e.g.
// "des.Simulator".
func (k *resourceKind) display() string {
	return k.pkgPath[strings.LastIndexByte(k.pkgPath, '/')+1:] + "." + k.typeName
}

// lockSite is one resource mutation inside a guarded method, with the
// lock state the must-hold analysis proved at that point.
type lockSite struct {
	call   *ast.CallExpr
	kind   *resourceKind
	method string // the mutator name on the guarded type
	held   bool
}

// lockInfo is one guarded method's lockflow summary.
type lockInfo struct {
	node      *CGNode
	typ       *types.TypeName // the receiver type
	mutexes   map[string]bool // the receiver type's mutex field names
	mutexName string
	recvName  string
	sites     []lockSite
	// heldAt maps each outgoing call edge to whether the receiver's
	// mutex is (must-)held at the call site.
	heldAt map[*CGEdge]bool
	// unlockedReach: some call path enters this method with the mutex
	// not held; via is one witness chain of caller names.
	unlockedReach bool
	via           string
}

func runLockFlow(pass *ModulePass) error {
	m := pass.Mod
	g := m.Graph()

	guarded := make(map[*types.TypeName]map[string]bool)
	for _, pkg := range m.Pkgs {
		findLockedResTypes(pkg.Types, guarded)
	}
	if len(guarded) == 0 {
		return nil
	}

	infos := make(map[*CGNode]*lockInfo)
	for _, n := range g.Order {
		if li := analyzeLockMethod(n, guarded); li != nil {
			infos[n] = li
		}
	}

	// Unlocked-reachability fixpoint, seeded by the entry points. An
	// unheld, non-closure call edge between guarded methods transmits it.
	refs := findLockRefs(g, infos)
	for _, li := range infos {
		name := li.node.Fn.Name()
		switch {
		case li.node.Fn.Exported():
			li.unlockedReach, li.via = true, name
		case refs.escaped[li.node]:
			li.unlockedReach, li.via = true, name+" (method value)"
		case len(li.node.In) == 0 && !refs.handlers[li.node]:
			li.unlockedReach, li.via = true, name+" (no call site)"
		default:
			for _, e := range li.node.In {
				if e.Go {
					li.unlockedReach, li.via = true, e.From.Fn.Name()+" (go) -> "+name
					break
				}
				if e.InClosure && !e.InHandler {
					li.unlockedReach, li.via = true, e.From.Fn.Name()+" (closure) -> "+name
					break
				}
				if !e.InClosure && !li.carriesLock(e, infos[e.From]) {
					li.unlockedReach, li.via = true, e.From.Fn.Name()+" -> "+name
					break
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Order {
			li := infos[n]
			if li == nil || !li.unlockedReach {
				continue
			}
			for _, e := range n.Out {
				if e.InClosure || li.heldAt[e] {
					continue
				}
				cal := infos[e.To]
				if cal == nil || cal.unlockedReach {
					continue
				}
				cal.unlockedReach = true
				cal.via = li.via + " -> " + cal.node.Fn.Name()
				changed = true
			}
		}
	}

	for _, n := range g.Order {
		li := infos[n]
		if li == nil || !li.unlockedReach {
			continue
		}
		for _, s := range li.sites {
			if s.held {
				continue
			}
			pass.Reportf(s.call.Pos(),
				"%s.%s runs without holding %s.%s on the unlocked path %s: %s (lock first, or keep every caller on a locked path)",
				s.kind.display(), s.method, li.recvName, li.mutexName, li.via, s.kind.consequence)
		}
	}
	return nil
}

// carriesLock reports whether call edge e, from the method summarized by
// from (nil for a plain function or an unguarded type's method), can carry
// the caller's lock into li: only a call on the caller's own receiver,
// between methods of the same guarded type, holds the mutex li needs.
func (li *lockInfo) carriesLock(e *CGEdge, from *lockInfo) bool {
	if from == nil || from.typ != li.typ {
		return false
	}
	sel, ok := ast.Unparen(e.Site.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && id.Name == from.recvName
}

// lockRefs records the guarded methods referenced as a value — a method
// value or method expression anywhere but the callee position of a call.
type lockRefs struct {
	// escaped holds those referenced other than as a des handler: whoever
	// holds the value may call it without the lock.
	escaped map[*CGNode]bool
	// handlers holds those passed as an argument of a des heap mutation
	// (e.sim.After(d, e.tick)): they run on the event loop, like a closure.
	handlers map[*CGNode]bool
}

// findLockRefs walks every function body once for method values; call
// sites inside closures and go statements are classified on the call
// graph's edges.
func findLockRefs(g *CallGraph, infos map[*CGNode]*lockInfo) lockRefs {
	refs := lockRefs{escaped: make(map[*CGNode]bool), handlers: make(map[*CGNode]bool)}
	for _, n := range g.Order {
		info := n.Pkg.Info
		callee := make(map[ast.Expr]bool)
		handler := make(map[ast.Expr]bool)
		ast.Inspect(n.Decl.Body, func(c ast.Node) bool {
			switch c := c.(type) {
			case *ast.CallExpr:
				callee[ast.Unparen(c.Fun)] = true
				if isHeapMutation(info, c) {
					for _, arg := range c.Args {
						handler[ast.Unparen(arg)] = true
					}
				}
			case *ast.SelectorExpr:
				fn, _ := info.Uses[c.Sel].(*types.Func)
				to := g.Lookup(fn)
				switch {
				case to == nil || infos[to] == nil || callee[c]:
				case handler[c]:
					refs.handlers[to] = true
				default:
					refs.escaped[to] = true
				}
			}
			return true
		})
	}
	return refs
}

// isHeapMutation reports whether call mutates a des.Simulator's event heap;
// its function arguments are event handlers.
func isHeapMutation(info *types.Info, call *ast.CallExpr) bool {
	kind, _, ok := resMutatorCall(info, call)
	return ok && kind.pkgPath == desPath
}

// analyzeLockMethod computes one guarded method's mutation sites and
// per-call-edge lock state via the must-hold dataflow, or returns nil for
// functions that are not guarded-type methods.
func analyzeLockMethod(n *CGNode, guarded map[*types.TypeName]map[string]bool) *lockInfo {
	info := n.Pkg.Info
	if n.Decl.Recv == nil || len(n.Decl.Recv.List) != 1 || len(n.Decl.Recv.List[0].Names) == 0 {
		return nil
	}
	named := baseNamed(info.TypeOf(n.Decl.Recv.List[0].Type))
	if named == nil {
		return nil
	}
	mutexes := guarded[named.Obj()]
	if mutexes == nil {
		return nil
	}
	recvName := n.Decl.Recv.List[0].Names[0].Name
	if recvName == "_" {
		return nil
	}
	li := &lockInfo{
		node: n, typ: named.Obj(), mutexes: mutexes, mutexName: firstKey(mutexes),
		recvName: recvName, heldAt: make(map[*CGEdge]bool),
	}

	cfg := n.CFG()
	flow := Flow[int]{
		Boundary: func() int { return 0 },
		Init:     func() int { return 1 }, // top for a must-analysis
		Transfer: func(b *Block, in int) int {
			held := in != 0
			for _, nd := range b.Nodes {
				held = li.transferNode(nd, held, nil)
			}
			if held {
				return 1
			}
			return 0
		},
		Join:  func(a, b int) int { return a & b },
		Equal: func(a, b int) bool { return a == b },
	}
	heldIn := Solve(cfg, flow)

	siteOf := make(map[*ast.CallExpr]*CGEdge, len(n.Out))
	for _, e := range n.Out {
		siteOf[e.Site] = e
	}
	for _, b := range cfg.Blocks {
		held := heldIn[b] != 0
		for _, nd := range b.Nodes {
			held = li.transferNode(nd, held, func(call *ast.CallExpr, h bool) {
				if e, ok := siteOf[call]; ok {
					li.heldAt[e] = h
				}
				if kind, method, ok := resMutatorCall(info, call); ok {
					li.sites = append(li.sites, lockSite{call: call, kind: kind, method: method, held: h})
				}
			})
		}
	}
	return li
}

// transferNode threads the held flag through one CFG node, invoking visit
// (if non-nil) for every call expression outside function literals with
// the held state at that point. Deferred statements are skipped entirely:
// a deferred Unlock releases at return, so the lock stays held for the
// remainder of the body.
func (li *lockInfo) transferNode(nd ast.Node, held bool, visit func(*ast.CallExpr, bool)) bool {
	ast.Inspect(nd, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if field, method, ok := recvFieldCall(c, li.recvName); ok && li.mutexes[field] {
				switch method {
				case "Lock", "RLock":
					held = true
				case "Unlock", "RUnlock":
					held = false
				}
				return true
			}
			if visit != nil {
				visit(c, held)
			}
		}
		return true
	})
	return held
}

// recvFieldCall matches calls of the form <recv>.<field>.<method>(...) and
// returns the field and method names.
func recvFieldCall(call *ast.CallExpr, recvName string) (field, method string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	inner, okSel := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	id, okSel := ast.Unparen(inner.X).(*ast.Ident)
	if !okSel || id.Name != recvName {
		return "", "", false
	}
	return inner.Sel.Name, sel.Sel.Name, true
}

// resMutatorCall matches a call of a guarded-kind mutator on any
// expression of the guarded type — the receiver field, a local alias, a
// parameter.
func resMutatorCall(info *types.Info, call *ast.CallExpr) (*resourceKind, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return nil, "", false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil, "", false
	}
	for i := range lockflowKinds {
		k := &lockflowKinds[i]
		if named.Obj().Pkg().Path() == k.pkgPath && named.Obj().Name() == k.typeName &&
			k.mutators[sel.Sel.Name] {
			return k, sel.Sel.Name, true
		}
	}
	return nil, "", false
}

// findLockedResTypes scans the package scope for struct types declaring
// both a mutex field and a guarded-resource pointer field, and records
// each in guarded with its mutex field names.
func findLockedResTypes(pkg *types.Package, guarded map[*types.TypeName]map[string]bool) {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		mutexes := make(map[string]bool)
		owns := false
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if isMutexType(f.Type()) {
				mutexes[f.Name()] = true
			}
			owns = owns || isGuardedResPtr(f.Type())
		}
		if len(mutexes) > 0 && owns {
			guarded[named.Obj()] = mutexes
		}
	}
}

// isGuardedResPtr reports whether t is a pointer to any lockflow-guarded
// resource type.
func isGuardedResPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	for i := range lockflowKinds {
		k := &lockflowKinds[i]
		if named.Obj().Pkg().Path() == k.pkgPath && named.Obj().Name() == k.typeName {
			return true
		}
	}
	return false
}

func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false
	}
	return named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex"
}

func baseNamed(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func firstKey(m map[string]bool) string {
	best := ""
	for k := range m {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}
