package analyzers

import (
	"go/ast"
	"go/types"
)

// HeapLock targets the exact race class fixed in PR 2: a struct that owns
// both a mutex and a *des.Simulator (the remediation.Engine shape) mutated
// the simulator's event heap outside the mutex, so concurrent Submit calls
// corrupted the heap. The des kernel is deliberately unsynchronized — any
// type that shares a simulator across goroutines owns the locking.
//
// For every struct type declaring both a sync.Mutex/RWMutex field and a
// *des.Simulator field, each method on that type must hold the mutex (a
// lexically earlier <recv>.<mu>.Lock with no intervening non-deferred
// Unlock) at every call that mutates the simulator's heap or clock:
// Schedule, After, Cancel, Every, Run, Step, Halt, Reset.
//
// Function literals are skipped: closures handed to Schedule/After execute
// inside the single-threaded event loop, where the heap is safe to touch.
// Helper methods documented as "caller holds mu" should carry a
// //lint:allow heaplock comment with that reason.
var HeapLock = &Analyzer{
	Name: "heaplock",
	Doc:  "des.Simulator mutations on mutex-owning structs must hold the mutex",
	Contract: `In any struct declaring both a sync.Mutex/RWMutex field and a
*des.Simulator field, each method must hold the mutex (a lexically
earlier Lock with no intervening non-deferred Unlock) at every
<recv>.<sim>.Schedule/After/Cancel/Every/Run/Step/Halt/Reset call —
the PR-2 race class. Per-method and syntactic; helpers annotated
"//lint:allow heaplock caller holds mu" are instead verified
inter-procedurally by lockflow.
Example fixture: internal/analyzers/testdata/src/heaplock/bad/bad.go`,
	Run: runHeapLock,
}

// heapMutators are the des.Simulator methods that touch the event heap or
// clock and are therefore unsafe to call concurrently. Reset joined the
// set with the pooled free-list kernel: it recycles every node, so a
// racing Reset corrupts not just the heap but the pool's generation
// counters. Reserve and ScheduleReserved move the sequence counter, the
// pending count and the reservation bitmap.
var heapMutators = map[string]bool{
	"Schedule": true, "After": true, "Cancel": true, "Every": true,
	"Run": true, "Step": true, "Halt": true, "Reset": true,
	"Reserve": true, "ScheduleReserved": true,
}

const desPath = "dcnr/internal/des"

// lockedSimType describes one struct owning both a mutex and a simulator.
type lockedSimType struct {
	named     *types.Named
	mutexes   map[string]bool // field names of sync.Mutex/RWMutex type
	simFields map[string]bool // field names of type *des.Simulator
}

func runHeapLock(pass *Pass) {
	guarded := findLockedSimTypes(pass.Pkg)
	if len(guarded) == 0 {
		return
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Recv == nil || len(fn.Recv.List) != 1 {
				continue
			}
			recvType := baseNamed(pass.Info.TypeOf(fn.Recv.List[0].Type))
			if recvType == nil {
				continue
			}
			var target *lockedSimType
			for _, g := range guarded {
				if g.named.Obj() == recvType.Obj() {
					target = g
					break
				}
			}
			if target == nil || len(fn.Recv.List[0].Names) == 0 {
				continue
			}
			recvName := fn.Recv.List[0].Names[0].Name
			if recvName == "_" {
				continue
			}
			checkHeapLockMethod(pass, fn, recvName, target)
		}
	}
}

// findLockedSimTypes scans the package scope for struct types declaring
// both a mutex field and a *des.Simulator field.
func findLockedSimTypes(pkg *types.Package) []*lockedSimType {
	var out []*lockedSimType
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
		t := &lockedSimType{named: named, mutexes: map[string]bool{}, simFields: map[string]bool{}}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if isMutexType(f.Type()) {
				t.mutexes[f.Name()] = true
			}
			if isDesSimulatorPtr(f.Type()) {
				t.simFields[f.Name()] = true
			}
		}
		if len(t.mutexes) > 0 && len(t.simFields) > 0 {
			out = append(out, t)
		}
	}
	return out
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

func isDesSimulatorPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == desPath && named.Obj().Name() == "Simulator"
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

// checkHeapLockMethod walks the method body in source order, tracking
// whether the receiver's mutex is held, and flags simulator mutations at
// unheld points. The tracking is lexical: branches are visited in source
// order, a deferred Unlock keeps the lock held for the rest of the body,
// and function literals are not entered.
func checkHeapLockMethod(pass *Pass, fn *ast.FuncDecl, recvName string, t *lockedSimType) {
	held := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			// defer recv.mu.Unlock() releases at return; the lock stays
			// held for the remainder of the body.
			return false
		case *ast.CallExpr:
			field, method, ok := recvFieldCall(n, recvName)
			if !ok {
				return true
			}
			if t.mutexes[field] {
				switch method {
				case "Lock", "RLock":
					held = true
				case "Unlock", "RUnlock":
					held = false
				}
				return true
			}
			if t.simFields[field] && heapMutators[method] && !held {
				pass.Reportf(n.Pos(),
					"des.Simulator.%s on %s.%s without holding %s.%s: concurrent callers race on the event heap (lock first, or //lint:allow heaplock if the caller holds it)",
					method, t.named.Obj().Name(), field, recvName, firstKey(t.mutexes))
			}
		}
		return true
	})
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

func firstKey(m map[string]bool) string {
	best := ""
	for k := range m {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}
