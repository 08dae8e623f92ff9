package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SimTaint is the inter-procedural successor of simdeterminism: instead of
// banning wall-clock call sites by syntax inside simulation packages, it
// tracks the VALUES those sources produce — through locals, fields,
// returns, and (via per-function summaries propagated over the call graph)
// across function boundaries — and reports only when a tainted value
// reaches a deterministic-output sink: the journal's record writer, the sev
// store, or the sweep report's ordered JSONL writers. Wall-clock telemetry
// that stays in metrics and traces is therefore fine without any
// directive; a time.Now() laundered through three helpers into the
// journal encoder is not.
//
// Taint bits:
//   - wall: values derived from time.Now/Since/Until/… or math/rand.
//   - order: values built in map-iteration order (range over a map);
//     passing the value to sort.*/slices.Sort* clears the bit.
//
// Per-function summaries record, for each result, which parameter's taint
// it propagates and whether it is intrinsically tainted; and which
// parameters flow into a sink (so callers of a sink-wrapping helper are
// checked too, with the witness chain named in the message).
//
// Limits (DESIGN §12): closures are not tracked as values, calls through
// stored function values resolve to nothing, and unknown (non-module)
// callees are modeled as "result = union of argument taint; pointer-shaped
// arguments become tainted" — conservative for fmt.Fprintf(&buf, tainted).
var SimTaint = &ModuleAnalyzer{
	Name: "simtaint",
	Doc:  "track wall-clock/PRNG/map-order taint from source to deterministic-output sinks",
	Contract: `Values derived from the wall clock (time.Now/Since/Until, timers),
math/rand, or map-iteration order must never reach a deterministic-output
sink: journal Journal.Record, sev Store.Add, or the sweep report's ordered
JSONL writers. Taint follows the value — through locals, struct fields,
returns, and call chains via per-function summaries — so telemetry that
stays in metrics/traces needs no directive, while a time.Now() laundered
through helpers into an encoder is reported at the sink call with the
witness chain. Sorting (sort.*/slices.Sort*) clears map-order taint.
Example fixture: internal/analyzers/testdata/src/simtaint/bad/bad.go`,
	Run: runSimTaint,
}

const (
	taintWall  uint32 = 1 << 0
	taintOrder uint32 = 1 << 1
	// Parameter slots start at bit 2; a function can track its first
	// maxTaintParams parameters (receiver counts as slot 0).
	taintParamShift        = 2
	maxTaintParams         = 30
	taintIntrinsic  uint32 = taintWall | taintOrder
)

func paramTaintBit(slot int) uint32 {
	if slot < 0 || slot >= maxTaintParams {
		return 0
	}
	return 1 << (taintParamShift + slot)
}

// taintSink is one deterministic-output entry point. Arg is the index
// into call.Args (the receiver is matched by recv, not by index).
type taintSink struct {
	pkg, recv, name string
	arg             int
}

var taintSinks = []taintSink{
	{pkg: "dcnr/internal/obs/journal", recv: "Journal", name: "Record", arg: 0},
	{pkg: "dcnr/internal/sev", recv: "Store", name: "Add", arg: 0},
	{pkg: "dcnr/internal/sweep", recv: "orderedWriter", name: "write", arg: 1},
	{pkg: "dcnr/internal/sweep", recv: "orderedWriter", name: "writeRaw", arg: 1},
}

func matchTaintSink(fn *types.Func) *taintSink {
	if fn == nil || fn.Pkg() == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	recv := ""
	if sig.Recv() != nil {
		if named := baseNamed(sig.Recv().Type()); named != nil {
			recv = named.Obj().Name()
		}
	}
	for i := range taintSinks {
		s := &taintSinks[i]
		if fn.Pkg().Path() == s.pkg && fn.Name() == s.name && recv == s.recv {
			return s
		}
	}
	return nil
}

// taintSummary is one function's inter-procedural fact sheet.
type taintSummary struct {
	// ret[i] is the taint mask of result i: intrinsic bits plus the
	// parameter bits whose taint the result propagates.
	ret []uint32
	// sink is the set of parameter bits that flow into a sink inside
	// this function (or a callee of it).
	sink uint32
	// via names the call chain from this function down to the sink, for
	// diagnostics at the eventual tainted call site.
	via string
}

func (s *taintSummary) equal(o *taintSummary) bool {
	if s.sink != o.sink || len(s.ret) != len(o.ret) {
		return false
	}
	for i := range s.ret {
		if s.ret[i] != o.ret[i] {
			return false
		}
	}
	return true
}

// taintFacts maps in-scope objects to their taint mask. Zero-mask entries
// are never stored, so map equality is lattice equality.
type taintFacts map[types.Object]uint32

func (f taintFacts) clone() taintFacts {
	out := make(taintFacts, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

func (f taintFacts) set(obj types.Object, mask uint32) {
	if obj == nil {
		return
	}
	if mask == 0 {
		delete(f, obj)
	} else {
		f[obj] = mask
	}
}

func (f taintFacts) merge(obj types.Object, mask uint32) {
	if obj != nil && mask != 0 {
		f[obj] |= mask
	}
}

func taintJoin(a, b taintFacts) taintFacts {
	out := a.clone()
	for k, v := range b {
		out[k] |= v
	}
	return out
}

func taintEqual(a, b taintFacts) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func runSimTaint(pass *ModulePass) error {
	g := pass.Mod.Graph()
	sums := computeTaintSummaries(g)
	// Report pass: replay each function once against the final summaries.
	for _, n := range g.Order {
		analyzeTaintFunc(n, sums, pass)
	}
	return nil
}

// computeTaintSummaries runs the inter-procedural summary fixpoint over
// the call graph. Masks only grow, so this converges; the iteration bound
// is a backstop against a lattice bug, not a tuning knob.
func computeTaintSummaries(g *CallGraph) map[*types.Func]*taintSummary {
	sums := make(map[*types.Func]*taintSummary, len(g.Order))
	for _, n := range g.Order {
		sums[n.Fn] = &taintSummary{ret: make([]uint32, resultCount(n.Fn))}
	}
	for iter := 0; iter < 12; iter++ {
		changed := false
		for _, n := range g.Order {
			next := analyzeTaintFunc(n, sums, nil)
			if !next.equal(sums[n.Fn]) {
				sums[n.Fn] = next
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return sums
}

func resultCount(fn *types.Func) int {
	if sig, ok := fn.Type().(*types.Signature); ok {
		return sig.Results().Len()
	}
	return 0
}

// taintState carries one function's analysis context through the transfer
// functions.
type taintState struct {
	node   *CGNode
	info   *types.Info
	sums   map[*types.Func]*taintSummary
	sum    *taintSummary
	report *ModulePass
	// results are the named result objects, for naked returns.
	results []types.Object
}

// analyzeTaintFunc solves the intra-procedural taint flow for one function
// and returns its refreshed summary. With report set it also emits
// diagnostics at tainted sink calls.
func analyzeTaintFunc(n *CGNode, sums map[*types.Func]*taintSummary, report *ModulePass) *taintSummary {
	st := &taintState{
		node:   n,
		info:   n.Pkg.Info,
		sums:   sums,
		sum:    &taintSummary{ret: make([]uint32, resultCount(n.Fn))},
		report: report,
	}
	st.sum.sink = 0

	boundary := make(taintFacts)
	slot := 0
	seed := func(names []*ast.Ident) {
		for _, name := range names {
			if obj := st.info.Defs[name]; obj != nil {
				boundary.set(obj, paramTaintBit(slot))
			}
			slot++
		}
	}
	if n.Decl.Recv != nil {
		for _, f := range n.Decl.Recv.List {
			seed(f.Names)
			if len(f.Names) == 0 {
				slot++
			}
		}
	}
	if n.Decl.Type.Params != nil {
		for _, f := range n.Decl.Type.Params.List {
			seed(f.Names)
			if len(f.Names) == 0 {
				slot++
			}
		}
	}
	if n.Decl.Type.Results != nil {
		for _, f := range n.Decl.Type.Results.List {
			for _, name := range f.Names {
				if obj := st.info.Defs[name]; obj != nil {
					st.results = append(st.results, obj)
				}
			}
		}
	}

	cfg := n.CFG()
	flow := Flow[taintFacts]{
		Boundary: func() taintFacts { return boundary },
		Init:     func() taintFacts { return make(taintFacts) },
		Transfer: func(b *Block, in taintFacts) taintFacts {
			out := in.clone()
			for _, nd := range b.Nodes {
				st.apply(nd, out, false)
			}
			return out
		},
		Join:  taintJoin,
		Equal: taintEqual,
	}
	in := Solve(cfg, flow)

	// Collection pass over the solved facts: summaries (returns, sink
	// contributions) and, when reporting, diagnostics.
	for _, b := range cfg.Blocks {
		facts := in[b].clone()
		for _, nd := range b.Nodes {
			st.apply(nd, facts, true)
		}
	}
	return st.sum
}

// apply transfers one CFG node over facts. With collect set it also folds
// returns and sink hits into the summary (and diagnostics, if reporting).
func (st *taintState) apply(n ast.Node, facts taintFacts, collect bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		st.applyAssign(n, facts, collect)
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				if len(vs.Values) == 1 && len(vs.Names) > 1 {
					masks := st.evalMulti(vs.Values[0], len(vs.Names), facts, collect)
					for i, name := range vs.Names {
						facts.set(st.info.Defs[name], masks[i])
					}
					continue
				}
				for i, name := range vs.Names {
					mask := uint32(0)
					if i < len(vs.Values) {
						mask = st.eval(vs.Values[i], facts, collect)
					}
					facts.set(st.info.Defs[name], mask)
				}
			}
		}
	case *ast.RangeStmt:
		xMask := st.eval(n.X, facts, collect)
		mask := xMask
		if tv, ok := st.info.Types[n.X]; ok {
			if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
				mask |= taintOrder
			}
		}
		for _, lhs := range []ast.Expr{n.Key, n.Value} {
			if lhs == nil {
				continue
			}
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				obj := st.info.Defs[id]
				if obj == nil {
					obj = st.info.Uses[id]
				}
				facts.set(obj, mask)
			} else if root := rootIdent(lhs); root != nil {
				facts.merge(st.lookupObj(root), mask)
			}
		}
	case *ast.ReturnStmt:
		if collect {
			st.collectReturn(n, facts)
		} else {
			for _, r := range n.Results {
				st.eval(r, facts, false)
			}
		}
	case *ast.ExprStmt:
		st.eval(n.X, facts, collect)
	case *ast.SendStmt:
		st.eval(n.Chan, facts, collect)
		st.eval(n.Value, facts, collect)
	case *ast.GoStmt:
		st.eval(n.Call, facts, collect)
	case *ast.DeferStmt:
		st.eval(n.Call, facts, collect)
	case *ast.IncDecStmt:
		st.eval(n.X, facts, collect)
	case *ast.LabeledStmt:
		// Lowered by the CFG builder; nothing to transfer.
	case ast.Expr:
		st.eval(n, facts, collect)
	}
}

func (st *taintState) collectReturn(n *ast.ReturnStmt, facts taintFacts) {
	if len(n.Results) == 0 {
		for i, obj := range st.results {
			if i < len(st.sum.ret) {
				st.sum.ret[i] |= facts[obj]
			}
		}
		return
	}
	if len(n.Results) == 1 && len(st.sum.ret) > 1 {
		masks := st.evalMulti(n.Results[0], len(st.sum.ret), facts, true)
		for i := range st.sum.ret {
			st.sum.ret[i] |= masks[i]
		}
		return
	}
	for i, r := range n.Results {
		mask := st.eval(r, facts, true)
		if i < len(st.sum.ret) {
			st.sum.ret[i] |= mask
		}
	}
}

func (st *taintState) applyAssign(n *ast.AssignStmt, facts taintFacts, collect bool) {
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		masks := st.evalMulti(n.Rhs[0], len(n.Lhs), facts, collect)
		for i, lhs := range n.Lhs {
			st.assignTo(lhs, masks[i], facts, n.Tok == token.DEFINE)
		}
		return
	}
	for i, rhs := range n.Rhs {
		mask := st.eval(rhs, facts, collect)
		if i >= len(n.Lhs) {
			continue
		}
		if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
			// Compound assignment (+= etc.) keeps the old taint.
			mask |= st.eval(n.Lhs[i], facts, false)
		}
		st.assignTo(n.Lhs[i], mask, facts, n.Tok == token.DEFINE)
	}
}

// assignTo updates facts for one lvalue: strong update for a plain
// identifier, weak (taint-adding) update through fields, indexes, and
// dereferences — writing a clean value into one field does not launder
// the rest of the struct.
func (st *taintState) assignTo(lhs ast.Expr, mask uint32, facts taintFacts, define bool) {
	switch v := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if v.Name == "_" {
			return
		}
		obj := st.info.Defs[v]
		if obj == nil {
			obj = st.info.Uses[v]
		}
		facts.set(obj, mask)
	default:
		if root := rootIdent(lhs); root != nil {
			facts.merge(st.lookupObj(root), mask)
		}
	}
	_ = define
}

func (st *taintState) lookupObj(id *ast.Ident) types.Object {
	if obj := st.info.Uses[id]; obj != nil {
		return obj
	}
	return st.info.Defs[id]
}

// eval computes the taint mask of an expression, applying call side
// effects (pointer-argument tainting for unknown callees, sort clearing)
// to facts as it goes.
func (st *taintState) eval(e ast.Expr, facts taintFacts, collect bool) uint32 {
	if e == nil {
		return 0
	}
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		return facts[st.lookupObj(v)]
	case *ast.BasicLit, *ast.FuncLit:
		return 0
	case *ast.SelectorExpr:
		// Qualified identifier (pkg.Var) or field read: taint of the root.
		if root := rootIdent(v); root != nil {
			return facts[st.lookupObj(root)]
		}
		return st.eval(v.X, facts, collect)
	case *ast.IndexExpr:
		return st.eval(v.X, facts, collect) | st.eval(v.Index, facts, collect)
	case *ast.SliceExpr:
		return st.eval(v.X, facts, collect)
	case *ast.StarExpr:
		return st.eval(v.X, facts, collect)
	case *ast.UnaryExpr:
		return st.eval(v.X, facts, collect)
	case *ast.BinaryExpr:
		return st.eval(v.X, facts, collect) | st.eval(v.Y, facts, collect)
	case *ast.KeyValueExpr:
		return st.eval(v.Value, facts, collect)
	case *ast.CompositeLit:
		mask := uint32(0)
		for _, elt := range v.Elts {
			mask |= st.eval(elt, facts, collect)
		}
		return mask
	case *ast.TypeAssertExpr:
		return st.eval(v.X, facts, collect)
	case *ast.CallExpr:
		masks := st.evalCall(v, 1, facts, collect)
		return masks[0]
	}
	return 0
}

// evalMulti evaluates an expression expected to yield n values (a
// multi-result call, or a map/type-assert comma-ok form).
func (st *taintState) evalMulti(e ast.Expr, n int, facts taintFacts, collect bool) []uint32 {
	if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
		return st.evalCall(call, n, facts, collect)
	}
	masks := make([]uint32, n)
	m := st.eval(e, facts, collect)
	for i := range masks {
		masks[i] = m
	}
	return masks
}

// wallSourcePkgs are packages whose every call yields wall-clock taint.
var wallSourcePkgs = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

// evalCall models one call: source detection, summary expansion for
// module callees, the conservative unknown-callee rule, sink checks, and
// sort-clears. It returns n result masks.
func (st *taintState) evalCall(call *ast.CallExpr, n int, facts taintFacts, collect bool) []uint32 {
	masks := make([]uint32, n)
	if n == 0 {
		masks = make([]uint32, 1)
	}

	// Type conversions pass taint through.
	if fun := ast.Unparen(call.Fun); len(call.Args) == 1 {
		if tv, ok := st.info.Types[fun]; ok && tv.IsType() {
			m := st.eval(call.Args[0], facts, collect)
			for i := range masks {
				masks[i] = m
			}
			return masks
		}
	}

	// Builtins: append/copy propagate, len/cap/make/new are clean.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isB := st.info.Uses[id].(*types.Builtin); isB {
			switch id.Name {
			case "append":
				m := uint32(0)
				for _, a := range call.Args {
					m |= st.eval(a, facts, collect)
				}
				masks[0] = m
			case "min", "max":
				m := uint32(0)
				for _, a := range call.Args {
					m |= st.eval(a, facts, collect)
				}
				masks[0] = m
			default:
				for _, a := range call.Args {
					st.eval(a, facts, collect)
				}
			}
			return masks
		}
	}

	callee := calleeFunc(st.info, call)

	// Wall-clock and PRNG sources.
	if callee != nil && callee.Pkg() != nil {
		path := callee.Pkg().Path()
		if path == "time" && bannedTimeFuncs[callee.Name()] {
			for _, a := range call.Args {
				st.eval(a, facts, collect)
			}
			for i := range masks {
				masks[i] = taintWall
			}
			return masks
		}
		if wallSourcePkgs[path] {
			for _, a := range call.Args {
				st.eval(a, facts, collect)
			}
			for i := range masks {
				masks[i] = taintWall
			}
			return masks
		}
		// Sorting establishes a deterministic order: clear the order bit
		// on the sorted value.
		if path == "sort" || path == "slices" {
			for _, a := range call.Args {
				st.eval(a, facts, collect)
				if root := rootIdent(a); root != nil {
					if obj := st.lookupObj(root); obj != nil && facts[obj]&taintOrder != 0 {
						facts.set(obj, facts[obj]&^taintOrder)
					}
				}
			}
			return masks
		}
	}

	// Argument masks aligned to parameter slots (receiver = slot 0).
	argMasks, slotOf := st.callSlots(call, callee, facts, collect)

	// Sink checks.
	if sink := matchTaintSink(callee); sink != nil && sink.arg < len(call.Args) {
		mask := st.eval(call.Args[sink.arg], facts, false)
		st.sinkHit(call, callee, mask, "", collect)
	}
	if callee != nil {
		if sum, ok := st.sums[callee]; ok && sum.sink != 0 {
			mask := uint32(0)
			for slot, m := range argMasks {
				if sum.sink&paramTaintBit(slot) != 0 {
					mask |= m
				}
			}
			st.sinkHit(call, callee, mask, sum.via, collect)
		}
	}

	// Result masks.
	if callee != nil {
		if sum, ok := st.sums[callee]; ok {
			for i := range masks {
				if i < len(sum.ret) {
					masks[i] = st.expandMask(sum.ret[i], argMasks)
				}
			}
			return masks
		}
	}

	// Unknown callee (stdlib or unresolved): results carry the union of
	// argument taint, and writable (pointer-shaped) arguments absorb it —
	// fmt.Fprintf(&buf, time.Now()) taints buf.
	union := uint32(0)
	for _, m := range argMasks {
		union |= m
	}
	for i, a := range call.Args {
		_ = i
		if !writableArg(st.info, a) {
			continue
		}
		if root := rootIdent(a); root != nil {
			facts.merge(st.lookupObj(root), union)
		}
	}
	_ = slotOf
	for i := range masks {
		masks[i] = union
	}
	return masks
}

// callSlots evaluates the call's receiver and arguments into
// parameter-slot-aligned masks. slotOf maps call.Args index → slot.
func (st *taintState) callSlots(call *ast.CallExpr, callee *types.Func, facts taintFacts, collect bool) ([]uint32, []int) {
	var masks []uint32
	hasRecv := false
	if callee != nil {
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
			hasRecv = true
		}
	}
	if hasRecv {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			masks = append(masks, st.eval(sel.X, facts, collect))
		} else {
			masks = append(masks, 0)
		}
	}
	slotOf := make([]int, len(call.Args))
	for i, a := range call.Args {
		slotOf[i] = len(masks)
		masks = append(masks, st.eval(a, facts, collect))
	}
	return masks, slotOf
}

// expandMask substitutes the caller's argument masks into a summary mask:
// intrinsic bits pass through, parameter bits become the corresponding
// argument's mask (which may itself contain the caller's parameter bits —
// that is what propagates taint up a call chain).
func (st *taintState) expandMask(mask uint32, argMasks []uint32) uint32 {
	out := mask & taintIntrinsic
	for slot, m := range argMasks {
		if mask&paramTaintBit(slot) != 0 {
			out |= m
		}
	}
	return out
}

// sinkHit processes a tainted mask arriving at a sink call: intrinsic
// taint is reported here; parameter taint promotes this function into a
// sink wrapper (recorded in the summary so callers are checked).
func (st *taintState) sinkHit(call *ast.CallExpr, callee *types.Func, mask uint32, via string, collect bool) {
	if !collect || mask == 0 {
		return
	}
	chain := callee.FullName()
	if via != "" {
		chain += " via " + via
	}
	if mask&taintIntrinsic != 0 && st.report != nil {
		st.report.Reportf(call.Pos(),
			"%s value reaches deterministic output sink %s: simulated results must not depend on it (derive from sim time / simrand, or //lint:allow simtaint for intentional wall-clock fields)",
			taintKinds(mask), chain)
	}
	if param := mask &^ taintIntrinsic; param != 0 {
		st.sum.sink |= param
		if st.sum.via == "" {
			st.sum.via = chain
		}
	}
}

func taintKinds(mask uint32) string {
	var kinds []string
	if mask&taintWall != 0 {
		kinds = append(kinds, "wall-clock/PRNG-derived")
	}
	if mask&taintOrder != 0 {
		kinds = append(kinds, "map-iteration-ordered")
	}
	if len(kinds) == 0 {
		return "tainted"
	}
	return strings.Join(kinds, " and ")
}

// writableArg reports whether an argument could be mutated by the callee:
// an explicit address-of, or a pointer/slice/map/chan-typed value.
func writableArg(info *types.Info, a ast.Expr) bool {
	if u, ok := ast.Unparen(a).(*ast.UnaryExpr); ok && u.Op == token.AND {
		return true
	}
	tv, ok := info.Types[a]
	if !ok || tv.Type == nil {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface:
		return true
	}
	return false
}
