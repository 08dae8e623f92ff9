package analyzers

// callgraph.go builds the module-wide call graph the inter-procedural
// analyzers (lockflow, simtaint) propagate summaries over. Edges are
// resolved two ways: statically, through calleeFunc (direct calls and
// method calls on concrete receivers), and dynamically, by expanding
// interface method calls to every module-defined concrete type that
// implements the interface. Calls through plain function values, stored
// closures, and reflection are NOT resolved — a documented limit of the
// engine (DESIGN §12); the codebase's closure-heavy spots (DES event
// handlers) are instead covered by the InClosure edge flag, which lets
// analyzers treat "only called from inside a closure" as a distinct,
// conventionally-guarded context.

import (
	"fmt"
	"go/ast"
	"go/types"
	"io"
	"sort"
	"strings"
)

// CGNode is one module function (or method) with a body.
type CGNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	// Out and In are the resolved call edges, in deterministic
	// (position-sorted) order.
	Out []*CGEdge
	In  []*CGEdge

	cfg *CFG
}

// CFG lowers (and caches) the node's body as a control-flow graph.
func (n *CGNode) CFG() *CFG {
	if n.cfg == nil {
		n.cfg = BuildCFG(n.Decl)
	}
	return n.cfg
}

// Name is the node's fully qualified name, e.g.
// "dcnr/internal/des.New" or "(*dcnr/internal/des.Simulator).After".
func (n *CGNode) Name() string { return n.Fn.FullName() }

// CGEdge is one resolved call site.
type CGEdge struct {
	From, To *CGNode
	Site     *ast.CallExpr
	// Dynamic marks edges resolved through an interface method set
	// rather than a statically-known callee: the call MAY reach To.
	Dynamic bool
	// InClosure marks call sites that sit lexically inside a function
	// literal within From's body — the call runs when the closure runs,
	// not when From does.
	InClosure bool
	// InHandler marks InClosure sites inside a function literal handed
	// to a des heap mutation as its event handler (nested literals
	// included, unless a go statement starts them): the call runs on the
	// single-threaded DES event loop.
	InHandler bool
	// Go marks the call of a go statement (`go e.flush()`): it runs on a
	// new goroutine, holding none of the caller's locks.
	Go bool
}

// CallGraph is the module call graph.
type CallGraph struct {
	Nodes map[*types.Func]*CGNode
	// Order lists the nodes sorted by source position, so iteration over
	// the graph is deterministic.
	Order []*CGNode
}

// Lookup returns the node for fn, or nil if fn has no body in the module.
func (g *CallGraph) Lookup(fn *types.Func) *CGNode {
	if fn == nil {
		return nil
	}
	return g.Nodes[fn]
}

func buildCallGraph(m *Module) *CallGraph {
	g := &CallGraph{Nodes: make(map[*types.Func]*CGNode)}

	// Pass 1: one node per declared function body.
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &CGNode{Fn: fn, Decl: fd, Pkg: pkg}
				g.Nodes[fn] = node
				g.Order = append(g.Order, node)
			}
		}
	}
	sort.Slice(g.Order, func(i, j int) bool {
		pi := m.Fset.Position(g.Order[i].Decl.Pos())
		pj := m.Fset.Position(g.Order[j].Decl.Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Line < pj.Line
	})

	// Concrete module types, for expanding interface calls.
	var concrete []types.Type
	for _, pkg := range m.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			concrete = append(concrete, named, types.NewPointer(named))
		}
	}

	// Pass 2: resolve call sites. The go statements and des handler
	// arguments are marked before Inspect descends into them.
	for _, node := range g.Order {
		info := node.Pkg.Info
		spawned := make(map[ast.Node]bool) // go statement calls and their literals
		handler := make(map[ast.Node]bool) // literals passed to a des heap mutation
		var walk func(n ast.Node, inClosure, inHandler bool)
		walk = func(n ast.Node, inClosure, inHandler bool) {
			ast.Inspect(n, func(c ast.Node) bool {
				switch x := c.(type) {
				case *ast.GoStmt:
					spawned[x.Call] = true
					spawned[ast.Unparen(x.Call.Fun)] = true
				case *ast.FuncLit:
					walk(x.Body, true, handler[x] || inHandler && !spawned[x])
					return false
				case *ast.CallExpr:
					if isHeapMutation(info, x) {
						for _, arg := range x.Args {
							handler[ast.Unparen(arg)] = true
						}
					}
					proto := CGEdge{From: node, Site: x, InClosure: inClosure, InHandler: inHandler, Go: spawned[x]}
					addCallEdges(g, proto, info, concrete)
				}
				return true
			})
		}
		walk(node.Decl.Body, false, false)
	}

	// In-edges, in Out-edge (hence deterministic) order.
	for _, node := range g.Order {
		for _, e := range node.Out {
			e.To.In = append(e.To.In, e)
		}
	}
	return g
}

// addCallEdges resolves one call site, proto.Site, into zero or more
// edges, each a copy of proto with To set.
func addCallEdges(g *CallGraph, proto CGEdge, info *types.Info, concrete []types.Type) {
	from, call := proto.From, proto.Site
	if fn := calleeFunc(info, call); fn != nil {
		// calleeFunc resolves interface method calls to the interface's
		// own *types.Func, which has no body node — fall through to
		// dynamic expansion for those.
		if to := g.Nodes[fn]; to != nil {
			e := proto
			e.To = to
			from.Out = append(from.Out, &e)
			return
		}
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return
	}
	iface, ok := selection.Recv().Underlying().(*types.Interface)
	if !ok {
		return
	}
	name := sel.Sel.Name
	seen := make(map[*CGNode]bool)
	for _, t := range concrete {
		if !types.Implements(t, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(t, true, from.Pkg.Types, name)
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		// A type and its pointer both implementing the interface resolve
		// to the same method; add the edge once.
		if to := g.Nodes[fn]; to != nil && !seen[to] {
			seen[to] = true
			e := proto
			e.To, e.Dynamic = to, true
			from.Out = append(from.Out, &e)
		}
	}
}

// FindNodes returns the nodes whose qualified name contains pattern
// (exact match wins if present), for the driver's -graph flag. Matching
// also runs against a receiver-normalized form — "(*pkg.T).m" as
// "pkg.T.m" — so the natural spelling "T.m" finds pointer methods.
func (g *CallGraph) FindNodes(pattern string) []*CGNode {
	normalize := func(s string) string {
		return strings.NewReplacer("(*", "", "(", "", ")", "").Replace(s)
	}
	var exact, partial []*CGNode
	for _, n := range g.Order {
		name, norm := n.Name(), normalize(n.Name())
		switch {
		case name == pattern || norm == pattern:
			exact = append(exact, n)
		case strings.Contains(name, pattern) || strings.Contains(norm, pattern):
			partial = append(partial, n)
		}
	}
	if len(exact) > 0 {
		return exact
	}
	return partial
}

// WriteDOT writes the call-graph neighborhood of the nodes matching
// pattern — every node within depth call hops, in either direction — in
// Graphviz DOT form. Dynamic edges render dashed, closure-borne edges
// dotted.
func (g *CallGraph) WriteDOT(w io.Writer, pattern string, depth int) error {
	roots := g.FindNodes(pattern)
	if len(roots) == 0 {
		return fmt.Errorf("no function matching %q in call graph (%d nodes)", pattern, len(g.Order))
	}
	dist := make(map[*CGNode]int)
	frontier := roots
	for _, n := range roots {
		dist[n] = 0
	}
	for d := 1; d <= depth && len(frontier) > 0; d++ {
		var next []*CGNode
		for _, n := range frontier {
			for _, e := range n.Out {
				if _, seen := dist[e.To]; !seen {
					dist[e.To] = d
					next = append(next, e.To)
				}
			}
			for _, e := range n.In {
				if _, seen := dist[e.From]; !seen {
					dist[e.From] = d
					next = append(next, e.From)
				}
			}
		}
		frontier = next
	}

	if _, err := fmt.Fprintf(w, "digraph callgraph {\n  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n"); err != nil {
		return err
	}
	for _, n := range g.Order {
		if _, ok := dist[n]; !ok {
			continue
		}
		attrs := ""
		if dist[n] == 0 {
			attrs = ", style=filled, fillcolor=lightyellow"
		}
		if _, err := fmt.Fprintf(w, "  %q [label=%q%s];\n", n.Name(), n.Name(), attrs); err != nil {
			return err
		}
	}
	for _, n := range g.Order {
		if _, ok := dist[n]; !ok {
			continue
		}
		for _, e := range n.Out {
			if _, ok := dist[e.To]; !ok {
				continue
			}
			var style []string
			if e.Dynamic {
				style = append(style, "style=dashed")
			}
			if e.InClosure {
				style = append(style, "style=dotted", "label=closure")
			}
			attr := ""
			if len(style) > 0 {
				attr = " [" + strings.Join(style, ", ") + "]"
			}
			if _, err := fmt.Fprintf(w, "  %q -> %q%s;\n", n.Name(), e.To.Name(), attr); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
