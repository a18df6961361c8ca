package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural half of the analysis core: a
// whole-module call graph over go/types function objects. Nodes are
// the module's declared functions and methods; edges are static calls,
// go/defer spawns, and — for interfaces declared inside the module
// (core.KV, matcher.Store, dstore.MasterConn, ...) — dispatch edges to
// every module type that implements the called interface method.
// Function literals are attributed to their enclosing declaration:
// a call made inside a closure is an edge from the function that owns
// the closure, marked KindGo when the literal is launched by a go
// statement. Calls through plain function values stay unresolved;
// checkers that need soundness there over-approximate locally.

// CallKind classifies an edge by how the callee runs relative to the
// caller: a plain call or a deferred call runs on the caller's
// goroutine, a go edge does not — lock-order analysis must not carry
// held locks across a go edge.
type CallKind int

const (
	KindCall CallKind = iota
	KindGo
	KindDefer
)

// CallEdge is one resolved callee of a node: a static call, or a
// dispatch edge added by method-set resolution.
type CallEdge struct {
	Callee *CGNode
	Kind   CallKind
}

// CGNode is one declared function or method of the module.
type CGNode struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	Out  []*CallEdge
}

// CallGraph is the whole-module graph. Nodes is keyed by the declared
// (origin) *types.Func; Order lists nodes deterministically by source
// position.
type CallGraph struct {
	Nodes map[*types.Func]*CGNode
	Order []*CGNode
}

// Node returns the node for fn (resolving generic instances to their
// origin), or nil if fn is not declared in the module.
func (g *CallGraph) Node(fn *types.Func) *CGNode {
	if fn == nil {
		return nil
	}
	return g.Nodes[fn.Origin()]
}

func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Nodes: make(map[*types.Func]*CGNode)}
	// Pass 1: nodes for every declared function and method.
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[decl.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &CGNode{Fn: fn, Decl: decl, Pkg: pkg}
				g.Nodes[fn] = n
				g.Order = append(g.Order, n)
			}
		}
	}
	sort.Slice(g.Order, func(i, j int) bool {
		a, b := g.Order[i], g.Order[j]
		pa := a.Pkg.Fset.Position(a.Decl.Pos())
		pb := b.Pkg.Fset.Position(b.Decl.Pos())
		if pa.Filename != pb.Filename {
			return pa.Filename < pb.Filename
		}
		return pa.Line < pb.Line
	})

	impls := interfaceImplementers(pkgs)

	// Pass 2: edges.
	for _, n := range g.Order {
		if n.Decl.Body != nil {
			addEdges(g, n, n.Decl.Body, impls)
		}
	}
	return g
}

// addEdges walks one declaration body, attributing calls inside
// function literals to the declaration. kind tracking: a call directly
// under a go/defer statement — or any call inside a literal launched
// by a go statement — carries that kind.
func addEdges(g *CallGraph, n *CGNode, body ast.Node, impls map[*types.Interface][]types.Type) {
	var walk func(node ast.Node, kind CallKind)
	walk = func(node ast.Node, kind CallKind) {
		ast.Inspect(node, func(x ast.Node) bool {
			switch st := x.(type) {
			case *ast.GoStmt:
				// The spawned call (and a spawned literal's whole body)
				// runs on another goroutine.
				walk(st.Call, KindGo)
				return false
			case *ast.DeferStmt:
				walkCall(g, n, st.Call, KindDefer, impls)
				for _, arg := range st.Call.Args {
					walk(arg, kind)
				}
				if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
					// A deferred literal's body runs at return on the
					// caller's goroutine: plain edges.
					walk(lit.Body, KindCall)
				}
				return false
			case *ast.CallExpr:
				walkCall(g, n, st, kind, impls)
				return true
			}
			return true
		})
	}
	walk(body, KindCall)
}

func walkCall(g *CallGraph, n *CGNode, call *ast.CallExpr, kind CallKind, impls map[*types.Interface][]types.Type) {
	if callee := g.Node(calleeFunc(n.Pkg, call)); callee != nil {
		addEdge(n, callee, kind)
	}
	// Interface dispatch: resolve the called method against every
	// module type implementing the (module-declared) interface.
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection, ok := n.Pkg.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return
	}
	recv := selection.Recv()
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for declared, users := range impls {
		if !types.Identical(declared, iface) {
			continue
		}
		for _, t := range users {
			obj, _, _ := types.LookupFieldOrMethod(t, true, nil, sel.Sel.Name)
			if m, ok := obj.(*types.Func); ok {
				if callee := g.Node(m); callee != nil {
					addEdge(n, callee, kind)
				}
			}
		}
	}
}

func addEdge(from, to *CGNode, kind CallKind) {
	for _, e := range from.Out {
		if e.Callee == to && e.Kind == kind {
			return
		}
	}
	from.Out = append(from.Out, &CallEdge{Callee: to, Kind: kind})
}

// interfaceImplementers maps every non-empty interface declared in the
// module to the module types (or pointers to them) that implement it.
// Interfaces from outside the module (io.Writer, http.Handler, ...)
// are deliberately excluded: resolving io.Writer against every Write
// method in the tree would drown the graph in false reachability.
func interfaceImplementers(pkgs []*Package) map[*types.Interface][]types.Type {
	var ifaces []*types.Interface
	var named []types.Type
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			t := tn.Type()
			if iface, ok := t.Underlying().(*types.Interface); ok {
				if iface.NumMethods() > 0 {
					ifaces = append(ifaces, iface)
				}
				continue
			}
			named = append(named, t)
		}
	}
	out := make(map[*types.Interface][]types.Type, len(ifaces))
	for _, iface := range ifaces {
		for _, t := range named {
			if types.Implements(t, iface) {
				out[iface] = append(out[iface], t)
			} else if pt := types.NewPointer(t); types.Implements(pt, iface) {
				out[iface] = append(out[iface], pt)
			}
		}
	}
	return out
}

// SCCs returns the graph's strongly connected components in bottom-up
// (callees before callers) order — the order per-function summaries
// must be computed in. Tarjan's algorithm emits components in exactly
// this order.
func (g *CallGraph) SCCs() [][]*CGNode {
	index := make(map[*CGNode]int)
	low := make(map[*CGNode]int)
	onStack := make(map[*CGNode]bool)
	var stack []*CGNode
	var out [][]*CGNode
	next := 0

	var strongconnect func(n *CGNode)
	strongconnect = func(n *CGNode) {
		index[n] = next
		low[n] = next
		next++
		stack = append(stack, n)
		onStack[n] = true
		for _, e := range n.Out {
			w := e.Callee
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[n] {
					low[n] = low[w]
				}
			} else if onStack[w] && index[w] < low[n] {
				low[n] = index[w]
			}
		}
		if low[n] == index[n] {
			var scc []*CGNode
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == n {
					break
				}
			}
			out = append(out, scc)
		}
	}
	for _, n := range g.Order {
		if _, seen := index[n]; !seen {
			strongconnect(n)
		}
	}
	return out
}

// BottomUp computes a summary per function, callees first, iterating
// each strongly connected component (mutual recursion) to a fixpoint.
// get returns the zero summary for functions outside the module.
func BottomUp[S any](g *CallGraph, compute func(n *CGNode, get func(*types.Func) S) S, eq func(a, b S) bool) map[*types.Func]S {
	out := make(map[*types.Func]S)
	get := func(fn *types.Func) S {
		if fn != nil {
			fn = fn.Origin()
		}
		return out[fn]
	}
	for _, scc := range g.SCCs() {
		for {
			changed := false
			for _, n := range scc {
				s := compute(n, get)
				if !eq(s, out[n.Fn]) {
					out[n.Fn] = s
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
	return out
}

// funcDisplay renders a function for findings: "(*dstore.Client).Put"
// or "gateway.NewGateway".
func funcDisplay(fn *types.Func) string {
	if fn == nil {
		return "<unknown>"
	}
	name := fn.FullName()
	// FullName is fully package-path qualified; trim the module prefix
	// for readability.
	name = strings.ReplaceAll(name, "pstorm/internal/", "")
	return strings.ReplaceAll(name, "pstorm/", "")
}
