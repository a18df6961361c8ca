package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"sort"
	"strings"
)

// lockOrderCheck enforces a global mutex-acquisition order: if lock
// class A is ever held while acquiring class B, no path anywhere in
// the module may hold B while acquiring A — a cycle in the
// acquisition-order graph is a potential deadlock even when every
// individual function is locally correct (the hazard class PRs 5–7
// grew: region locks vs compactMu vs the master's catalog lock, spread
// across functions and packages).
//
// Locks are abstracted to classes — "(hstore.Region).mu" names the mu
// field of every Region instance. Edges come from the held-set pass
// (lockAcquisitions), which lockcheck shares, so nesting hidden behind
// two levels of helpers is still seen. Three deliberate precision
// choices:
//
//   - go-statement spawns carry no held state (a fresh goroutine holds
//     nothing) and contribute nothing to a caller's may-acquire set;
//   - TryLock/TryRLock acquisitions never create an incoming edge
//     (a non-blocking acquire cannot deadlock) but do hold the lock
//     for outgoing edges;
//   - self-edges (one class nested under itself) are not reported:
//     instance-level order within a class (e.g. locking regions in
//     slice order) cannot be validated by a class-level abstraction.
type lockOrderCheck struct{}

func (lockOrderCheck) Name() string { return "lockorder" }
func (lockOrderCheck) Doc() string {
	return "the cross-module mutex acquisition-order graph is acyclic (no deadlock cycles)"
}

// lockAcquire classifies mutex methods: blocking acquires, conditional
// acquires, and releases. Read locks are the same hazard as write
// locks (two readers can still deadlock against two writers), so
// RLock == Lock here.
var (
	lockAcquires    = map[string]bool{"Lock": true, "RLock": true}
	lockTryAcquires = map[string]bool{"TryLock": true, "TryRLock": true}
	lockReleases    = map[string]bool{"Unlock": true, "RUnlock": true}
)

// netPrefix names the pseudo lock class a network/RPC call acquires in
// the held-set pass ("net:Client.Do"). Nothing ever holds one, so it
// has no outgoing edges and lockorder skips it; lockcheck reports
// every lock held into one.
const netPrefix = "net:"

// lockClassOp resolves a call to a sync.Mutex/RWMutex method into its
// lock class, the receiver expression it was called through, and the
// operation. ok is false for non-mutex calls and for locks with no
// stable class identity (local mutex variables).
func lockClassOp(pkg *Package, call *ast.CallExpr) (class, expr, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", "", false
	}
	fn, isFn := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", "", false
	}
	name := fn.Name()
	if !lockAcquires[name] && !lockTryAcquires[name] && !lockReleases[name] {
		return "", "", "", false
	}
	class = lockClass(pkg, sel.X)
	if class == "" {
		return "", "", "", false
	}
	return class, types.ExprString(sel.X), name, true
}

// lockClass names the lock's class: "(pkg.Type).field" for a mutex
// field, "pkg.var" for a package-level mutex, "" for locks with no
// cross-function identity (locals).
func lockClass(pkg *Package, expr ast.Expr) string {
	switch x := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		// field access: identity is the container type + field name.
		if tv, ok := pkg.Info.Types[x.X]; ok {
			if named := namedOf(tv.Type); named != nil {
				return fmt.Sprintf("(%s.%s).%s", named.Obj().Pkg().Name(), named.Obj().Name(), x.Sel.Name)
			}
		}
	case *ast.Ident:
		obj := pkg.Info.Uses[x]
		if obj == nil {
			obj = pkg.Info.Defs[x]
		}
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil {
			if v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Name() + "." + v.Name()
			}
			// Receiver with an embedded mutex: r.Lock() — class is the
			// receiver's type.
			if named := namedOf(v.Type()); named != nil {
				return fmt.Sprintf("(%s.%s).embedded", named.Obj().Pkg().Name(), named.Obj().Name())
			}
		}
	}
	return ""
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if ok && n.Obj().Pkg() != nil {
		return n
	}
	return nil
}

// lockHeld is the dataflow state: the lock classes that may be held at
// a program point, each mapped to the receiver expression it was taken
// through ("m.mu"), which findings name.
type lockHeld map[string]string

func (h lockHeld) clone() lockHeld { return maps.Clone(h) }

// names lists the held receiver expressions, sorted, for a message.
func (h lockHeld) names() string {
	return strings.Join(slices.Compact(slices.Sorted(maps.Values(h))), ", ")
}

var lockFlow = FlowFuncs[lockHeld]{
	Join: func(a, b lockHeld) lockHeld {
		out := a.clone()
		for k, v := range b {
			if _, ok := out[k]; !ok {
				out[k] = v
			}
		}
		return out
	},
	Equal: func(a, b lockHeld) bool {
		return maps.EqualFunc(a, b, func(string, string) bool { return true }) // classes only
	},
	Clone: lockHeld.clone,
}

// lockWalk interprets one shallow CFG node: acquires and releases
// mutate held in source order; onAcquire fires for blocking acquires
// and for network calls (the net pseudo class), with the pre-acquire
// held set, and onCall for static calls to module functions. Deferred
// releases are ignored (the lock stays held to function exit); go
// statements are skipped entirely (their bodies are separate scopes
// and their spawned callees run with an empty held set).
func lockWalk(pkg *Package, node ast.Node, held lockHeld, onAcquire func(class string, pos token.Pos), onCall func(fn *types.Func, pos token.Pos)) {
	deferred := false
	if d, ok := node.(*ast.DeferStmt); ok {
		deferred = true
		node = d.Call
	}
	if _, ok := node.(*ast.GoStmt); ok {
		return
	}
	skipLits(node, func(x ast.Node) bool {
		if _, ok := x.(*ast.GoStmt); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if class, expr, op, ok := lockClassOp(pkg, call); ok {
			switch {
			case lockAcquires[op]:
				if onAcquire != nil {
					onAcquire(class, call.Pos())
				}
				held[class] = expr
			case lockTryAcquires[op]:
				held[class] = expr // conditional acquire: no blocking edge in
			case lockReleases[op] && !deferred:
				delete(held, class)
			}
			return true
		}
		if desc, ok := netCall(pkg, call); ok && onAcquire != nil {
			onAcquire(netPrefix+desc, call.Pos())
		}
		if fn := calleeFunc(pkg, call); fn != nil && onCall != nil {
			onCall(fn, call.Pos())
		}
		return true
	})
}

// lockAcq is one acquisition of class to — a lock class or a net pseudo
// class — made while the held set was not empty: directly at pos, or
// inside the call to via there.
type lockAcq struct {
	held lockHeld
	to   string
	pos  token.Position
	via  *types.Func
}

// lockAcquisitions is the interprocedural held-set pass lockorder and
// lockcheck share, run once per Module. Each function's transitive
// may-acquire summary (lock and net classes) is folded bottom-up over
// the call graph — which attributes literal bodies to their
// declaration and marks go spawns — and a forward held-set flow over
// every scope's CFG then records each acquisition, direct or through a
// callee's summary, made under a held lock.
func lockAcquisitions(m *Module) []lockAcq {
	if m.acqsBuilt {
		return m.acqs
	}
	localAcq := make(map[*types.Func]lockHeld)
	for _, fs := range moduleScopes(m.Pkgs) {
		fn := fs.Fn()
		if fn == nil || fs.GoLit {
			continue
		}
		acq := localAcq[fn]
		if acq == nil {
			acq = make(lockHeld)
			localAcq[fn] = acq
		}
		for _, b := range BuildCFG(fs.Body).Blocks { // flow-insensitive: every node counts
			for _, n := range b.Nodes {
				lockWalk(fs.Pkg, n, make(lockHeld), func(class string, _ token.Pos) { acq[class] = "" }, nil)
			}
		}
	}
	mayAcquire := BottomUp(m.Graph(), func(n *CGNode, get func(*types.Func) lockHeld) lockHeld {
		out := localAcq[n.Fn].clone()
		if out == nil {
			out = make(lockHeld)
		}
		for _, e := range n.Out {
			if e.Kind == KindGo {
				continue
			}
			for k := range get(e.Callee.Fn) {
				out[k] = ""
			}
		}
		return out
	}, lockFlow.Equal)

	var out []lockAcq
	for _, fs := range moduleScopes(m.Pkgs) {
		flow := lockFlow
		flow.Transfer = func(n ast.Node, s lockHeld) lockHeld {
			s = s.clone()
			lockWalk(fs.Pkg, n, s, nil, nil)
			return s
		}
		ForwardVisit(BuildCFG(fs.Body), make(lockHeld), flow, func(n ast.Node, held lockHeld) {
			held = held.clone()
			lockWalk(fs.Pkg, n, held,
				func(class string, pos token.Pos) {
					if len(held) > 0 {
						out = append(out, lockAcq{held.clone(), class, fs.Pkg.Fset.Position(pos), nil})
					}
				},
				func(fn *types.Func, pos token.Pos) {
					if len(held) == 0 {
						return
					}
					snap := held.clone()
					for _, to := range slices.Sorted(maps.Keys(mayAcquire[fn.Origin()])) {
						out = append(out, lockAcq{snap, to, fs.Pkg.Fset.Position(pos), fn})
					}
				})
		})
	}
	m.acqs, m.acqsBuilt = out, true
	return out
}

// lockEdge is one observed ordering: `from` held while acquiring `to`.
type lockEdge struct {
	from, to string
	pos      token.Position
	via      string // "" for a direct acquire, callee name for a call edge
}

func (lockOrderCheck) Check(m *Module, report func(token.Position, string)) {
	// The first site of every (held, acquired) pair is its edge.
	edges := make(map[[2]string]lockEdge)
	for _, a := range lockAcquisitions(m) {
		if strings.HasPrefix(a.to, netPrefix) {
			continue
		}
		via := ""
		if a.via != nil {
			via = funcDisplay(a.via)
		}
		for from := range a.held {
			key := [2]string{from, a.to}
			if _, ok := edges[key]; !ok && from != a.to {
				edges[key] = lockEdge{from, a.to, a.pos, via}
			}
		}
	}

	// Cycle detection over the lock-class graph: an edge inside a
	// strongly connected component closes a cycle through its members.
	adj := make(map[string][]string)
	for key := range edges {
		adj[key[0]] = append(adj[key[0]], key[1])
	}
	nodes := slices.Sorted(maps.Keys(adj))
	for _, tos := range adj {
		slices.Sort(tos)
	}
	members := make(map[string][]string)
	for _, scc := range tarjan(nodes, func(n string) []string { return adj[n] }) {
		if len(scc) > 1 {
			slices.Sort(scc)
			for _, n := range scc {
				members[n] = scc
			}
		}
	}
	var cyclic []lockEdge
	for _, e := range edges {
		if slices.Contains(members[e.from], e.to) {
			cyclic = append(cyclic, e)
		}
	}
	sort.Slice(cyclic, func(i, j int) bool {
		a, b := cyclic[i], cyclic[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		return a.from+a.to < b.from+b.to
	})
	for _, e := range cyclic {
		what := fmt.Sprintf("acquires %s while holding %s", e.to, e.from)
		if e.via != "" {
			what = fmt.Sprintf("call to %s acquires %s while holding %s", e.via, e.to, e.from)
		}
		report(e.pos, fmt.Sprintf("lock order cycle: %s, but the reverse order also exists (cycle through %s) — pick one global order",
			what, strings.Join(members[e.from], " → ")))
	}
}
