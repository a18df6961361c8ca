package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// leakCheck ties every goroutine spawned in a long-lived server
// package to a lifecycle: the chaos harness's leak budget and the
// fleet gateway's restart story both assume Close actually quiesces
// the process. A `go` statement is judged on its own body — the
// literal it launches, or the declaration of the one named function it
// calls; what that body's callees do is not evidence (a stop path three
// calls down does not stop this loop). It passes when the body:
//
//   - calls Done on a sync.WaitGroup (someone Waits for it);
//   - receives or selects on a stop-style channel (chan struct{}, or a
//     name like stop/done/quit/closing/shutdown);
//   - uses a context.Context — calls a method on one or passes one
//     into a call — so cancellation reaches it;
//
// or is a provably bounded one-shot: no loops or selects, and every
// channel send targets a channel created with a buffer in the
// enclosing function (the hedged-read pattern: the goroutine runs one
// operation, delivers without blocking, and exits).
//
// Scope is limited to the packages that run for the process lifetime —
// hstore, dstore, gateway, cluster — because a short-lived tool
// leaking a goroutine until exit is not a bug worth a directive.
type leakCheck struct{}

func (leakCheck) Name() string { return "leakcheck" }
func (leakCheck) Doc() string {
	return "goroutines in server packages are tied to a WaitGroup, stop channel, or context"
}

var leakScopePkgs = []string{"hstore", "dstore", "gateway", "cluster", "leakfix"}

func leakScoped(pkgPath string) bool {
	for _, s := range leakScopePkgs {
		if strings.Contains(pkgPath, s) {
			return true
		}
	}
	return false
}

var stopChanName = regexp.MustCompile(`(?i)stop|done|quit|clos|shutdown|exit`)

func (leakCheck) Check(m *Module, report func(token.Position, string)) {
	for _, pkg := range m.Pkgs {
		if !leakScoped(pkg.Path) {
			continue
		}
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				ast.Inspect(decl.Body, func(n ast.Node) bool {
					if st, ok := n.(*ast.GoStmt); ok && !goStmtTied(m, pkg, decl, st) {
						report(pkg.Fset.Position(st.Pos()),
							"goroutine is not tied to a WaitGroup, stop channel, or context — Close cannot reap it (bound its lifetime or annotate //pstorm:allow leakcheck <reason>)")
					}
					return true
				})
			}
		}
	}
}

// goStmtTied decides one go statement: a literal's body is inspected in
// place (with the bounded-one-shot escape hatch), a named module
// function's declaration stands in for it.
func goStmtTied(m *Module, pkg *Package, decl *ast.FuncDecl, st *ast.GoStmt) bool {
	if lit, ok := ast.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
		return lifecycleEvidence(pkg, lit.Body) || boundedOneShot(pkg, decl, lit)
	}
	// go rs.heartbeatLoop(): the callee's own body must observe.
	if n := m.Graph().Node(calleeFunc(pkg, st.Call)); n != nil && n.Decl.Body != nil && lifecycleEvidence(n.Pkg, n.Decl.Body) {
		return true
	}
	// A context handed to the spawned call ties it too.
	for _, a := range st.Call.Args {
		if isContextExpr(pkg, a) {
			return true
		}
	}
	return false
}

// lifecycleEvidence inspects a body (including nested literals — a
// closure's observation still runs on this goroutine unless it is
// itself go-spawned, and over-approximating there is the safe
// direction) for any lifecycle tie.
func lifecycleEvidence(pkg *Package, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && stopStyleChan(pkg, x.X) {
				found = true
			}
		case *ast.CallExpr:
			if fn := calleeFunc(pkg, x); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync" && fn.Name() == "Done" {
				found = true // wg.Done()
			}
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && isContextExpr(pkg, sel.X) {
				found = true // ctx.Done()/Err()/Deadline()...
			}
			for _, a := range x.Args {
				if isContextExpr(pkg, a) {
					found = true // cancellation propagates into the call
				}
			}
		}
		return !found
	})
	return found
}

// stopStyleChan reports whether a received-from expression looks like a
// lifecycle channel: element type struct{} (the universal stop-signal
// shape) or a stop-family name.
func stopStyleChan(pkg *Package, e ast.Expr) bool {
	if tv, ok := pkg.Info.Types[e]; ok {
		if ch, ok := tv.Type.Underlying().(*types.Chan); ok {
			if st, ok := ch.Elem().Underlying().(*types.Struct); ok && st.NumFields() == 0 {
				return true
			}
		}
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return stopChanName.MatchString(x.Name)
	case *ast.SelectorExpr:
		return stopChanName.MatchString(x.Sel.Name)
	}
	return false
}

func isContextExpr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	return ok && tv.Type != nil && tv.Type.String() == "context.Context"
}

// boundedOneShot recognizes the hedged-request idiom: a literal with no
// loops or selects whose every send targets a channel made with a
// buffer in the enclosing function — it performs one operation,
// delivers its result without blocking, and exits.
func boundedOneShot(pkg *Package, decl *ast.FuncDecl, lit *ast.FuncLit) bool {
	ok := true
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if !ok {
			return false
		}
		switch x := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SelectStmt:
			ok = false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				ok = false // a receive can block forever
			}
		case *ast.SendStmt:
			if !bufferedChanVar(pkg, decl, x.Chan) {
				ok = false
			}
		}
		return ok
	})
	return ok
}

// bufferedChanVar reports whether e names a variable that the
// enclosing declaration creates with make(chan T, n>0) (a non-constant
// capacity counts — the site chose a buffer deliberately).
func bufferedChanVar(pkg *Package, decl *ast.FuncDecl, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || pkg.Info.Uses[id] == nil {
		return false
	}
	buffered := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return !buffered
		}
		for i, l := range as.Lhs {
			lid, ok := l.(*ast.Ident)
			if !ok || i >= len(as.Rhs) || pkg.Info.ObjectOf(lid) != pkg.Info.Uses[id] {
				continue
			}
			if call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr); ok && len(call.Args) == 2 {
				if fid, ok := call.Fun.(*ast.Ident); ok && fid.Name == "make" {
					buffered = true
				}
			}
		}
		return !buffered
	})
	return buffered
}
