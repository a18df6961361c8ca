package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
)

// ctxCheck enforces context threading. Every call to
// context.Background() or context.TODO() outside package main and the
// module root package is flagged: library code is never the top of a
// call stack, so minting a root context there cuts cancellation and
// deadlines exactly where they matter most — a departed client keeps
// burning scans and a gateway timeout stops meaning anything. A process
// entry point and the exported convenience surface are where root
// contexts are legitimately minted. The rare legitimate detachment
// elsewhere (an admin RPC owned by the process lifecycle, a bench
// harness that is its own top layer) carries a //pstorm:allow ctxcheck
// reason at the site.
//
// context.WithoutCancel is flagged everywhere — detaching lifetime is
// occasionally right (a singleflight leader must outlive the first
// caller) but never silently.
type ctxCheck struct{}

func (ctxCheck) Name() string { return "ctxcheck" }
func (ctxCheck) Doc() string {
	return "only package main and the module root mint root contexts; WithoutCancel needs a reason"
}

func (ctxCheck) Check(m *Module, report func(token.Position, string)) {
	for _, pkg := range m.Pkgs {
		mayRoot := pkg.Types.Name() == "main" || pkg.root
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeFunc(pkg, call)
				if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "context" {
					return true
				}
				switch callee.Name() {
				case "WithoutCancel":
					report(pkg.Fset.Position(call.Pos()),
						"context.WithoutCancel detaches the request lifetime — annotate //pstorm:allow ctxcheck <reason> if the detachment is intentional")
				case "Background", "TODO":
					if !mayRoot {
						report(pkg.Fset.Position(call.Pos()),
							fmt.Sprintf("context.%s() in package %s — only package main and the module root mint root contexts; accept a ctx from the caller or annotate //pstorm:allow ctxcheck <reason>", callee.Name(), pkg.Types.Name()))
					}
				}
				return true
			})
		}
	}
}
