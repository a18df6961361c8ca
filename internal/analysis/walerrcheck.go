package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
)

// walErrCheck flags discarded error returns from durability-path
// calls: WAL appends, flushes, fsyncs, persistence saves, compactions,
// truncations. A swallowed error there means an acked write that never
// reached disk — the exact failure class the hstore WAL exists to
// prevent. A call counts as durability-path when its name, or its
// receiver type's name, mentions the WAL/flush/sync/persist family (or
// is exactly "Log", hstore's framed append log) and it returns an error; the error is "discarded" when the call is a
// bare statement, deferred, spawned with go, or its error slot is
// assigned to blank.
type walErrCheck struct{}

func (walErrCheck) Name() string { return "walerrcheck" }
func (walErrCheck) Doc() string {
	return "no discarded errors from WAL/persist/flush/fsync-path calls"
}

var persistName = regexp.MustCompile(`(?i)wal|flush|fsync|sync|persist|save|compact|truncate|^log$`)

func (walErrCheck) Check(m *Module, report func(token.Position, string)) {
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch st := n.(type) {
				case *ast.ExprStmt:
					checkDiscard(pkg, st.X, report)
				case *ast.DeferStmt:
					checkDiscard(pkg, st.Call, report)
				case *ast.GoStmt:
					checkDiscard(pkg, st.Call, report)
				case *ast.AssignStmt:
					checkBlankAssign(pkg, st, report)
				}
				return true
			})
		}
	}
}

// persistCall returns a description of the callee if it is an
// error-returning durability-path call.
func persistCall(pkg *Package, e ast.Expr) (string, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	fn := calleeFunc(pkg, call)
	if fn == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !returnsError(sig) {
		return "", false
	}
	desc := fn.Name()
	match := persistName.MatchString(fn.Name())
	if sig.Recv() != nil {
		if named := recvTypeName(sig); named != nil {
			desc = named.Name() + "." + fn.Name()
			// sync.Mutex et al. have no error returns, so a type-name
			// match here ("wal", "sstable"…) is a persistence type.
			match = match || persistName.MatchString(named.Name())
		}
	}
	return desc, match
}

func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

func checkDiscard(pkg *Package, e ast.Expr, report func(token.Position, string)) {
	if desc, ok := persistCall(pkg, e); ok {
		report(pkg.Fset.Position(e.Pos()),
			fmt.Sprintf("discarded error from durability call %s — handle or return it (or annotate //pstorm:allow walerrcheck <reason>)", desc))
	}
}

// checkBlankAssign flags `_ = w.Sync()` style discards: a single
// durability call on the right with every error slot blanked.
func checkBlankAssign(pkg *Package, st *ast.AssignStmt, report func(token.Position, string)) {
	if len(st.Rhs) != 1 {
		return
	}
	desc, ok := persistCall(pkg, st.Rhs[0])
	if !ok {
		return
	}
	// The error is the last result; with n results it lands in the last
	// assignment slot.
	last := st.Lhs[len(st.Lhs)-1]
	if id, isIdent := last.(*ast.Ident); isIdent && id.Name == "_" {
		report(pkg.Fset.Position(st.Pos()),
			fmt.Sprintf("discarded error from durability call %s — handle or return it (or annotate //pstorm:allow walerrcheck <reason>)", desc))
	}
}
