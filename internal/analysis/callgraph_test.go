package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// TestBottomUpSummaries: summaries compose callees-first — a fact true
// of a leaf is visible two callers up.
func TestBottomUpSummaries(t *testing.T) {
	l := fixtureLoader(t)
	pkg := loadFixture(t, l, "lockorderfix")
	g := NewModule([]*Package{pkg}).Graph()

	// Summary: "transitively calls lockA".
	callsLockA := BottomUp(g, func(n *CGNode, get func(fn *types.Func) bool) bool {
		if n.Fn.Name() == "lockA" {
			return true
		}
		for _, e := range n.Out {
			if get(e.Callee.Fn) {
				return true
			}
		}
		return false
	}, func(a, b bool) bool { return a == b })

	want := map[string]bool{"lockA": true, "takeBA": true, "takeAB": false, "cThenD": false}
	for _, n := range g.Order {
		if expect, ok := want[n.Fn.Name()]; ok && callsLockA[n.Fn] != expect {
			t.Errorf("callsLockA[%s] = %v, want %v", n.Fn.Name(), callsLockA[n.Fn], expect)
		}
	}
}

// TestBuildCFG: branch/join and loop back-edge structure on a small
// hand-parsed function.
func TestBuildCFG(t *testing.T) {
	src := `package p
func f(c bool, xs []int) int {
	n := 0
	if c {
		n = 1
	} else {
		n = 2
	}
	for _, x := range xs {
		n += x
	}
	return n
}`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	decl := file.Decls[0].(*ast.FuncDecl)
	cfg := BuildCFG(decl.Body)

	if cfg.Entry == nil || len(cfg.Blocks) == 0 {
		t.Fatal("empty CFG")
	}
	// Entry holds the init assignment and the if condition, then
	// branches two ways.
	if got := len(cfg.Entry.Succs); got != 2 {
		t.Errorf("entry successors = %d, want 2 (then/else)", got)
	}
	// Some block must loop back (the range head is its body's
	// successor's successor).
	hasBackEdge := false
	seenIdx := make(map[*Block]int)
	for i, b := range cfg.Blocks {
		seenIdx[b] = i
	}
	for _, b := range cfg.Blocks {
		for _, s := range b.Succs {
			if seenIdx[s] <= seenIdx[b] && s != b {
				hasBackEdge = true
			}
		}
	}
	if !hasBackEdge {
		t.Error("range loop produced no back edge")
	}
}

// TestForwardSolver: constant reachability of held-style state through
// branches — after an if/else that locks on one arm only, the join
// must be the union (may-analysis).
func TestForwardSolver(t *testing.T) {
	src := `package p
import "sync"
func f(c bool, mu *sync.Mutex) {
	if c {
		mu.Lock()
	}
	work()
}
func work() {}`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "f.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	decl := file.Decls[1].(*ast.FuncDecl) // Decls[0] is the import block
	cfg := BuildCFG(decl.Body)

	type S = map[string]bool
	flow := FlowFuncs[S]{
		Transfer: func(n ast.Node, s S) S {
			out := make(S, len(s))
			for k := range s {
				out[k] = true
			}
			ast.Inspect(n, func(x ast.Node) bool {
				if call, ok := x.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Lock" {
						out["mu"] = true
					}
				}
				return true
			})
			return out
		},
		Join: func(a, b S) S {
			out := make(S)
			for k := range a {
				out[k] = true
			}
			for k := range b {
				out[k] = true
			}
			return out
		},
		Equal: func(a, b S) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if !b[k] {
					return false
				}
			}
			return true
		},
		Clone: func(s S) S {
			out := make(S, len(s))
			for k := range s {
				out[k] = true
			}
			return out
		},
	}
	sawWork := false
	ForwardVisit(cfg, make(S), flow, func(n ast.Node, s S) {
		ast.Inspect(n, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "work" {
					sawWork = true
					if !s["mu"] {
						t.Error("join after one-armed lock must include the lock (may-analysis)")
					}
				}
			}
			return true
		})
	})
	if !sawWork {
		t.Fatal("solver never reached the work() call")
	}
}
