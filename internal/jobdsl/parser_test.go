package jobdsl

import (
	"errors"
	"strings"
	"testing"
)

func TestParseFunctionDecls(t *testing.T) {
	prog, err := Parse(`
func map(key, value) { emit(key, value); }
func reduce(key, values) { return; }
func helper() { return 1; }
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Funcs) != 3 {
		t.Fatalf("got %d funcs, want 3", len(prog.Funcs))
	}
	if got := prog.Order; got[0] != "map" || got[1] != "reduce" || got[2] != "helper" {
		t.Errorf("declaration order = %v", got)
	}
	if p := prog.Funcs["map"].Params; len(p) != 2 || p[0] != "key" || p[1] != "value" {
		t.Errorf("map params = %v", p)
	}
	if p := prog.Funcs["helper"].Params; len(p) != 0 {
		t.Errorf("helper params = %v, want none", p)
	}
}

func TestParseDuplicateFunction(t *testing.T) {
	_, err := Parse(`func f() {} func f() {}`)
	if err == nil || !strings.Contains(err.Error(), "duplicate function") {
		t.Errorf("err = %v, want duplicate-function error", err)
	}
}

func TestParseStatements(t *testing.T) {
	prog, err := Parse(`
func f(x) {
	let a = 1;
	a = a + 1;
	if (a > 1) { emit("big", a); } else { emit("small", a); }
	while (a < 10) { a = a + 1; }
	for (let i = 0; i < 3; i = i + 1) { a = a + i; }
	return a;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	body := prog.Funcs["f"].Body
	wantTypes := []string{"*jobdsl.LetStmt", "*jobdsl.AssignStmt", "*jobdsl.IfStmt",
		"*jobdsl.WhileStmt", "*jobdsl.ForStmt", "*jobdsl.ReturnStmt"}
	if len(body) != len(wantTypes) {
		t.Fatalf("got %d statements, want %d", len(body), len(wantTypes))
	}
	for i, s := range body {
		if got := typeName(s); got != wantTypes[i] {
			t.Errorf("stmt %d = %s, want %s", i, got, wantTypes[i])
		}
	}
}

func typeName(v interface{}) string {
	switch v.(type) {
	case *LetStmt:
		return "*jobdsl.LetStmt"
	case *AssignStmt:
		return "*jobdsl.AssignStmt"
	case *IfStmt:
		return "*jobdsl.IfStmt"
	case *WhileStmt:
		return "*jobdsl.WhileStmt"
	case *ForStmt:
		return "*jobdsl.ForStmt"
	case *ReturnStmt:
		return "*jobdsl.ReturnStmt"
	case *ExprStmt:
		return "*jobdsl.ExprStmt"
	default:
		return "?"
	}
}

func TestParseElseIfChain(t *testing.T) {
	prog, err := Parse(`
func f(x) {
	if (x > 2) { emit("a", 1); } else if (x > 1) { emit("b", 1); } else { emit("c", 1); }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	ifStmt := prog.Funcs["f"].Body[0].(*IfStmt)
	if len(ifStmt.Else) != 1 {
		t.Fatalf("else arm has %d statements, want 1 (the nested if)", len(ifStmt.Else))
	}
	if _, ok := ifStmt.Else[0].(*IfStmt); !ok {
		t.Errorf("else arm = %T, want *IfStmt", ifStmt.Else[0])
	}
}

func TestParsePrecedence(t *testing.T) {
	prog, err := Parse(`func f() { return 1 + 2 * 3 < 10 && true || false; }`)
	if err != nil {
		t.Fatal(err)
	}
	// Top of the tree must be || (lowest precedence).
	ret := prog.Funcs["f"].Body[0].(*ReturnStmt)
	or, ok := ret.Expr.(*BinaryExpr)
	if !ok || or.Op != "||" {
		t.Fatalf("top operator = %v, want ||", ret.Expr)
	}
	and, ok := or.L.(*BinaryExpr)
	if !ok || and.Op != "&&" {
		t.Fatalf("second level = %v, want &&", or.L)
	}
	cmp, ok := and.L.(*BinaryExpr)
	if !ok || cmp.Op != "<" {
		t.Fatalf("third level = %v, want <", and.L)
	}
	plus, ok := cmp.L.(*BinaryExpr)
	if !ok || plus.Op != "+" {
		t.Fatalf("fourth level = %v, want +", cmp.L)
	}
	if mul, ok := plus.R.(*BinaryExpr); !ok || mul.Op != "*" {
		t.Fatalf("multiplication should bind tighter than +: %v", plus.R)
	}
}

func TestParsePostfix(t *testing.T) {
	prog, err := Parse(`func f(m) { return m["k"][0]; }`)
	if err != nil {
		t.Fatal(err)
	}
	ret := prog.Funcs["f"].Body[0].(*ReturnStmt)
	outer, ok := ret.Expr.(*IndexExpr)
	if !ok {
		t.Fatalf("got %T, want *IndexExpr", ret.Expr)
	}
	if _, ok := outer.X.(*IndexExpr); !ok {
		t.Errorf("inner = %T, want chained *IndexExpr", outer.X)
	}
}

func TestParseListLiteral(t *testing.T) {
	prog, err := Parse(`func f() { let l = [1, "two", [3]]; return l; }`)
	if err != nil {
		t.Fatal(err)
	}
	let := prog.Funcs["f"].Body[0].(*LetStmt)
	lit, ok := let.Expr.(*ListLit)
	if !ok || len(lit.Elems) != 3 {
		t.Fatalf("got %v, want 3-element list literal", let.Expr)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{`func f() { 1 + ; }`, "unexpected token"},
		{`func f() { let = 1; }`, "expected"},
		{`func f() { if x { } }`, "expected"},
		{`func f() { (1)(2); }`, "only named functions"},
		{`func f() { 3 = 4; }`, "invalid assignment target"},
		{`func f() { emit("a", 1) }`, "expected"},
		{`func f() {`, "unexpected end of input"},
		{`fun f() {}`, "expected"},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) err = %v, want containing %q", c.src, err, c.want)
		}
	}
}

func TestMustParsePanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic on bad source")
		}
	}()
	MustParse("not a program")
}

// A let in the post clause would declare its name only from the second
// iteration on, so an outer name of the same spelling would be read on
// the first and the loop's afterwards. The parser rejects it.
func TestParseRejectsLetInForPost(t *testing.T) {
	_, err := Parse(`func f() { let j = 9; for (let i = 0; i < 3; let j = i) { emit("k", j); } }`)
	var se *SyntaxError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "let is not allowed in a for post clause") {
		t.Errorf("err = %v, want a SyntaxError rejecting let in the post clause", err)
	}
	if _, err := Parse(`func f() { for (let i = 0; i < 3; i = i + 1) { } }`); err != nil {
		t.Errorf("assignment in the post clause: %v", err)
	}
}

func TestParseForClausesOptional(t *testing.T) {
	_, err := Parse(`func f() { let i = 0; for (; i < 3; ) { i = i + 1; } }`)
	if err != nil {
		t.Fatalf("for with empty init/post: %v", err)
	}
	_, err = Parse(`func f() { for (let i = 0; ; i = i + 1) { return i; } }`)
	if err != nil {
		t.Fatalf("for with empty condition: %v", err)
	}
}
