package jobdsl

import (
	"strings"
	"testing"
)

// run evaluates fn(args...) in src and returns the result.
func run(t *testing.T, src, fn string, args ...Value) Value {
	t.Helper()
	v, err := tryRun(src, fn, args...)
	if err != nil {
		t.Fatalf("%s: %v", fn, err)
	}
	return v
}

func tryRun(src, fn string, args ...Value) (Value, error) {
	prog, err := Parse(src)
	if err != nil {
		return Nil, err
	}
	in := NewInterp(prog)
	return in.Call(fn, args, nil)
}

func TestInterpArithmetic(t *testing.T) {
	cases := []struct {
		expr string
		want int64
	}{
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"10 / 3", 3},
		{"10 % 3", 1},
		{"-5 + 2", -3},
		{"min(3, 7)", 3},
		{"max(3, 7)", 7},
	}
	for _, c := range cases {
		got := run(t, "func f() { return "+c.expr+"; }", "f")
		if got.Kind() != KindInt || got.Int() != c.want {
			t.Errorf("%s = %v, want %d", c.expr, got, c.want)
		}
	}
}

func TestInterpComparisonsAndLogic(t *testing.T) {
	cases := []struct {
		expr string
		want bool
	}{
		{"1 < 2", true}, {"2 <= 2", true}, {"3 > 4", false}, {"4 >= 4", true},
		{`"abc" < "abd"`, true}, {`"a" == "a"`, true}, {"1 != 2", true},
		{"true && false", false}, {"true || false", true},
		{"!false", true},
	}
	for _, c := range cases {
		got := run(t, "func f() { return "+c.expr+"; }", "f")
		if got.Kind() != KindBool || got.Bool() != c.want {
			t.Errorf("%s = %v, want %t", c.expr, got, c.want)
		}
	}
}

func TestInterpShortCircuit(t *testing.T) {
	// The right side would divide by zero if evaluated.
	got := run(t, `func f() { return false && (1 / 0 > 0); }`, "f")
	if got.Truthy() {
		t.Error("false && _ should be false without evaluating the right side")
	}
	got = run(t, `func f() { return true || (1 / 0 > 0); }`, "f")
	if !got.Truthy() {
		t.Error("true || _ should be true without evaluating the right side")
	}
}

func TestInterpStringConcat(t *testing.T) {
	got := run(t, `func f() { return "n=" + 42; }`, "f")
	if got.String() != "n=42" {
		t.Errorf("got %q, want n=42", got.String())
	}
}

func TestInterpScoping(t *testing.T) {
	// Inner blocks see outer variables; let shadows; assignments write
	// through to the declaring scope.
	got := run(t, `
func f() {
	let x = 1;
	if (true) {
		x = x + 10;
		let x = 100;
		x = x + 1;
	}
	return x;
}`, "f")
	if got.Int() != 11 {
		t.Errorf("x = %d, want 11 (outer updated before shadow)", got.Int())
	}
}

func TestInterpLoops(t *testing.T) {
	got := run(t, `
func f(n) {
	let sum = 0;
	for (let i = 1; i <= n; i = i + 1) { sum = sum + i; }
	let j = toint(n);
	while (j > 0) { sum = sum + 1; j = j - 1; }
	return sum;
}`, "f", Int(10))
	if got.Int() != 65 {
		t.Errorf("got %d, want 65", got.Int())
	}
}

func TestInterpEarlyReturnFromLoop(t *testing.T) {
	got := run(t, `
func f() {
	for (let i = 0; i < 100; i = i + 1) {
		if (i == 7) { return i; }
	}
	return -1;
}`, "f")
	if got.Int() != 7 {
		t.Errorf("got %d, want 7", got.Int())
	}
}

func TestInterpUserFunctions(t *testing.T) {
	got := run(t, `
func square(x) { return x * x; }
func f() { return square(3) + square(4); }
`, "f")
	if got.Int() != 25 {
		t.Errorf("got %d, want 25", got.Int())
	}
}

func TestInterpRecursionDepthLimit(t *testing.T) {
	_, err := tryRun(`func f() { return f(); }`, "f")
	if err == nil || !strings.Contains(err.Error(), "call depth") {
		t.Errorf("err = %v, want call-depth error", err)
	}
}

func TestInterpStepLimit(t *testing.T) {
	prog := MustParse(`func f() { while (true) { let x = 1; } }`)
	in := NewInterp(prog)
	in.MaxSteps = 1000
	_, err := in.Call("f", nil, nil)
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("err = %v, want step-limit error", err)
	}
}

func TestInterpEmit(t *testing.T) {
	prog := MustParse(`
func map(key, line) {
	let words = tokenize(line);
	for (let i = 0; i < len(words); i = i + 1) {
		emit(words[i], 1);
	}
}`)
	in := NewInterp(prog)
	var got []string
	em := EmitterFunc(func(k, v string) { got = append(got, k+"="+v) })
	if _, err := in.Call("map", []Value{Str("0"), Str("a b a")}, em); err != nil {
		t.Fatal(err)
	}
	want := []string{"a=1", "b=1", "a=1"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("emitted %v, want %v", got, want)
	}
}

func TestInterpEmitWithoutEmitter(t *testing.T) {
	_, err := tryRun(`func f() { emit("a", 1); }`, "f")
	if err == nil || !strings.Contains(err.Error(), "emit called outside") {
		t.Errorf("err = %v, want emit-context error", err)
	}
}

func TestInterpListSemantics(t *testing.T) {
	// append returns a new list; index assignment mutates shared backing.
	got := run(t, `
func f() {
	let a = [1, 2, 3];
	let b = append(a, 4);
	a[0] = 99;
	return tostr(a) + "|" + tostr(b) + "|" + len(b);
}`, "f")
	if got.String() != "[99,2,3]|[1,2,3,4]|4" {
		t.Errorf("got %q", got.String())
	}
}

func TestInterpMapSemantics(t *testing.T) {
	got := run(t, `
func f() {
	let m = newmap();
	put(m, "a", 1);
	put(m, "b", 2);
	m["a"] = toint(get(m, "a")) + 10;
	let ks = keys(m);
	return tostr(m) + "|" + tostr(ks) + "|" + tostr(haskey(m, "c"));
}`, "f")
	if got.String() != "{a:11,b:2}|[a,b]|false" {
		t.Errorf("got %q", got.String())
	}
}

func TestInterpStringBuiltins(t *testing.T) {
	cases := []struct {
		expr, want string
	}{
		{`lower("AbC")`, "abc"},
		{`substr("hello", 1, 3)`, "el"},
		{`substr("hello", -2, 99)`, "hello"},
		{`substr("hello", 0, -2)`, ""},
		{`tostr(split("a|b|c", "|"))`, "[a,b,c]"},
		{`tostr(contains("hello", "ell"))`, "true"},
		{`tostr(sortlist(["b", "a", "c"]))`, "[a,b,c]"},
		{`tostr(sortlist([3, 1, 2]))`, "[1,2,3]"},
	}
	for _, c := range cases {
		got := run(t, "func f() { return "+c.expr+"; }", "f")
		if got.String() != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got.String(), c.want)
		}
	}
}

func TestInterpToInt(t *testing.T) {
	if got := run(t, `func f() { return toint(" 42 ") + toint(true); }`, "f"); got.Int() != 43 {
		t.Errorf("got %d, want 43", got.Int())
	}
	_, err := tryRun(`func f() { return toint("zap"); }`, "f")
	if err == nil {
		t.Error("toint on a non-integer should fail")
	}
}

func TestInterpHashDeterministic(t *testing.T) {
	a := run(t, `func f() { return hash("abc"); }`, "f")
	b := run(t, `func f() { return hash("abc"); }`, "f")
	c := run(t, `func f() { return hash("abd"); }`, "f")
	if a.Int() != b.Int() {
		t.Error("hash not deterministic")
	}
	if a.Int() == c.Int() {
		t.Error("different strings hash equal (suspicious)")
	}
}

func TestInterpParams(t *testing.T) {
	prog := MustParse(`func f() { return toint(param("window")) * 2; }`)
	in := NewInterp(prog)
	in.Params = map[string]string{"window": "3"}
	v, err := in.Call("f", nil, nil)
	if err != nil || v.Int() != 6 {
		t.Fatalf("got %v, %v; want 6", v, err)
	}
	in.Params = nil
	if _, err := in.Call("f", nil, nil); err == nil {
		t.Error("missing param should fail")
	}
}

func TestInterpRuntimeErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{`func f() { return 1 / 0; }`, "division by zero"},
		{`func f() { return 1 % 0; }`, "modulo by zero"},
		{`func f() { return nope; }`, "undefined variable"},
		{`func f() { nope(); }`, "undefined function"},
		{`func f() { let l = [1]; return l[5]; }`, "out of range"},
		{`func f() { let l = [1]; l[-1] = 2; }`, "out of range"},
		{`func f() { return 1 < "a"; }`, "cannot compare"},
		{`func f() { return -"a"; }`, "unary - needs int"},
		{`func f() { x = 1; }`, "undeclared variable"},
		{`func f() { let n = 5; return n[0]; }`, "cannot index"},
		{`func f(a) { return a; }
func g() { return f(1, 2); }`, "expects 1 args"},
	}
	for _, c := range cases {
		_, err := tryRun(c.src, funcNameOf(c.src))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%q err = %v, want containing %q", c.src, err, c.want)
		}
	}
}

func funcNameOf(src string) string {
	if strings.Contains(src, "func g()") {
		return "g"
	}
	return "f"
}

func TestInterpStepCounting(t *testing.T) {
	prog := MustParse(`func f(n) {
	let s = 0;
	for (let i = 0; i < n; i = i + 1) { s = s + 1; }
	return s;
}`)
	in := NewInterp(prog)
	count := func(n int64) int64 {
		in.ResetSteps()
		if _, err := in.Call("f", []Value{Int(n)}, nil); err != nil {
			t.Fatal(err)
		}
		return in.Steps()
	}
	s10, s100 := count(10), count(100)
	if s100 <= s10 {
		t.Errorf("steps(100)=%d not > steps(10)=%d", s100, s10)
	}
	// Steps should grow roughly linearly with iterations.
	perIter := float64(s100-s10) / 90
	if perIter < 5 || perIter > 40 {
		t.Errorf("per-iteration step cost %.1f outside sane range", perIter)
	}
}

func TestInterpStringIndexing(t *testing.T) {
	if got := run(t, `func f() { let s = "abc"; return s[1]; }`, "f"); got.String() != "b" {
		t.Errorf(`"abc"[1] = %q, want "b"`, got.String())
	}
}

func TestValueTruthinessAndEquality(t *testing.T) {
	if Nil.Truthy() || Int(0).Truthy() || Str("").Truthy() || Bool(false).Truthy() || List(nil).Truthy() {
		t.Error("zero values should be falsy")
	}
	if !Int(5).Truthy() || !Str("x").Truthy() || !Bool(true).Truthy() {
		t.Error("non-zero values should be truthy")
	}
	a := List([]Value{Int(1), Str("x")})
	b := List([]Value{Int(1), Str("x")})
	if !a.Equal(b) {
		t.Error("equal lists not Equal")
	}
	m1, m2 := NewMap(), NewMap()
	m1.Map()["k"] = Int(1)
	m2.Map()["k"] = Int(1)
	if !m1.Equal(m2) {
		t.Error("equal maps not Equal")
	}
	m2.Map()["j"] = Int(2)
	if m1.Equal(m2) {
		t.Error("different maps Equal")
	}
	if Int(1).Equal(Str("1")) {
		t.Error("cross-kind values should not be Equal")
	}
}

// TestSplitMatchesStringsSplit holds split() to strings.Split part for
// part, separators that overlap, lead, trail or are empty included, on
// the heap and on the scratch stack.
func TestSplitMatchesStringsSplit(t *testing.T) {
	cases := [][2]string{
		{"a|b|c", "|"}, {"|a||b|", "|"}, {"", "|"}, {"abc", ""}, {"", ""},
		{"aaaa", "aa"}, {"x::y::", "::"}, {"no sep here", "\t"}, {"héllo wörld", ""},
	}
	in := new(Interp)
	for i, c := range cases {
		got := in.split([]Value{Str(c[0]), Str(c[1])}, 0, i%2 == 1)
		want := strings.Split(c[0], c[1])
		if len(got.List()) != len(want) {
			t.Fatalf("split(%q, %q) has %d parts, want %d", c[0], c[1], len(got.List()), len(want))
		}
		for i, w := range want {
			if got.List()[i].String() != w {
				t.Errorf("split(%q, %q)[%d] = %q, want %q", c[0], c[1], i, got.List()[i].String(), w)
			}
		}
	}
}
