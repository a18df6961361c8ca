package jobdsl

import (
	"strings"
	"testing"
)

func checkSrc(t *testing.T, src string) []Problem {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Check(prog)
}

func TestCheckCleanProgram(t *testing.T) {
	problems := checkSrc(t, `
func helper(x) { return x * 2; }
func map(key, line) {
	let words = tokenize(line);
	for (let i = 0; i < len(words); i = i + 1) {
		emit(words[i], helper(i));
	}
}
func reduce(key, values) {
	let sum = 0;
	for (let i = 0; i < len(values); i = i + 1) { sum = sum + toint(values[i]); }
	emit(key, sum);
}`)
	if len(problems) != 0 {
		t.Errorf("clean program flagged: %v", problems)
	}
}

func TestCheckFindings(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"undefined variable",
			`func f(a) { return b; }`,
			`undefined variable "b"`},
		{"undefined function",
			`func f(a) { return g(a); }`,
			`undefined function "g"`},
		{"builtin arity",
			`func f(a) { emit(a); }`,
			`builtin "emit" takes 2 argument(s), got 1`},
		{"user function arity",
			`func g(x, y) { return x; }
func f(a) { return g(a); }`,
			`function "g" takes 2 argument(s), got 1`},
		{"assign undeclared",
			`func f(a) { b = 1; }`,
			`assignment to undeclared variable "b"`},
		{"duplicate param",
			`func f(a, a) { return a; }`,
			`parameter "a" twice`},
		{"redeclared in block",
			`func f(a) { let x = 1; let x = 2; }`,
			`variable "x" redeclared`},
		{"undefined in condition",
			`func f(a) { if (zz > 1) { return a; } }`,
			`undefined variable "zz"`},
		{"undefined in for post",
			`func f(a) { for (let i = 0; i < 3; j = j + 1) { return a; } }`,
			`undeclared variable "j"`},
	}
	for _, c := range cases {
		problems := checkSrc(t, c.src)
		found := false
		for _, p := range problems {
			if strings.Contains(p.Msg, strings.TrimPrefix(c.want, "")) || strings.Contains(p.String(), c.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: problems %v missing %q", c.name, problems, c.want)
		}
	}
}

func TestCheckScoping(t *testing.T) {
	// Inner-block declarations do not leak out.
	problems := checkSrc(t, `
func f(a) {
	if (a > 0) { let inner = 1; }
	return inner;
}`)
	if len(problems) == 0 {
		t.Error("use of inner-block variable outside its block not flagged")
	}
	// Loop variables are visible in the loop body and post clause only.
	problems = checkSrc(t, `
func f(a) {
	for (let i = 0; i < 3; i = i + 1) { emit("k", i); }
	return i;
}`)
	if len(problems) == 0 {
		t.Error("loop variable escaping the loop not flagged")
	}
	// Shadowing in an inner block is legal.
	problems = checkSrc(t, `
func f(a) {
	let x = 1;
	if (a > 0) { let x = 2; emit("k", x); }
	return x;
}`)
	if len(problems) != 0 {
		t.Errorf("legal shadowing flagged: %v", problems)
	}
}

func TestCheckProblemsSorted(t *testing.T) {
	problems := checkSrc(t, `
func f(a) {
	zz = 1;
	return yy;
}`)
	if len(problems) < 2 {
		t.Fatalf("expected 2 problems, got %v", problems)
	}
	for i := 1; i < len(problems); i++ {
		if problems[i].Line < problems[i-1].Line {
			t.Error("problems not sorted by line")
		}
	}
}

func TestCheckNilProgram(t *testing.T) {
	if got := Check(nil); got != nil {
		t.Errorf("Check(nil) = %v", got)
	}
}

// TestCheckBenchmarkJobsClean guards that every shipped benchmark job
// passes static analysis (Validate runs the checker).
// The actual assertion lives in workloads' TestValidateAll; this pins the
// checker's builtin table against the runtime builtins.
func TestCheckBuiltinTableComplete(t *testing.T) {
	for name := range builtins {
		if _, ok := builtinArity[name]; !ok {
			t.Errorf("builtin %q missing from the checker's arity table", name)
		}
	}
	for name := range builtinArity {
		if !IsBuiltin(name) {
			t.Errorf("checker lists unknown builtin %q", name)
		}
	}
}
