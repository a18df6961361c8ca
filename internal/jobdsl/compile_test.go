package jobdsl

import (
	"strings"
	"sync"
	"testing"
)

// TestInterpRecoversAfterRuntimeError fails calls at depth, inside a
// builtin's arguments, at the call-depth limit and at the step limit,
// and checks that the same Interp then runs a call correctly: right
// value, both stacks empty, and the step counter counting on.
func TestInterpRecoversAfterRuntimeError(t *testing.T) {
	prog := MustParse(`
func deep(n) { if (n == 0) { return 1 / 0; } return deep(n - 1); }
func inarg(n) { let l = [1, 2]; return len(tostr(append(l, deep(n)))); }
func forever() { return forever(); }
func spin(n) { if (n == 0) { while (true) { let x = n; } } return spin(n - 1); }
func sum(a, b) {
	let s = a;
	for (let i = 0; i < b; i = i + 1) { s = s + i; }
	return s;
}`)
	fresh := NewInterp(prog)
	if _, err := fresh.Call("sum", []Value{Int(10), Int(5)}, nil); err != nil {
		t.Fatal(err)
	}
	sumSteps := fresh.Steps()

	in := NewInterp(prog)
	for _, c := range []struct {
		fn   string
		arg  int64
		max  int64
		want string
	}{
		{"deep", 5, 0, "division by zero"},
		{"inarg", 3, 0, "division by zero"},
		{"forever", -1, 0, "call depth limit exceeded"},
		{"spin", 3, 1000, "step limit 1000 exceeded"},
	} {
		var args []Value
		if c.arg >= 0 {
			args = []Value{Int(c.arg)}
		}
		in.MaxSteps = c.max
		if _, err := in.Call(c.fn, args, nil); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want %q", c.fn, err, c.want)
		}
		in.MaxSteps = 0
		before := in.Steps()
		v, err := in.Call("sum", []Value{Int(10), Int(5)}, nil)
		if err != nil || v.Kind() != KindInt || v.Int() != 20 {
			t.Fatalf("after %s: sum = %v, %v; want 20", c.fn, v, err)
		}
		if len(in.vals) != 0 || len(in.args) != 0 || in.depth != 0 {
			t.Errorf("after %s: %d frame values, %d builtin args, depth %d left over",
				c.fn, len(in.vals), len(in.args), in.depth)
		}
		if got := in.Steps() - before; got != sumSteps {
			t.Errorf("after %s: sum took %d steps, a fresh Interp %d", c.fn, got, sumSteps)
		}
	}
}

// TestInterpsShareCompiledProgram runs one Program from eight
// goroutines, each with its own Interp, the first of them compiling it.
// Under -race this checks that compiled code holds no mutable state.
func TestInterpsShareCompiledProgram(t *testing.T) {
	prog := MustParse(`
func window(words, i, w) { return min(len(words), i + w + 1); }
func map(key, line) {
	let words = tokenize(lower(line));
	let seen = newmap();
	for (let i = 0; i < len(words); i = i + 1) {
		for (let j = i + 1; j < window(words, i, 2); j = j + 1) {
			let pair = words[i] + ":" + words[j];
			if (!haskey(seen, pair)) { put(seen, pair, 0); }
			seen[pair] = toint(get(seen, pair)) + 1;
		}
	}
	let ks = keys(seen);
	for (let k = 0; k < len(ks); k = k + 1) { emit(ks[k], seen[ks[k]]); }
}`)
	lines := []string{"the quick brown fox", "jumps over the lazy dog", "The Fox and the Dog the end"}
	type result struct {
		emits string
		steps int64
	}
	results := make([]result, 8)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in := NewInterp(prog)
			var b strings.Builder
			em := EmitterFunc(func(k, v string) { b.WriteString(k + "=" + v + ";") })
			for i := 0; i < 50; i++ {
				for _, l := range lines {
					if _, err := in.Call("map", []Value{Str("0"), Str(l)}, em); err != nil {
						t.Error(err)
						return
					}
				}
			}
			results[g] = result{b.String(), in.Steps()}
		}()
	}
	wg.Wait()
	for g, r := range results {
		if r != results[0] {
			t.Errorf("goroutine %d: %d steps, %d emit bytes; goroutine 0: %d steps, %d emit bytes",
				g, r.steps, len(r.emits), results[0].steps, len(results[0].emits))
		}
	}
	if results[0].steps == 0 || !strings.Contains(results[0].emits, "the:fox=1") {
		t.Errorf("unexpected run: %d steps, emits %.80q", results[0].steps, results[0].emits)
	}
}

// TestInterpCallDoesNotAllocate pins the frame and argument stacks: a
// call whose DSL code builds no list, map or string allocates nothing
// once the stacks have grown.
func TestInterpCallDoesNotAllocate(t *testing.T) {
	prog := MustParse(`
func sq(x) { return x * x; }
func f(n) {
	let s = 0;
	for (let i = 0; i < n; i = i + 1) {
		if (i % 2 == 0) { let t = sq(i); s = s + t; } else { s = s + max(i, len("abc")); }
	}
	return s;
}`)
	in := NewInterp(prog)
	args := []Value{Int(20)}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := in.Call("f", args, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Call allocated %.1f times per run, want 0", allocs)
	}
}

// TestSplitListsOnScratchOnlyWhenRead checks where split() lists live.
// One bound by let and only indexed or measured goes on the scratch
// stack, so a call allocates nothing once that stack has grown, in a
// loop and under recursion too. One that is returned, stored, passed on
// or reassigned is the heap's: it keeps its parts after its block ends
// and a later split reuses the scratch stack. Between calls, failed ones
// included, the scratch stack is empty.
func TestSplitListsOnScratchOnlyWhenRead(t *testing.T) {
	prog := MustParse(`
func fields(line, n) {
	let f = split(line, "\t");
	let s = 0;
	for (let i = 0; i < len(f); i = i + 1) {
		let kv = split(f[i], "=");
		s = s + len(kv[0]) + len(kv[1]);
	}
	if (n > 0) { s = s + fields(line, n - 1); }
	return s;
}
func keep(m, l) { put(m, "c", l); }
func returned(line) { let f = split(line, "\t"); return f; }
func fails(line) { let f = split(line, "\t"); return f[9]; }
func escapes(line) {
	let m = newmap();
	let a = returned(line);
	let e = [];
	if (true) {
		let b = split(line, "\t");
		put(m, "b", b);
		let c = split(line, "\t");
		keep(m, c);
		let t = split(line, "\t");
		e = t;
	}
	let later = split("p\tq\tr\ts\tt\tu\tv\tw\tx", "\t");
	return later[0] + a[0] + get(m, "b")[1] + get(m, "c")[2] + e[0];
}`)
	in := NewInterp(prog)
	line := []Value{Str("k1=v1\tk2=v2\tk3=v3")}
	if v, err := in.Call("escapes", line, nil); err != nil || v.String() != "pk1=v1k2=v2k3=v3k1=v1" {
		t.Errorf("escapes = %v, %v; want pk1=v1k2=v2k3=v3k1=v1", v, err)
	}
	args := []Value{line[0], Int(3)}
	if allocs := testing.AllocsPerRun(100, func() {
		if v, err := in.Call("fields", args, nil); err != nil || v.Int() != 48 {
			t.Fatalf("fields = %v, %v; want 48", v, err)
		}
	}); allocs != 0 {
		t.Errorf("a call whose split lists are only read allocated %.1f times per run, want 0", allocs)
	}
	if _, err := in.Call("fails", line, nil); err == nil {
		t.Error("fails: no error for an index out of range")
	}
	if len(in.scratch) != 0 {
		t.Errorf("%d values left on the scratch stack between calls", len(in.scratch))
	}
}

// TestCompileSlotsFollowScopes checks that slots follow lexical scope
// rather than the order scopes happen to run in: a let's right-hand side
// sees the outer name, sibling blocks reuse slots without leaking values,
// and recursion gets a fresh frame per call.
func TestCompileSlotsFollowScopes(t *testing.T) {
	got := run(t, `
func fact(n) { if (n <= 1) { return 1; } let r = n * fact(n - 1); return r; }
func f() {
	let x = 1;
	if (true) { let x = x + 1; let y = x * 10; x = y; }
	let out = tostr(x);
	if (true) { let z = 7; out = out + "," + z; }
	if (true) { let w = 3; out = out + "," + w; }
	let i = 100;
	for (let i = 0; i < 2; i = i + 1) { let j = i; out = out + "," + j; }
	return out + "," + i + "," + fact(5);
}`, "f")
	if got.String() != "1,7,3,0,1,100,120" {
		t.Errorf("got %q, want 1,7,3,0,1,100,120", got.String())
	}
}
