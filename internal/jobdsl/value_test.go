package jobdsl

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// TestValueLayout pins Value at three words: every frame slot, argument
// and list element copies this many bytes.
func TestValueLayout(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 24", got)
	}
}

// TestValueRoundTrip builds a value of every kind and reads it back
// through the accessors, including strings and lists whose backing
// arrays only the Value still references.
func TestValueRoundTrip(t *testing.T) {
	// Substrings of a string nothing else keeps: after a GC, p alone
	// must hold its bytes alive.
	big := strings.Repeat("abcdefgh", 1<<10)
	subs := []Value{Str(big[3:9]), Str(big[len(big)-4:]), Str(big[:0])}
	inner := []Value{Int(7), Str(strings.Clone("in"))}
	nested := List([]Value{List(inner), List(nil), List([]Value{}), Nil})
	big, inner = "", nil
	runtime.GC()
	// Reuse whatever the GC freed, so a dangling p would read z's.
	fill := make([]string, 64)
	for i := range fill {
		fill[i] = strings.Repeat("z", 8<<10)
	}

	for i, want := range []string{"defgha", "efgh", ""} {
		if v := subs[i]; v.Kind() != KindStr || v.String() != want || v.Truthy() != (want != "") {
			t.Errorf("substring %d = %v %q, want str %q", i, v.Kind(), v.String(), want)
		}
	}
	if got := nested.String(); got != "[[7,in],[],[],]" {
		t.Errorf("nested list renders %q", got)
	}
	l := nested.List()
	if len(l) != 4 || len(l[0].List()) != 2 || l[0].List()[1].String() != "in" {
		t.Fatalf("nested list reads back as %v", l)
	}
	for i, v := range l[1:] {
		if len(v.List()) != 0 || v.Truthy() {
			t.Errorf("element %d of the nested list should be empty and falsy", i+1)
		}
	}

	m := NewMap()
	m.Map()["k"] = Int(-3)
	scalars := []struct {
		v      Value
		kind   Kind
		text   string
		truthy bool
	}{
		{Nil, KindNil, "", false},
		{Int(0), KindInt, "0", false},
		{Int(-1 << 62), KindInt, "-4611686018427387904", true},
		{Bool(false), KindBool, "false", false},
		{Bool(true), KindBool, "true", true},
		{Str(""), KindStr, "", false},
		{Str("x"), KindStr, "x", true},
		{NewMap(), KindMap, "{}", false},
		{m, KindMap, "{k:-3}", true},
	}
	for _, c := range scalars {
		if c.v.Kind() != c.kind || c.v.String() != c.text || c.v.Truthy() != c.truthy {
			t.Errorf("%s %q: got kind %s, text %q, truthy %v; want %s %q %v",
				c.kind, c.text, c.v.Kind(), c.v.String(), c.v.Truthy(), c.kind, c.text, c.truthy)
		}
	}
	if Int(42).Int() != 42 || !Bool(true).Bool() || Bool(false).Bool() {
		t.Error("Int or Bool does not read back")
	}
	// An accessor of another kind reads the zero of its type.
	if Str("abc").Int() != 0 || Int(1).Bool() || Int(3).List() != nil || Str("a").Map() != nil || Int(5).str() != "" {
		t.Error("an accessor read a value of another kind")
	}
	if !nested.Equal(List([]Value{List([]Value{Int(7), Str("in")}), List(nil), List(nil), Nil})) {
		t.Error("a rebuilt nested list is not Equal to the original")
	}
	if Int(1).Equal(Bool(true)) || Str("1").Equal(Int(1)) {
		t.Error("values of different kinds compare Equal")
	}
}

// TestValueAliasing pins the collection semantics the jobs rely on:
// index-assign into a list is seen through every binding of it, append
// never writes into the list it extends, and a map is one map however
// many bindings it has.
func TestValueAliasing(t *testing.T) {
	got := run(t, `func f() {
		let a = [1, 2, 3];
		let b = a;
		b[0] = 9;
		let c = append(a, 4);
		c[1] = 8;
		let d = append(a, 5);
		let m = newmap();
		let n = m;
		put(n, "k", 1);
		n["j"] = 2;
		return tostr(a) + tostr(b) + tostr(c) + tostr(d) + tostr(m);
	}`, "f")
	if want := "[9,2,3][9,2,3][9,8,3,4][9,2,3,5]{j:2,k:1}"; got.String() != want {
		t.Errorf("got %q, want %q", got.String(), want)
	}

	// The same from Go: a list built from a slice with spare capacity
	// never appends into it.
	backing := make([]Value, 2, 8)
	l := List(backing)
	if cap(l.List()) != 2 {
		t.Errorf("a list's capacity is %d, want its length 2", cap(l.List()))
	}
	l.List()[0] = Int(1)
	if backing[0].Int() != 1 {
		t.Error("index-assign through the Value did not reach the shared array")
	}
	ext := biAppend(nil, []Value{l, Int(2)}, 0)
	if len(ext.List()) != 3 || backing[:3][2].Kind() != KindNil {
		t.Error("append wrote into the spare capacity of the list's backing slice")
	}
}
