package jobdsl

import (
	"cmp"
	"fmt"
	"slices"
)

// Emitter receives the key/value pairs produced by emit() calls during
// map, combine, or reduce execution.
type Emitter interface {
	Emit(key, value string)
}

// EmitterFunc adapts a function to the Emitter interface.
type EmitterFunc func(key, value string)

// Emit calls f(key, value).
func (f EmitterFunc) Emit(key, value string) { f(key, value) }

// RuntimeError is an error raised during DSL execution.
type RuntimeError struct {
	Line int
	Msg  string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("jobdsl: runtime error at line %d: %s", e.Line, e.Msg)
}

// Interp executes functions of a parsed Program. It counts abstract
// execution steps (one per statement executed and expression evaluated),
// which the execution engine converts into the per-record CPU cost
// factors of the Starfish profile (Table 4.2). An Interp is not safe
// for concurrent use; create one per goroutine. Interps over one
// Program share its compiled code, which holds no mutable state.
type Interp struct {
	prog *Program

	// MaxSteps bounds total execution to guard against runaway loops in
	// user-supplied DSL code. Zero means the default of 50 million.
	MaxSteps int64

	// Params exposes job-level user parameters (such as the window size
	// of the word co-occurrence job, §7.2.1) to DSL code via the param()
	// builtin. May be nil.
	Params map[string]string

	steps   int64
	emitter Emitter
	depth   int

	vals    []Value // call frames, innermost last
	args    []Value // arguments of the builtin calls in progress, innermost last
	scratch []Value // the split() lists of the blocks in progress, innermost last
	ret     Value   // the value of the return statement that just ran
}

// NewInterp creates an interpreter over prog, compiling prog on its
// first use.
func NewInterp(prog *Program) *Interp {
	prog.once.Do(func() { prog.code, _ = compile(prog) })
	return &Interp{prog: prog}
}

// Steps returns the number of abstract steps executed since the last
// ResetSteps (or construction).
func (in *Interp) Steps() int64 { return in.steps }

// ResetSteps zeroes the step counter.
func (in *Interp) ResetSteps() { in.steps = 0 }

// Call invokes the named function with the given arguments, routing
// emit() output to em (which may be nil if the function never emits).
func (in *Interp) Call(name string, args []Value, em Emitter) (result Value, err error) {
	vals, argc, scratch, depth := len(in.vals), len(in.args), len(in.scratch), in.depth
	defer func() {
		if r := recover(); r != nil {
			re, ok := r.(*RuntimeError)
			if !ok {
				panic(r)
			}
			// Unwind whatever the failed call left on the stacks.
			in.vals, in.args, in.scratch, in.depth, in.ret = in.vals[:vals], in.args[:argc], in.scratch[:scratch], depth, Nil
			err = re
		}
	}()
	in.emitter = em
	fn, ok := in.prog.code[name]
	if !ok {
		in.fail(0, "undefined function %q", name)
	}
	if len(args) != len(fn.decl.Params) {
		in.fail(0, "function %q expects %d args, got %d", name, len(fn.decl.Params), len(args))
	}
	fr := push(&in.vals, fn.nslots)
	copy(fr, args)
	result = in.run(fn, fr, 0)
	in.vals = in.vals[:vals]
	return result, nil
}

// push extends *stack by n zeroed values and returns them; the caller
// pops them by truncating *stack back to its earlier length. A push
// that outgrows the stack moves it to a new array, but the slices
// already handed out keep their old one, so a frame in use never moves.
func push(stack *[]Value, n int) []Value {
	base := len(*stack)
	*stack = slices.Grow(*stack, n)[:base+n]
	fr := (*stack)[base : base+n : base+n]
	clear(fr)
	return fr
}

// run executes fn in fr, a frame whose first slots hold the arguments.
func (in *Interp) run(fn *code, fr []Value, line int) Value {
	if in.depth >= 64 {
		in.fail(line, "call depth limit exceeded")
	}
	in.depth++
	v := Nil
	if fn.body(in, fr) {
		v, in.ret = in.ret, Nil
	}
	in.depth--
	return v
}

func (in *Interp) fail(line int, format string, args ...interface{}) {
	panic(&RuntimeError{Line: line, Msg: fmt.Sprintf(format, args...)})
}

func (in *Interp) tick(line int) {
	in.steps++
	max := in.MaxSteps
	if max == 0 {
		max = 50_000_000
	}
	if in.steps > max {
		in.fail(line, "step limit %d exceeded (infinite loop?)", max)
	}
}

// index evaluates container[idx].
func (in *Interp) index(container, idx Value, line int) Value {
	switch container.kind {
	case KindList:
		return container.List()[in.offset(idx, container.n, "list", line)]
	case KindStr:
		return Str(string(container.str()[in.offset(idx, container.n, "string", line)]))
	case KindMap:
		return container.Map()[idx.String()]
	}
	in.fail(line, "cannot index %s", container.kind)
	return Nil
}

// setIndex performs container[idx] = v.
func (in *Interp) setIndex(container, idx, v Value, line int) {
	switch container.kind {
	case KindList:
		// Every binding of the list points at the same backing array,
		// so this mutation is visible through all of them.
		container.List()[in.offset(idx, container.n, "list", line)] = v
	case KindMap:
		container.Map()[idx.String()] = v
	default:
		in.fail(line, "cannot index-assign into %s", container.kind)
	}
}

// offset checks that idx is a position in a sequence of length n.
func (in *Interp) offset(idx Value, n int64, what string, line int) int64 {
	if idx.kind != KindInt {
		in.fail(line, "%s index must be int, got %s", what, idx.kind)
	}
	if idx.n < 0 || idx.n >= n {
		in.fail(line, "%s index %d out of range [0,%d)", what, idx.n, n)
	}
	return idx.n
}

// binaryOps implements every binary operator but the short-circuit
// && and ||.
var binaryOps = map[string]func(in *Interp, l, r Value, line int) Value{
	"==": func(_ *Interp, l, r Value, _ int) Value { return Bool(l.Equal(r)) },
	"!=": func(_ *Interp, l, r Value, _ int) Value { return Bool(!l.Equal(r)) },
	"+": func(in *Interp, l, r Value, line int) Value {
		if l.kind == KindStr || r.kind == KindStr {
			return Str(l.String() + r.String())
		}
		return Int(in.wantInt(l, line) + in.wantInt(r, line))
	},
	"-": func(in *Interp, l, r Value, line int) Value { return Int(in.wantInt(l, line) - in.wantInt(r, line)) },
	"*": func(in *Interp, l, r Value, line int) Value { return Int(in.wantInt(l, line) * in.wantInt(r, line)) },
	"/": func(in *Interp, l, r Value, line int) Value {
		d := in.wantInt(r, line)
		if d == 0 {
			in.fail(line, "division by zero")
		}
		return Int(in.wantInt(l, line) / d)
	},
	"%": func(in *Interp, l, r Value, line int) Value {
		d := in.wantInt(r, line)
		if d == 0 {
			in.fail(line, "modulo by zero")
		}
		return Int(in.wantInt(l, line) % d)
	},
	"<":  func(in *Interp, l, r Value, line int) Value { return Bool(in.compare(l, r, line) < 0) },
	"<=": func(in *Interp, l, r Value, line int) Value { return Bool(in.compare(l, r, line) <= 0) },
	">":  func(in *Interp, l, r Value, line int) Value { return Bool(in.compare(l, r, line) > 0) },
	">=": func(in *Interp, l, r Value, line int) Value { return Bool(in.compare(l, r, line) >= 0) },
}

// compare orders two ints or two strings.
func (in *Interp) compare(l, r Value, line int) int {
	switch {
	case l.kind == KindInt && r.kind == KindInt:
		return cmp.Compare(l.n, r.n)
	case l.kind == KindStr && r.kind == KindStr:
		return cmp.Compare(l.str(), r.str())
	}
	in.fail(line, "cannot compare %s with %s", l.kind, r.kind)
	return 0
}

func (in *Interp) wantInt(v Value, line int) int64 {
	if v.kind != KindInt {
		in.fail(line, "expected int, got %s (%s)", v.kind, v.String())
	}
	return v.n
}
