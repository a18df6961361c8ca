package jobdsl

import "fmt"

// Compilation. The first NewInterp on a Program turns each function into
// Go closures over frame slots: every variable is resolved to a slot,
// every call to its builtin or compiled function, and every operator to
// its implementation, once per Program rather than once per evaluation.
// Each closure ticks the step counter exactly where an AST walk would, so
// step counts, and every profile measured from them, do not depend on
// how the program is executed.
//
// The same walk is the static checker: names that resolve to nothing and
// calls with the wrong arity are reported as Problems, and compile to
// closures that raise the runtime error only if they run. Nodes the
// parser never builds, such as an unknown operator, panic here.

type (
	// expr evaluates one expression in fr, the frame of the running call.
	expr func(in *Interp, fr []Value) Value
	// stmt executes one statement and reports whether a return ran; the
	// returned value is left in in.ret.
	stmt func(in *Interp, fr []Value) bool
)

// code is one compiled function.
type code struct {
	decl   *FuncDecl
	nslots int // frame size: parameters first, then the let slots
	body   stmt
}

// local is one declared variable: its frame slot, its uses, and how many
// of them only read it, as the operand of an index or of len().
type local struct{ slot, uses, reads int }

// slotScope maps the names one lexical scope declares to their locals.
type slotScope struct {
	slots  map[string]*local
	parent *slotScope
	base   int // first slot of this scope; freed again when it closes
}

type compiler struct {
	funcs    map[string]*code
	problems []Problem

	// Per function being compiled.
	sc         *slotScope
	next, size int
}

// compile translates every function of prog and returns the problems the
// translation found, unsorted.
func compile(prog *Program) (map[string]*code, []Problem) {
	c := &compiler{funcs: make(map[string]*code, len(prog.Funcs))}
	for name, fn := range prog.Funcs {
		c.funcs[name] = &code{decl: fn}
	}
	for _, fn := range c.funcs {
		c.function(fn)
	}
	return c.funcs, c.problems
}

func (c *compiler) report(line int, format string, args ...interface{}) {
	c.problems = append(c.problems, Problem{Line: line, Msg: fmt.Sprintf(format, args...)})
}

func (c *compiler) open() { c.sc = &slotScope{slots: map[string]*local{}, parent: c.sc, base: c.next} }

// close ends the innermost scope. Its slots are reused by the next
// sibling scope, which never runs at the same time.
func (c *compiler) close() { c.next, c.sc = c.sc.base, c.sc.parent }

func (c *compiler) declare(name string, v *local) {
	v.slot = c.next
	c.next++
	c.size = max(c.size, c.next)
	c.sc.slots[name] = v
}

func (c *compiler) lookup(name string) *local {
	for s := c.sc; s != nil; s = s.parent {
		if v, ok := s.slots[name]; ok {
			return v
		}
	}
	return nil
}

func (c *compiler) function(fn *code) {
	c.sc, c.next, c.size = nil, 0, 0
	c.open()
	for _, p := range fn.decl.Params {
		if _, dup := c.sc.slots[p]; dup {
			c.report(fn.decl.Line, "function %q declares parameter %q twice", fn.decl.Name, p)
		}
		c.declare(p, new(local))
	}
	fn.body = c.block(fn.decl.Body)
	c.close()
	fn.nslots = c.size
}

func (c *compiler) block(stmts []Stmt) stmt {
	c.open()
	body := make([]stmt, len(stmts))
	for i, s := range stmts {
		body[i] = c.stmt(s)
	}
	c.close()
	return func(in *Interp, fr []Value) bool {
		scratch, ret := len(in.scratch), false
		for _, s := range body {
			if ret = s(in, fr); ret {
				break
			}
		}
		in.scratch = in.scratch[:scratch] // the block's split lists are dead
		return ret
	}
}

func (c *compiler) stmt(s Stmt) stmt {
	switch s := s.(type) {
	case *LetStmt:
		// A split() list bound to a variable that is only read lives on
		// the scratch stack until its block ends. The rest of the block
		// is compiled, and v's counts final, before the program runs.
		v, line, x := new(local), s.Line, expr(nil)
		if call, ok := s.Expr.(*CallExpr); ok && call.Name == "split" {
			x = c.builtin(call, func(in *Interp, args []Value, line int) Value { return in.split(args, line, v.uses == v.reads) })
		} else {
			x = c.expr(s.Expr)
		}
		if _, dup := c.sc.slots[s.Name]; dup {
			c.report(line, "variable %q redeclared in the same block", s.Name)
		}
		c.declare(s.Name, v)
		slot := v.slot
		return func(in *Interp, fr []Value) bool { in.tick(line); fr[slot] = x(in, fr); return false }
	case *AssignStmt:
		return c.assign(s)
	case *ExprStmt:
		x, line := c.expr(s.Expr), s.Line
		return func(in *Interp, fr []Value) bool { in.tick(line); x(in, fr); return false }
	case *ReturnStmt:
		line := s.Line
		if s.Expr == nil {
			return func(in *Interp, fr []Value) bool { in.tick(line); in.ret = Nil; return true }
		}
		x := c.expr(s.Expr)
		return func(in *Interp, fr []Value) bool { in.tick(line); in.ret = x(in, fr); return true }
	case *IfStmt:
		cond, then, els, line := c.expr(s.Cond), c.block(s.Then), c.block(s.Else), s.Line
		return func(in *Interp, fr []Value) bool {
			in.tick(line)
			if cond(in, fr).Truthy() {
				return then(in, fr)
			}
			return els(in, fr)
		}
	case *WhileStmt:
		cond, body, line := c.expr(s.Cond), c.block(s.Body), s.Line
		return func(in *Interp, fr []Value) bool {
			for {
				in.tick(line)
				if !cond(in, fr).Truthy() {
					return false
				}
				if body(in, fr) {
					return true
				}
			}
		}
	case *ForStmt:
		// Init, cond and post share one scope around the body's. Init and
		// post are simple statements, which never return.
		c.open()
		var init, post stmt
		var cond expr
		if s.Init != nil {
			init = c.stmt(s.Init)
		}
		if s.Cond != nil {
			cond = c.expr(s.Cond)
		}
		body := c.block(s.Body)
		if s.Post != nil {
			post = c.stmt(s.Post)
		}
		c.close()
		line := s.Line
		return func(in *Interp, fr []Value) bool {
			if init != nil {
				init(in, fr)
			}
			for {
				in.tick(line)
				if cond != nil && !cond(in, fr).Truthy() {
					return false
				}
				if body(in, fr) {
					return true
				}
				if post != nil {
					post(in, fr)
				}
			}
		}
	}
	panic(fmt.Sprintf("jobdsl: unknown statement %T", s))
}

func (c *compiler) assign(s *AssignStmt) stmt {
	x, line := c.expr(s.Expr), s.Line
	switch t := s.Target.(type) {
	case *IdentExpr:
		if v := c.lookup(t.Name); v != nil {
			v.uses++
			slot := v.slot
			return func(in *Interp, fr []Value) bool { in.tick(line); fr[slot] = x(in, fr); return false }
		}
		c.report(t.Line, "assignment to undeclared variable %q", t.Name)
		return func(in *Interp, fr []Value) bool {
			in.tick(line)
			x(in, fr)
			in.fail(t.Line, "assignment to undeclared variable %q", t.Name)
			return false
		}
	case *IndexExpr:
		container, idx := c.expr(t.X), c.expr(t.Index)
		return func(in *Interp, fr []Value) bool {
			in.tick(line)
			v := x(in, fr)
			in.setIndex(container(in, fr), idx(in, fr), v, t.Line)
			return false
		}
	}
	panic(fmt.Sprintf("jobdsl: invalid assignment target %T", s.Target))
}

func (c *compiler) exprs(es []Expr) []expr {
	out := make([]expr, len(es))
	for i, e := range es {
		out[i] = c.expr(e)
	}
	return out
}

func constant(v Value, line int) expr {
	return func(in *Interp, _ []Value) Value { in.tick(line); return v }
}

func (c *compiler) expr(e Expr) expr {
	switch e := e.(type) {
	case *IntLit:
		return constant(Int(e.Val), e.Line)
	case *StrLit:
		return constant(Str(e.Val), e.Line)
	case *BoolLit:
		return constant(Bool(e.Val), e.Line)
	case *ListLit:
		elems, line := c.exprs(e.Elems), e.Line
		return func(in *Interp, fr []Value) Value {
			in.tick(line)
			l := make([]Value, len(elems))
			for i, el := range elems {
				l[i] = el(in, fr)
			}
			return List(l)
		}
	case *IdentExpr:
		v, line := c.lookup(e.Name), e.Line
		if v != nil {
			v.uses++
			slot := v.slot
			return func(in *Interp, fr []Value) Value { in.tick(line); return fr[slot] }
		}
		c.report(line, "reference to undefined variable %q", e.Name)
		return func(in *Interp, _ []Value) Value {
			in.tick(line)
			in.fail(line, "undefined variable %q", e.Name)
			return Nil
		}
	case *UnaryExpr:
		x, line := c.expr(e.X), e.Line
		switch e.Op {
		case "-":
			return func(in *Interp, fr []Value) Value {
				in.tick(line)
				v := x(in, fr)
				if v.kind != KindInt {
					in.fail(line, "unary - needs int, got %s", v.kind)
				}
				return Int(-v.n)
			}
		case "!":
			return func(in *Interp, fr []Value) Value { in.tick(line); return Bool(!x(in, fr).Truthy()) }
		}
		panic(fmt.Sprintf("jobdsl: unknown unary operator %q", e.Op))
	case *BinaryExpr:
		l, r, line := c.expr(e.L), c.expr(e.R), e.Line
		switch e.Op {
		case "&&":
			return func(in *Interp, fr []Value) Value {
				in.tick(line)
				return Bool(l(in, fr).Truthy() && r(in, fr).Truthy())
			}
		case "||":
			return func(in *Interp, fr []Value) Value {
				in.tick(line)
				return Bool(l(in, fr).Truthy() || r(in, fr).Truthy())
			}
		}
		op, ok := binaryOps[e.Op]
		if !ok {
			panic(fmt.Sprintf("jobdsl: unknown operator %q", e.Op))
		}
		return func(in *Interp, fr []Value) Value { in.tick(line); return op(in, l(in, fr), r(in, fr), line) }
	case *IndexExpr:
		x, idx, line := c.expr(e.X), c.expr(e.Index), e.Line
		c.read(e.X)
		return func(in *Interp, fr []Value) Value { in.tick(line); return in.index(x(in, fr), idx(in, fr), line) }
	case *CallExpr:
		return c.call(e)
	}
	panic(fmt.Sprintf("jobdsl: unknown expression %T", e))
}

// read counts a use of a variable that only reads it.
func (c *compiler) read(e Expr) {
	if id, ok := e.(*IdentExpr); ok && c.lookup(id.Name) != nil {
		c.lookup(id.Name).reads++
	}
}

// call resolves a call once: builtins first, then the program's own
// functions. Arguments go to a builtin through the argument stack and
// to a function straight into its new frame on the value stack.
func (c *compiler) call(e *CallExpr) expr {
	if b, ok := builtins[e.Name]; ok {
		return c.builtin(e, b)
	}
	args, line := c.exprs(e.Args), e.Line
	var msg string
	fn, ok := c.funcs[e.Name]
	switch {
	case !ok:
		c.report(line, "call to undefined function %q", e.Name)
		msg = fmt.Sprintf("undefined function %q", e.Name)
	case len(args) != len(fn.decl.Params):
		c.report(line, "function %q takes %d argument(s), got %d", e.Name, len(fn.decl.Params), len(args))
		msg = fmt.Sprintf("function %q expects %d args, got %d", e.Name, len(fn.decl.Params), len(args))
	}
	if msg != "" {
		return func(in *Interp, fr []Value) Value {
			in.tick(line)
			for _, arg := range args {
				arg(in, fr)
			}
			in.fail(line, "%s", msg)
			return Nil
		}
	}
	return func(in *Interp, fr []Value) Value {
		in.tick(line)
		base := len(in.vals)
		callee := push(&in.vals, fn.nslots)
		for i, arg := range args {
			callee[i] = arg(in, fr)
		}
		v := in.run(fn, callee, line)
		in.vals = in.vals[:base]
		return v
	}
}

// builtin compiles a call of the builtin e names to b.
func (c *compiler) builtin(e *CallExpr, b builtinFunc) expr {
	args, line := c.exprs(e.Args), e.Line
	if e.Name == "len" && len(e.Args) == 1 {
		c.read(e.Args[0])
	}
	if want := builtinArity[e.Name]; len(args) != want {
		c.report(line, "builtin %q takes %d argument(s), got %d", e.Name, want, len(args))
	}
	return func(in *Interp, fr []Value) Value {
		in.tick(line)
		base := len(in.args)
		a := push(&in.args, len(args))
		for i, arg := range args {
			a[i] = arg(in, fr)
		}
		v := b(in, a, line)
		in.args = in.args[:base]
		return v
	}
}
