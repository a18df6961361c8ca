package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the intraprocedural half of the analysis core: a
// statement-level control-flow graph over one function body and a
// forward worklist solver over a caller-supplied join semilattice.
// lockorder pairs it with the call graph's BottomUp driver: callee
// may-acquire summaries first, then each function's held-set flow
// consults them — the classic intra-then-inter layering.
//
// Granularity: blocks hold "shallow" nodes — simple statements and the
// bare condition/tag expressions of compound statements — never a
// compound statement itself, so a transfer function can deep-walk a
// node without seeing nested branches twice. Function literals inside
// a node are a different execution context (their bodies get their own
// CFGs); transfer functions must skip them, and skipLits does.

// Block is one straight-line run of nodes with its successor edges.
type Block struct {
	Nodes []ast.Node
	Succs []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Entry  *Block
	Blocks []*Block // creation order, deterministic
}

func (c *CFG) newBlock() *Block {
	b := &Block{}
	c.Blocks = append(c.Blocks, b)
	return b
}

func connect(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

type loopFrame struct {
	label     string
	brk, cont *Block
}

type cfgBuilder struct {
	cfg   *CFG
	loops []loopFrame
	// pendingLabel is set by a LabeledStmt so the labeled loop/switch
	// registers under that name.
	pendingLabel string
}

// BuildCFG builds the control-flow graph of one function body.
// Unsupported control flow (goto) conservatively terminates its path.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}}
	entry := b.cfg.newBlock()
	b.cfg.Entry = entry
	b.stmtList(body.List, entry)
	return b.cfg
}

func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

// findLoop returns break/continue targets for a label ("" = innermost).
func (b *cfgBuilder) findLoop(label string, needCont bool) *loopFrame {
	for i := len(b.loops) - 1; i >= 0; i-- {
		f := &b.loops[i]
		if needCont && f.cont == nil {
			continue // switch/select frames have no continue target
		}
		if label == "" || f.label == label {
			return f
		}
	}
	return nil
}

func (b *cfgBuilder) stmtList(list []ast.Stmt, cur *Block) *Block {
	for _, s := range list {
		cur = b.stmt(s, cur)
		if cur == nil {
			return nil // the rest is unreachable
		}
	}
	return cur
}

// stmt threads one statement through the graph and returns the block
// where control continues, or nil when control cannot fall through.
func (b *cfgBuilder) stmt(s ast.Stmt, cur *Block) *Block {
	switch st := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(st.List, cur)

	case *ast.LabeledStmt:
		b.pendingLabel = st.Label.Name
		return b.stmt(st.Stmt, cur)

	case *ast.IfStmt:
		b.takeLabel()
		if st.Init != nil {
			cur.Nodes = append(cur.Nodes, st.Init)
		}
		cur.Nodes = append(cur.Nodes, st.Cond)
		after := b.cfg.newBlock()
		thenB := b.cfg.newBlock()
		connect(cur, thenB)
		if end := b.stmtList(st.Body.List, thenB); end != nil {
			connect(end, after)
		}
		if st.Else != nil {
			elseB := b.cfg.newBlock()
			connect(cur, elseB)
			if end := b.stmt(st.Else, elseB); end != nil {
				connect(end, after)
			}
		} else {
			connect(cur, after)
		}
		return after

	case *ast.ForStmt:
		label := b.takeLabel()
		if st.Init != nil {
			cur.Nodes = append(cur.Nodes, st.Init)
		}
		head := b.cfg.newBlock()
		connect(cur, head)
		if st.Cond != nil {
			head.Nodes = append(head.Nodes, st.Cond)
		}
		after := b.cfg.newBlock()
		post := b.cfg.newBlock()
		if st.Post != nil {
			post.Nodes = append(post.Nodes, st.Post)
		}
		connect(post, head)
		if st.Cond != nil {
			connect(head, after)
		}
		body := b.cfg.newBlock()
		connect(head, body)
		b.loops = append(b.loops, loopFrame{label: label, brk: after, cont: post})
		if end := b.stmtList(st.Body.List, body); end != nil {
			connect(end, post)
		}
		b.loops = b.loops[:len(b.loops)-1]
		return after

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.cfg.newBlock()
		connect(cur, head)
		head.Nodes = append(head.Nodes, st.X)
		after := b.cfg.newBlock()
		connect(head, after)
		body := b.cfg.newBlock()
		connect(head, body)
		b.loops = append(b.loops, loopFrame{label: label, brk: after, cont: head})
		if end := b.stmtList(st.Body.List, body); end != nil {
			connect(end, head)
		}
		b.loops = b.loops[:len(b.loops)-1]
		return after

	case *ast.SwitchStmt:
		return b.switchLike(st.Init, st.Tag, st.Body, cur, true)

	case *ast.TypeSwitchStmt:
		var tag ast.Expr
		if as, ok := st.Assign.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
			tag = as.Rhs[0]
		} else if es, ok := st.Assign.(*ast.ExprStmt); ok {
			tag = es.X
		}
		return b.switchLike(st.Init, tag, st.Body, cur, false)

	case *ast.SelectStmt:
		label := b.takeLabel()
		after := b.cfg.newBlock()
		if len(st.Body.List) == 0 {
			return nil // empty select blocks forever
		}
		b.loops = append(b.loops, loopFrame{label: label, brk: after})
		for _, cc := range st.Body.List {
			comm := cc.(*ast.CommClause)
			blk := b.cfg.newBlock()
			connect(cur, blk)
			if comm.Comm != nil {
				blk.Nodes = append(blk.Nodes, comm.Comm)
			}
			if end := b.stmtList(comm.Body, blk); end != nil {
				connect(end, after)
			}
		}
		b.loops = b.loops[:len(b.loops)-1]
		return after

	case *ast.ReturnStmt:
		cur.Nodes = append(cur.Nodes, st)
		return nil

	case *ast.BranchStmt:
		label := ""
		if st.Label != nil {
			label = st.Label.Name
		}
		switch st.Tok {
		case token.BREAK:
			if f := b.findLoop(label, false); f != nil {
				connect(cur, f.brk)
			}
			return nil
		case token.CONTINUE:
			if f := b.findLoop(label, true); f != nil {
				connect(cur, f.cont)
			}
			return nil
		case token.FALLTHROUGH:
			// Handled by switchLike via block ordering; treating it as
			// fallthrough-to-next keeps the path alive there.
			return cur
		default: // goto: conservatively terminate the path
			return nil
		}

	default:
		// Simple statements: decls, assignments, sends, incdec, expr,
		// go, defer, empty.
		cur.Nodes = append(cur.Nodes, s)
		return cur
	}
}

// switchLike builds expression and type switches: every case body
// branches from the dispatch block and joins after; fallthrough edges
// connect consecutive case bodies.
func (b *cfgBuilder) switchLike(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, cur *Block, allowFallthrough bool) *Block {
	label := b.takeLabel()
	if init != nil {
		cur.Nodes = append(cur.Nodes, init)
	}
	if tag != nil {
		cur.Nodes = append(cur.Nodes, tag)
	}
	after := b.cfg.newBlock()
	b.loops = append(b.loops, loopFrame{label: label, brk: after})
	var caseBlocks []*Block
	var clauses []*ast.CaseClause
	hasDefault := false
	for _, cs := range body.List {
		cc := cs.(*ast.CaseClause)
		clauses = append(clauses, cc)
		blk := b.cfg.newBlock()
		connect(cur, blk)
		for _, e := range cc.List {
			blk.Nodes = append(blk.Nodes, e)
		}
		caseBlocks = append(caseBlocks, blk)
		if cc.List == nil {
			hasDefault = true
		}
	}
	for i, cc := range clauses {
		end := b.stmtList(cc.Body, caseBlocks[i])
		if end != nil {
			if allowFallthrough && endsInFallthrough(cc.Body) && i+1 < len(caseBlocks) {
				connect(end, caseBlocks[i+1])
			} else {
				connect(end, after)
			}
		}
	}
	if !hasDefault {
		connect(cur, after)
	}
	b.loops = b.loops[:len(b.loops)-1]
	return after
}

func endsInFallthrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// FlowFuncs supplies the semilattice for a forward dataflow pass.
// Transfer must not mutate its input state; Clone is applied before a
// block's node chain runs.
type FlowFuncs[S any] struct {
	Transfer func(n ast.Node, s S) S
	Join     func(a, b S) S
	Equal    func(a, b S) bool
	Clone    func(S) S
}

// Forward runs the worklist to a fixpoint and returns each block's
// in-state.
func Forward[S any](c *CFG, init S, f FlowFuncs[S]) map[*Block]S {
	in := make(map[*Block]S, len(c.Blocks))
	in[c.Entry] = init
	work := []*Block{c.Entry}
	queued := map[*Block]bool{c.Entry: true}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk] = false
		s := f.Clone(in[blk])
		for _, n := range blk.Nodes {
			s = f.Transfer(n, s)
		}
		for _, succ := range blk.Succs {
			cur, ok := in[succ]
			var next S
			if !ok {
				next = f.Clone(s)
			} else {
				next = f.Join(cur, s)
			}
			if !ok || !f.Equal(next, cur) {
				in[succ] = next
				if !queued[succ] {
					queued[succ] = true
					work = append(work, succ)
				}
			}
		}
	}
	return in
}

// ForwardVisit runs Forward and then replays every reachable block,
// calling visit with each node's in-state (the state just before the
// node's transfer applies). Visit order is deterministic (block
// creation order).
func ForwardVisit[S any](c *CFG, init S, f FlowFuncs[S], visit func(n ast.Node, s S)) {
	in := Forward(c, init, f)
	for _, blk := range c.Blocks {
		s, ok := in[blk]
		if !ok {
			continue // unreachable
		}
		s = f.Clone(s)
		for _, n := range blk.Nodes {
			visit(n, s)
			s = f.Transfer(n, s)
		}
	}
}

// funcScope is one analyzable body: a declared function or a function
// literal, with its owning declaration (nil Decl for a literal in
// package-level var initialization, which the loader's packages do not
// produce for function bodies we care about).
type funcScope struct {
	Pkg  *Package
	Decl *ast.FuncDecl // enclosing declaration; nil for package-level literals
	Body *ast.BlockStmt
	// GoLit marks a literal launched directly by a go statement: its
	// body runs on a fresh goroutine, so lock state never flows in.
	GoLit bool
}

// Fn returns the declared function owning this scope, or nil.
func (fs funcScope) Fn() *types.Func {
	if fs.Decl == nil {
		return nil
	}
	return declFunc(fs.Pkg, fs.Decl)
}

// declFunc returns the *types.Func a declaration defines, or nil.
func declFunc(pkg *Package, decl *ast.FuncDecl) *types.Func {
	fn, _ := pkg.Info.Defs[decl.Name].(*types.Func)
	return fn
}

// moduleScopes lists every function body in the module: declarations
// first, then literals (attributed to their enclosing declaration),
// in deterministic source order.
func moduleScopes(pkgs []*Package) []funcScope {
	var out []funcScope
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				out = append(out, funcScope{Pkg: pkg, Decl: decl, Body: decl.Body})
				collectLits(pkg, decl, decl.Body, &out)
			}
		}
	}
	return out
}

func collectLits(pkg *Package, decl *ast.FuncDecl, body ast.Node, out *[]funcScope) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				*out = append(*out, funcScope{Pkg: pkg, Decl: decl, Body: lit.Body, GoLit: true})
				collectLits(pkg, decl, lit.Body, out)
				for _, arg := range x.Call.Args {
					collectLits(pkg, decl, arg, out)
				}
				return false
			}
		case *ast.FuncLit:
			*out = append(*out, funcScope{Pkg: pkg, Decl: decl, Body: x.Body})
			collectLits(pkg, decl, x.Body, out)
			return false
		}
		return true
	})
}

// skipLits walks the expression tree of one shallow CFG node, calling
// fn on every node but refusing to descend into function literals —
// a literal's body is a separate execution context with its own CFG.
func skipLits(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		return fn(x)
	})
}
