package jobdsl

import "fmt"

// Parse compiles DSL source text into a Program.
func Parse(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &Program{Funcs: make(map[string]*FuncDecl)}
	for !p.at(TokEOF, "") {
		fd, err := p.funcDecl()
		if err != nil {
			return nil, err
		}
		if _, dup := prog.Funcs[fd.Name]; dup {
			return nil, &SyntaxError{Line: fd.Line, Col: 1, Msg: fmt.Sprintf("duplicate function %q", fd.Name)}
		}
		prog.Funcs[fd.Name] = fd
		prog.Order = append(prog.Order, fd.Name)
	}
	return prog, nil
}

// MustParse is Parse that panics on error; intended for package-level
// declarations of the built-in benchmark jobs, whose sources are fixed.
func MustParse(src string) *Program {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) cur() Token  { return p.toks[p.pos] }
func (p *parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(tt TokenType, text string) bool {
	t := p.cur()
	return t.Type == tt && (text == "" || t.Text == text)
}

func (p *parser) accept(tt TokenType, text string) bool {
	if p.at(tt, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(tt TokenType, text string) (Token, error) {
	t := p.cur()
	if !p.at(tt, text) {
		want := text
		if want == "" {
			want = fmt.Sprintf("token type %d", tt)
		}
		return t, &SyntaxError{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf("expected %q, found %q", want, t.String())}
	}
	p.pos++
	return t, nil
}

func (p *parser) funcDecl() (*FuncDecl, error) {
	kw, err := p.expect(TokKeyword, "func")
	if err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokOp, "("); err != nil {
		return nil, err
	}
	var params []string
	if !p.at(TokOp, ")") {
		for {
			id, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			params = append(params, id.Text)
			if !p.accept(TokOp, ",") {
				break
			}
		}
	}
	if _, err := p.expect(TokOp, ")"); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &FuncDecl{Name: name.Text, Params: params, Body: body, Line: kw.Line}, nil
}

func (p *parser) block() ([]Stmt, error) {
	if _, err := p.expect(TokOp, "{"); err != nil {
		return nil, err
	}
	var stmts []Stmt
	for !p.at(TokOp, "}") {
		if p.at(TokEOF, "") {
			t := p.cur()
			return nil, &SyntaxError{Line: t.Line, Col: t.Col, Msg: "unexpected end of input inside block"}
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
	}
	p.pos++ // consume "}"
	return stmts, nil
}

func (p *parser) stmt() (Stmt, error) {
	t := p.cur()
	switch {
	case p.at(TokKeyword, "if"):
		return p.ifStmt()
	case p.at(TokKeyword, "while"):
		return p.whileStmt()
	case p.at(TokKeyword, "for"):
		return p.forStmt()
	case p.at(TokKeyword, "return"):
		p.pos++
		var e Expr
		if !p.at(TokOp, ";") {
			var err error
			e, err = p.expr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(TokOp, ";"); err != nil {
			return nil, err
		}
		return &ReturnStmt{Expr: e, Line: t.Line}, nil
	default:
		s, err := p.simpleStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, ";"); err != nil {
			return nil, err
		}
		return s, nil
	}
}

// simpleStmt parses let / assignment / expression statements (no
// trailing semicolon), as allowed in for-clauses.
func (p *parser) simpleStmt() (Stmt, error) {
	t := p.cur()
	if p.accept(TokKeyword, "let") {
		name, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, "="); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &LetStmt{Name: name.Text, Expr: e, Line: t.Line}, nil
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if p.accept(TokOp, "=") {
		switch e.(type) {
		case *IdentExpr, *IndexExpr:
		default:
			return nil, &SyntaxError{Line: t.Line, Col: t.Col, Msg: "invalid assignment target"}
		}
		rhs, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &AssignStmt{Target: e, Expr: rhs, Line: t.Line}, nil
	}
	return &ExprStmt{Expr: e, Line: t.Line}, nil
}

func (p *parser) ifStmt() (Stmt, error) {
	t := p.next() // "if"
	if _, err := p.expect(TokOp, "("); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokOp, ")"); err != nil {
		return nil, err
	}
	then, err := p.block()
	if err != nil {
		return nil, err
	}
	var els []Stmt
	if p.accept(TokKeyword, "else") {
		if p.at(TokKeyword, "if") {
			s, err := p.ifStmt()
			if err != nil {
				return nil, err
			}
			els = []Stmt{s}
		} else {
			els, err = p.block()
			if err != nil {
				return nil, err
			}
		}
	}
	return &IfStmt{Cond: cond, Then: then, Else: els, Line: t.Line}, nil
}

func (p *parser) whileStmt() (Stmt, error) {
	t := p.next() // "while"
	if _, err := p.expect(TokOp, "("); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokOp, ")"); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Cond: cond, Body: body, Line: t.Line}, nil
}

func (p *parser) forStmt() (Stmt, error) {
	t := p.next() // "for"
	if _, err := p.expect(TokOp, "("); err != nil {
		return nil, err
	}
	var init, post Stmt
	var cond Expr
	var err error
	if !p.at(TokOp, ";") {
		init, err = p.simpleStmt()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokOp, ";"); err != nil {
		return nil, err
	}
	if !p.at(TokOp, ";") {
		cond, err = p.expr()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokOp, ";"); err != nil {
		return nil, err
	}
	if p.at(TokKeyword, "let") {
		// The post clause runs after the body, so a name it declared
		// would reach the condition and body only from the second
		// iteration on: no lexical scope can say that.
		t := p.cur()
		return nil, &SyntaxError{Line: t.Line, Col: t.Col, Msg: "let is not allowed in a for post clause"}
	}
	if !p.at(TokOp, ")") {
		post, err = p.simpleStmt()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokOp, ")"); err != nil {
		return nil, err
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	return &ForStmt{Init: init, Cond: cond, Post: post, Body: body, Line: t.Line}, nil
}

// Operator precedence climbing.

func (p *parser) expr() (Expr, error) { return p.binary(0) }

var precLevels = [][]string{
	{"||"},
	{"&&"},
	{"==", "!="},
	{"<", "<=", ">", ">="},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *parser) binary(level int) (Expr, error) {
	if level >= len(precLevels) {
		return p.unary()
	}
	lhs, err := p.binary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		matched := false
		for _, op := range precLevels[level] {
			if p.at(TokOp, op) {
				t := p.next()
				rhs, err := p.binary(level + 1)
				if err != nil {
					return nil, err
				}
				lhs = &BinaryExpr{Op: op, L: lhs, R: rhs, Line: t.Line}
				matched = true
				break
			}
		}
		if !matched {
			return lhs, nil
		}
	}
}

func (p *parser) unary() (Expr, error) {
	if p.at(TokOp, "-") || p.at(TokOp, "!") {
		t := p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: t.Text, X: x, Line: t.Line}, nil
	}
	return p.postfix()
}

func (p *parser) postfix() (Expr, error) {
	e, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(TokOp, "["):
			t := p.next()
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokOp, "]"); err != nil {
				return nil, err
			}
			e = &IndexExpr{X: e, Index: idx, Line: t.Line}
		case p.at(TokOp, "("):
			id, ok := e.(*IdentExpr)
			if !ok {
				t := p.cur()
				return nil, &SyntaxError{Line: t.Line, Col: t.Col, Msg: "only named functions can be called"}
			}
			t := p.next()
			var args []Expr
			if !p.at(TokOp, ")") {
				for {
					a, err := p.expr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if !p.accept(TokOp, ",") {
						break
					}
				}
			}
			if _, err := p.expect(TokOp, ")"); err != nil {
				return nil, err
			}
			e = &CallExpr{Name: id.Name, Args: args, Line: t.Line}
		default:
			return e, nil
		}
	}
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch {
	case t.Type == TokInt:
		p.pos++
		var v int64
		if _, err := fmt.Sscanf(t.Text, "%d", &v); err != nil {
			return nil, &SyntaxError{Line: t.Line, Col: t.Col, Msg: "bad integer literal " + t.Text}
		}
		return &IntLit{Val: v, Line: t.Line}, nil
	case t.Type == TokString:
		p.pos++
		return &StrLit{Val: t.Text, Line: t.Line}, nil
	case p.at(TokKeyword, "true"):
		p.pos++
		return &BoolLit{Val: true, Line: t.Line}, nil
	case p.at(TokKeyword, "false"):
		p.pos++
		return &BoolLit{Val: false, Line: t.Line}, nil
	case t.Type == TokIdent:
		p.pos++
		return &IdentExpr{Name: t.Text, Line: t.Line}, nil
	case p.at(TokOp, "("):
		p.pos++
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case p.at(TokOp, "["):
		p.pos++
		var elems []Expr
		if !p.at(TokOp, "]") {
			for {
				e, err := p.expr()
				if err != nil {
					return nil, err
				}
				elems = append(elems, e)
				if !p.accept(TokOp, ",") {
					break
				}
			}
		}
		if _, err := p.expect(TokOp, "]"); err != nil {
			return nil, err
		}
		return &ListLit{Elems: elems, Line: t.Line}, nil
	default:
		return nil, &SyntaxError{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf("unexpected token %q", t.String())}
	}
}
