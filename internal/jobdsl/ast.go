package jobdsl

import "sync"

// The abstract syntax tree. Nodes carry the source line of their first
// token so runtime errors can point back into the DSL source.

// Program is a parsed DSL source file: a set of named functions. A
// MapReduce job's DSL source defines "map" and "reduce" (and optionally
// "combine") plus any helper functions they call. A Program must not be
// modified once an Interp has been created over it.
type Program struct {
	Funcs map[string]*FuncDecl
	// Order preserves declaration order, for stable printing.
	Order []string

	once sync.Once
	code map[string]*code // compiled by the first NewInterp
}

// FuncDecl is one function declaration.
type FuncDecl struct {
	Name   string
	Params []string
	Body   []Stmt
	Line   int
}

// Stmt is a statement node.
type Stmt interface{ stmtNode() }

// LetStmt declares a new variable in the current scope.
type LetStmt struct {
	Name string
	Expr Expr
	Line int
}

// AssignStmt assigns to an existing variable or an indexed element.
type AssignStmt struct {
	// Target is either *IdentExpr or *IndexExpr.
	Target Expr
	Expr   Expr
	Line   int
}

// IfStmt is a conditional with an optional else block.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
	Line int
}

// WhileStmt is a pre-test loop.
type WhileStmt struct {
	Cond Expr
	Body []Stmt
	Line int
}

// ForStmt is a C-style loop. Init and Post may be nil; Cond may be nil
// (meaning true).
type ForStmt struct {
	Init Stmt
	Cond Expr
	Post Stmt
	Body []Stmt
	Line int
}

// ReturnStmt exits the current function, optionally with a value.
type ReturnStmt struct {
	Expr Expr // may be nil
	Line int
}

// ExprStmt evaluates an expression for its side effects (emit, put, ...).
type ExprStmt struct {
	Expr Expr
	Line int
}

func (*LetStmt) stmtNode()    {}
func (*AssignStmt) stmtNode() {}
func (*IfStmt) stmtNode()     {}
func (*WhileStmt) stmtNode()  {}
func (*ForStmt) stmtNode()    {}
func (*ReturnStmt) stmtNode() {}
func (*ExprStmt) stmtNode()   {}

// Expr is an expression node.
type Expr interface{ exprNode() }

// IntLit is an integer literal.
type IntLit struct {
	Val  int64
	Line int
}

// StrLit is a string literal.
type StrLit struct {
	Val  string
	Line int
}

// BoolLit is true or false.
type BoolLit struct {
	Val  bool
	Line int
}

// ListLit is a list literal [a, b, c].
type ListLit struct {
	Elems []Expr
	Line  int
}

// IdentExpr references a variable.
type IdentExpr struct {
	Name string
	Line int
}

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op   string
	L, R Expr
	Line int
}

// UnaryExpr applies - or !.
type UnaryExpr struct {
	Op   string
	X    Expr
	Line int
}

// IndexExpr indexes a list (by int) or map (by string key).
type IndexExpr struct {
	X     Expr
	Index Expr
	Line  int
}

// CallExpr calls a builtin or a user-declared helper function.
type CallExpr struct {
	Name string
	Args []Expr
	Line int
}

func (*IntLit) exprNode()     {}
func (*StrLit) exprNode()     {}
func (*BoolLit) exprNode()    {}
func (*ListLit) exprNode()    {}
func (*IdentExpr) exprNode()  {}
func (*BinaryExpr) exprNode() {}
func (*UnaryExpr) exprNode()  {}
func (*IndexExpr) exprNode()  {}
func (*CallExpr) exprNode()   {}
