// Package ast defines the abstract syntax tree for bf4's P4-16 subset.
// The subset covers everything the benchmark corpus uses: headers, structs,
// typedefs, constants, parsers with select transitions and header stacks,
// controls with actions, tables (exact/ternary/lpm keys), registers,
// V1Model intrinsics, and the V1Switch package instantiation.
package ast

import (
	"math/big"

	"bf4/internal/p4/token"
)

// Node is implemented by every AST node.
type Node interface {
	Pos() token.Pos
}

// ---------------------------------------------------------------- types

// Type is a syntactic type reference.
type Type interface {
	Node
	typeNode()
}

// BitType is bit<Width>.
type BitType struct {
	P     token.Pos
	Width int
}

// BoolType is bool.
type BoolType struct {
	P token.Pos
}

// NamedType refers to a typedef, header, struct or extern type by name.
type NamedType struct {
	P    token.Pos
	Name string
}

// StackType is a header stack type: Elem[Size].
type StackType struct {
	P    token.Pos
	Elem Type
	Size int
}

func (t *BitType) Pos() token.Pos   { return t.P }
func (t *BoolType) Pos() token.Pos  { return t.P }
func (t *NamedType) Pos() token.Pos { return t.P }
func (t *StackType) Pos() token.Pos { return t.P }
func (*BitType) typeNode()          {}
func (*BoolType) typeNode()         {}
func (*NamedType) typeNode()        {}
func (*StackType) typeNode()        {}

// ---------------------------------------------------------------- decls

// Program is a parsed compilation unit.
type Program struct {
	Decls []Decl
}

// Decl is a top-level or control-local declaration.
type Decl interface {
	Node
	declNode()
}

// Field is a header or struct field. Annots holds the names of the
// annotations attached to the field (e.g. "sensitive" for @sensitive);
// arguments are discarded.
type Field struct {
	P      token.Pos
	Name   string
	Type   Type
	Annots []string
}

func (f *Field) Pos() token.Pos { return f.P }

// HeaderDecl declares a header type.
type HeaderDecl struct {
	P      token.Pos
	Name   string
	Fields []*Field
}

// StructDecl declares a struct type (metadata bundles, the `headers`
// struct, etc.).
type StructDecl struct {
	P      token.Pos
	Name   string
	Fields []*Field
}

// TypedefDecl declares a type alias.
type TypedefDecl struct {
	P    token.Pos
	Name string
	Type Type
}

// ConstDecl declares a compile-time constant.
type ConstDecl struct {
	P     token.Pos
	Name  string
	Type  Type
	Value Expr
}

// Param is a parser/control/action parameter. Dir is "", "in", "out" or
// "inout".
type Param struct {
	P    token.Pos
	Dir  string
	Name string
	Type Type
}

func (p *Param) Pos() token.Pos { return p.P }

// ParserDecl declares a parser with its states.
type ParserDecl struct {
	P      token.Pos
	Name   string
	Params []*Param
	Locals []Decl
	States []*StateDecl
}

// StateDecl is one parser state.
type StateDecl struct {
	P     token.Pos
	Name  string
	Stmts []Stmt
	Trans *Transition // nil means implicit transition to reject
}

func (s *StateDecl) Pos() token.Pos { return s.P }

// Transition is a parser state transition: either a direct jump or a
// select expression.
type Transition struct {
	P      token.Pos
	Next   string // direct transition target ("" if Select != nil)
	Select *SelectExpr
}

func (t *Transition) Pos() token.Pos { return t.P }

// SelectExpr is select(e1, e2, ...) { cases }.
type SelectExpr struct {
	P     token.Pos
	Exprs []Expr
	Cases []*SelectCase
}

func (s *SelectExpr) Pos() token.Pos { return s.P }

// SelectCase is one arm of a select. Values holds one expression per
// select key; a DefaultExpr value matches anything.
type SelectCase struct {
	P      token.Pos
	Values []Expr
	Next   string
}

func (s *SelectCase) Pos() token.Pos { return s.P }

// ControlDecl declares a control block with local declarations (actions,
// tables, registers, variables) and an apply block.
type ControlDecl struct {
	P      token.Pos
	Name   string
	Params []*Param
	Locals []Decl
	Apply  *BlockStmt
}

// ActionDecl declares an action.
type ActionDecl struct {
	P      token.Pos
	Name   string
	Params []*Param
	Body   *BlockStmt
}

// TableKey is one key of a table: an expression and its match kind
// (exact, ternary or lpm).
type TableKey struct {
	P         token.Pos
	Expr      Expr
	MatchKind string
}

func (k *TableKey) Pos() token.Pos { return k.P }

// ActionRef references an action in a table's action list or default.
type ActionRef struct {
	P    token.Pos
	Name string
	Args []Expr
}

func (a *ActionRef) Pos() token.Pos { return a.P }

// TableDecl declares a match-action table.
type TableDecl struct {
	P       token.Pos
	Name    string
	Keys    []*TableKey
	Actions []*ActionRef
	Default *ActionRef // nil if unspecified
	Size    int        // 0 if unspecified
}

// RegisterDecl declares a register extern instance:
// register<bit<W>>(size) name;
type RegisterDecl struct {
	P        token.Pos
	Name     string
	ElemType Type
	Size     int
}

// VarDecl declares a local variable, optionally initialized.
type VarDecl struct {
	P    token.Pos
	Name string
	Type Type
	Init Expr // may be nil
}

// InstantiationDecl is a package or extern instantiation, most importantly
// V1Switch(Parser(), VerifyChecksum(), Ingress(), Egress(),
// ComputeChecksum(), Deparser()) main;
type InstantiationDecl struct {
	P        token.Pos
	TypeName string
	Args     []Expr
	Name     string
}

func (d *HeaderDecl) Pos() token.Pos        { return d.P }
func (d *StructDecl) Pos() token.Pos        { return d.P }
func (d *TypedefDecl) Pos() token.Pos       { return d.P }
func (d *ConstDecl) Pos() token.Pos         { return d.P }
func (d *ParserDecl) Pos() token.Pos        { return d.P }
func (d *ControlDecl) Pos() token.Pos       { return d.P }
func (d *ActionDecl) Pos() token.Pos        { return d.P }
func (d *TableDecl) Pos() token.Pos         { return d.P }
func (d *RegisterDecl) Pos() token.Pos      { return d.P }
func (d *VarDecl) Pos() token.Pos           { return d.P }
func (d *InstantiationDecl) Pos() token.Pos { return d.P }

func (*HeaderDecl) declNode()        {}
func (*StructDecl) declNode()        {}
func (*TypedefDecl) declNode()       {}
func (*ConstDecl) declNode()         {}
func (*ParserDecl) declNode()        {}
func (*ControlDecl) declNode()       {}
func (*ActionDecl) declNode()        {}
func (*TableDecl) declNode()         {}
func (*RegisterDecl) declNode()      {}
func (*VarDecl) declNode()           {}
func (*InstantiationDecl) declNode() {}

// ---------------------------------------------------------------- stmts

// Stmt is a statement.
type Stmt interface {
	Node
	stmtNode()
}

// AssignStmt is lhs = rhs;
type AssignStmt struct {
	P        token.Pos
	LHS, RHS Expr
}

// CallStmt is an expression statement consisting of a call, e.g.
// t.apply(); mark_to_drop(standard_metadata); hdr.ipv4.setValid();
type CallStmt struct {
	P    token.Pos
	Call *CallExpr
}

// IfStmt is if (cond) then [else else]; Else is *BlockStmt, *IfStmt or nil.
type IfStmt struct {
	P    token.Pos
	Cond Expr
	Then *BlockStmt
	Else Stmt
}

// BlockStmt is { stmts }.
type BlockStmt struct {
	P     token.Pos
	Stmts []Stmt
}

// SwitchStmt is switch (t.apply().action_run) { cases }. The only switch
// form in P4-16 and in this subset.
type SwitchStmt struct {
	P     token.Pos
	Table Expr // the table.apply() call's receiver (a table name Ident)
	Cases []*SwitchCase
}

// SwitchCase is one arm of a switch. Label is an action name, or "" for
// default. A nil Body denotes a fall-through label.
type SwitchCase struct {
	P     token.Pos
	Label string
	Body  *BlockStmt
}

func (c *SwitchCase) Pos() token.Pos { return c.P }

// ExitStmt terminates pipeline processing.
type ExitStmt struct {
	P token.Pos
}

// ReturnStmt returns from the current control/action.
type ReturnStmt struct {
	P token.Pos
}

// VarDeclStmt wraps a local variable declaration in statement position.
type VarDeclStmt struct {
	Decl *VarDecl
}

// EmptyStmt is a stray semicolon.
type EmptyStmt struct {
	P token.Pos
}

func (s *AssignStmt) Pos() token.Pos  { return s.P }
func (s *CallStmt) Pos() token.Pos    { return s.P }
func (s *IfStmt) Pos() token.Pos      { return s.P }
func (s *BlockStmt) Pos() token.Pos   { return s.P }
func (s *SwitchStmt) Pos() token.Pos  { return s.P }
func (s *ExitStmt) Pos() token.Pos    { return s.P }
func (s *ReturnStmt) Pos() token.Pos  { return s.P }
func (s *VarDeclStmt) Pos() token.Pos { return s.Decl.P }
func (s *EmptyStmt) Pos() token.Pos   { return s.P }

func (*AssignStmt) stmtNode()  {}
func (*CallStmt) stmtNode()    {}
func (*IfStmt) stmtNode()      {}
func (*BlockStmt) stmtNode()   {}
func (*SwitchStmt) stmtNode()  {}
func (*ExitStmt) stmtNode()    {}
func (*ReturnStmt) stmtNode()  {}
func (*VarDeclStmt) stmtNode() {}
func (*EmptyStmt) stmtNode()   {}

// ---------------------------------------------------------------- exprs

// Expr is an expression.
type Expr interface {
	Node
	exprNode()
}

// Ident is a bare identifier.
type Ident struct {
	P    token.Pos
	Name string
}

// Member is x.name (field access, header access, or method selection).
type Member struct {
	P    token.Pos
	X    Expr
	Name string
}

// IndexExpr is x[i] (header stack indexing or register-style access).
type IndexExpr struct {
	P     token.Pos
	X     Expr
	Index Expr
}

// CallExpr is fun(args...). fun is an Ident (extern/action) or Member
// (method such as isValid/apply/extract/read/write).
type CallExpr struct {
	P    token.Pos
	Fun  Expr
	Args []Expr
}

// IntLit is an integer literal. Width is 0 for unsized literals; Signed
// marks the signed width prefix (4s7), which the subset otherwise treats
// as unsigned.
type IntLit struct {
	P      token.Pos
	Width  int
	Val    *big.Int
	Signed bool
}

// BoolLit is true or false.
type BoolLit struct {
	P   token.Pos
	Val bool
}

// UnaryExpr is op x, with Op one of MINUS, TILDE, NOT.
type UnaryExpr struct {
	P  token.Pos
	Op token.Kind
	X  Expr
}

// BinaryExpr is x op y.
type BinaryExpr struct {
	P    token.Pos
	Op   token.Kind
	X, Y Expr
}

// CastExpr is (type) x.
type CastExpr struct {
	P    token.Pos
	Type Type
	X    Expr
}

// TernaryExpr is cond ? a : b.
type TernaryExpr struct {
	P                token.Pos
	Cond, Then, Else Expr
}

// DefaultExpr is the `default` keyword in a select case.
type DefaultExpr struct {
	P token.Pos
}

func (e *Ident) Pos() token.Pos       { return e.P }
func (e *Member) Pos() token.Pos      { return e.P }
func (e *IndexExpr) Pos() token.Pos   { return e.P }
func (e *CallExpr) Pos() token.Pos    { return e.P }
func (e *IntLit) Pos() token.Pos      { return e.P }
func (e *BoolLit) Pos() token.Pos     { return e.P }
func (e *UnaryExpr) Pos() token.Pos   { return e.P }
func (e *BinaryExpr) Pos() token.Pos  { return e.P }
func (e *CastExpr) Pos() token.Pos    { return e.P }
func (e *TernaryExpr) Pos() token.Pos { return e.P }
func (e *DefaultExpr) Pos() token.Pos { return e.P }

func (*Ident) exprNode()       {}
func (*Member) exprNode()      {}
func (*IndexExpr) exprNode()   {}
func (*CallExpr) exprNode()    {}
func (*IntLit) exprNode()      {}
func (*BoolLit) exprNode()     {}
func (*UnaryExpr) exprNode()   {}
func (*BinaryExpr) exprNode()  {}
func (*CastExpr) exprNode()    {}
func (*TernaryExpr) exprNode() {}
func (*DefaultExpr) exprNode() {}

// PathString renders a member/index/ident chain as a dotted path, e.g.
// "hdr.ipv4.ttl" or "hdr.vlan_tag_[0].pcp". Returns "" for expressions
// that are not simple paths.
func PathString(e Expr) string {
	switch x := e.(type) {
	case *Ident:
		return x.Name
	case *Member:
		base := PathString(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Name
	case *IndexExpr:
		base := PathString(x.X)
		if base == "" {
			return ""
		}
		if lit, ok := x.Index.(*IntLit); ok {
			return base + "[" + lit.Val.String() + "]"
		}
		return ""
	case *CallExpr:
		// isValid() in key position: hdr.x.isValid()
		if m, ok := x.Fun.(*Member); ok && len(x.Args) == 0 {
			base := PathString(m.X)
			if base == "" {
				return ""
			}
			return base + "." + m.Name + "()"
		}
		return ""
	default:
		return ""
	}
}
