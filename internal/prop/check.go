package prop

import (
	"fmt"
	"sort"
	"strings"

	"bf4/internal/ir"
	"bf4/internal/p4/ast"
	"bf4/internal/p4/token"
)

// vkind is the property-DSL type kind.
type vkind int

const (
	vBool   vkind = iota
	vBV           // sized bit-vector
	vInt          // unsized integer literal, adapts to a sized operand
	vAction       // opaque action selector of a table instance
)

// vtype is the property-DSL type of an expression.
type vtype struct {
	kind  vkind
	width int               // for vBV
	inst  *ir.TableInstance // for vAction
}

func (t vtype) String() string {
	switch t.kind {
	case vBool:
		return "bool"
	case vBV:
		return fmt.Sprintf("bit<%d>", t.width)
	case vInt:
		return "int"
	default:
		return fmt.Sprintf("action selector of %s", t.inst.Table.Name)
	}
}

// checked is the resolution side-table the typechecker fills in and the
// compiler consumes: every name is bound to an IR entity here, so
// compile.go is a pure term constructor.
type checked struct {
	vars     map[ast.Expr]*ir.Var                // field paths → vars, isValid() calls → validity bits
	insts    map[*ast.CallExpr]*ir.TableInstance // hit/miss/action_run calls → instances
	actIdx   map[ast.Expr]int                    // action-name operands → ActIndex value
	intWidth map[*ast.IntLit]int                 // adapted widths for unsized literals
}

// checker typechecks one property expression against a lowered program.
// anchor, when non-nil, is the table instance the property is spliced
// behind (@after): hit/action_run references to the anchor's table
// resolve to that exact instance; references to other tables resolve to
// the last instance in program order. file names the property's origin
// in diagnostics.
type checker struct {
	p      *ir.Program
	anchor *ir.TableInstance
	file   string
	c      *checked
}

func newChecker(p *ir.Program, anchor *ir.TableInstance, file string) *checker {
	return &checker{p: p, anchor: anchor, file: file, c: &checked{
		vars:     map[ast.Expr]*ir.Var{},
		insts:    map[*ast.CallExpr]*ir.TableInstance{},
		actIdx:   map[ast.Expr]int{},
		intWidth: map[*ast.IntLit]int{},
	}}
}

// checkProperty typechecks the whole property: the predicate must be
// boolean.
func (ck *checker) checkProperty(pr *Property) error {
	t, err := ck.check(pr.Expr)
	if err != nil {
		return err
	}
	if t.kind != vBool {
		return fmt.Errorf("%s: property predicate has type %s, want bool", ck.at(pr.Expr), t)
	}
	return nil
}

// at is the diagnostic position of e: the root identifier of a path or
// call, otherwise the node's own position (the operator of a unary or
// binary node).
func (ck *checker) at(e ast.Expr) Pos {
	switch x := e.(type) {
	case *ast.Member:
		return ck.at(x.X)
	case *ast.CallExpr:
		return ck.at(x.Fun)
	}
	p := e.Pos()
	return Pos{File: ck.file, Line: p.Line, Col: p.Col}
}

// unsupported reports a P4 expression form properties do not accept.
func (ck *checker) unsupported(e ast.Expr) error {
	var what string
	switch e := e.(type) {
	case *ast.CastExpr:
		what = "a cast"
	case *ast.TernaryExpr:
		what = "?:"
	case *ast.IndexExpr:
		what = "indexing"
	case *ast.IntLit:
		what = "a signed literal"
	case *ast.BinaryExpr:
		what = "operator " + e.Op.String()
	default:
		what = fmt.Sprintf("%q", ast.PrintExpr(e))
	}
	return fmt.Errorf("%s: %s is not supported in properties", ck.at(e), what)
}

// pathParts returns the names of a dotted Member chain on an Ident root
// (hdr.ipv4.ttl → [hdr ipv4 ttl]), or nil for any other expression.
func pathParts(e ast.Expr) []string {
	switch e := e.(type) {
	case *ast.Ident:
		return []string{e.Name}
	case *ast.Member:
		if base := pathParts(e.X); base != nil {
			return append(base, e.Name)
		}
	}
	return nil
}

// varName maps a dotted property path onto the lowered variable
// namespace; standard_metadata is an alias for the internal smeta
// prefix. ok is false unless the path is a field under a known root.
func varName(parts []string) (name string, ok bool) {
	if len(parts) < 2 {
		return "", false
	}
	root := parts[0]
	switch root {
	case "standard_metadata":
		root = "smeta"
	case "hdr", "meta", "smeta":
	default:
		return "", false
	}
	return root + "." + strings.Join(parts[1:], "."), true
}

// resolvePath resolves a field path (a dotted Member chain on an Ident
// root) to a program variable name, or reports why e is not one.
func (ck *checker) resolvePath(e ast.Expr) (string, error) {
	parts := pathParts(e)
	if name, ok := varName(parts); ok {
		return name, nil
	}
	switch {
	case parts == nil:
		return "", ck.unsupported(e)
	case len(parts) < 2:
		return "", fmt.Errorf("%s: %q is not a field reference; paths start with hdr., meta. or standard_metadata.", ck.at(e), parts[0])
	}
	return "", fmt.Errorf("%s: unknown name %q; paths start with hdr., meta. or standard_metadata.", ck.at(e), parts[0])
}

// builtin returns the name of a hit(t), miss(t) or action_run(t) call,
// or "" for any other call.
func builtin(c *ast.CallExpr) string {
	if id, ok := c.Fun.(*ast.Ident); ok && (id.Name == "hit" || id.Name == "miss" || id.Name == "action_run") {
		return id.Name
	}
	return ""
}

// validityOf returns the header path of a `<path>.isValid()` call, or
// nil when c is not one.
func validityOf(c *ast.CallExpr) ast.Expr {
	if m, ok := c.Fun.(*ast.Member); ok && m.Name == "isValid" && len(c.Args) == 0 {
		return m.X
	}
	return nil
}

// instancesOf returns the expansion instances of the named table in
// program order, or an error naming the known tables when absent.
func (ck *checker) instancesOf(table string, pos Pos) ([]*ir.TableInstance, error) {
	var out []*ir.TableInstance
	for _, inst := range ck.p.Instances {
		if inst.Table.Name == table {
			out = append(out, inst)
		}
	}
	if len(out) == 0 {
		known := make([]string, 0, len(ck.p.Tables))
		for name := range ck.p.Tables {
			known = append(known, name)
		}
		sort.Strings(known)
		return nil, fmt.Errorf("%s: unknown table %q (known: %s)", pos, table, strings.Join(known, ", "))
	}
	return out, nil
}

// resolveInstance picks the instance a hit/action_run reference binds
// to: the anchor instance when the property is anchored @after the same
// table, otherwise the last apply of that table.
func (ck *checker) resolveInstance(table string, pos Pos) (*ir.TableInstance, error) {
	if ck.anchor != nil && ck.anchor.Table.Name == table {
		return ck.anchor, nil
	}
	insts, err := ck.instancesOf(table, pos)
	if err != nil {
		return nil, err
	}
	return insts[len(insts)-1], nil
}

// check computes the type of e, binding names into the side-table. Any
// P4 expression form without a case here is rejected by default.
func (ck *checker) check(e ast.Expr) (vtype, error) {
	switch e := e.(type) {
	case *ast.Ident, *ast.Member:
		name, err := ck.resolvePath(e)
		if err != nil {
			return vtype{}, err
		}
		v, ok := ck.p.Vars[name]
		if !ok {
			return vtype{}, fmt.Errorf("%s: no field %q in the program (resolved to %q)", ck.at(e), ast.PrintExpr(e), name)
		}
		ck.c.vars[e] = v
		if v.Sort.IsBool() {
			return vtype{kind: vBool}, nil
		}
		return vtype{kind: vBV, width: v.Sort.Width}, nil

	case *ast.IntLit:
		if e.Signed {
			return vtype{}, ck.unsupported(e)
		}
		if e.Width == 0 {
			return vtype{kind: vInt}, nil
		}
		if e.Val.BitLen() > e.Width {
			return vtype{}, fmt.Errorf("%s: literal %s does not fit in bit<%d>", ck.at(e), e.Val, e.Width)
		}
		return vtype{kind: vBV, width: e.Width}, nil

	case *ast.BoolLit:
		return vtype{kind: vBool}, nil

	case *ast.CallExpr:
		return ck.checkCall(e)

	case *ast.UnaryExpr:
		t, err := ck.check(e.X)
		if err != nil {
			return vtype{}, err
		}
		want, wantText := vBV, "a sized bit-vector" // ~ and -
		if e.Op == token.NOT {
			want, wantText = vBool, "bool"
		}
		if t.kind != want {
			return vtype{}, fmt.Errorf("%s: operand of %s has type %s, want %s", ck.at(e.X), e.Op, t, wantText)
		}
		return t, nil

	case *ast.BinaryExpr:
		return ck.checkBinary(e)

	default: // casts, ?:, indexing, default
		return vtype{}, ck.unsupported(e)
	}
}

// checkCall types the builtins: <header>.isValid(), hit(t), miss(t) and
// action_run(t).
func (ck *checker) checkCall(e *ast.CallExpr) (vtype, error) {
	if hdr := validityOf(e); hdr != nil {
		name, err := ck.resolvePath(hdr)
		if err != nil {
			return vtype{}, err
		}
		h, ok := ck.p.Headers[name]
		if !ok {
			return vtype{}, fmt.Errorf("%s: %q is not a header, cannot take isValid()", ck.at(e), ast.PrintExpr(hdr))
		}
		ck.c.vars[e] = h.Valid
		return vtype{kind: vBool}, nil
	}
	fn := builtin(e)
	if fn == "" {
		return vtype{}, ck.unsupported(e)
	}
	var table *ast.Ident
	if len(e.Args) == 1 {
		table, _ = e.Args[0].(*ast.Ident)
	}
	if table == nil {
		return vtype{}, fmt.Errorf("%s: %s(...) wants one table name", ck.at(e), fn)
	}
	inst, err := ck.resolveInstance(table.Name, ck.at(e))
	if err != nil {
		return vtype{}, err
	}
	ck.c.insts[e] = inst
	if fn == "action_run" {
		return vtype{kind: vAction, inst: inst}, nil
	}
	return vtype{kind: vBool}, nil
}

func (ck *checker) checkBinary(e *ast.BinaryExpr) (vtype, error) {
	// Action comparisons are special-cased before recursion: the action
	// name operand is a bare identifier, not a field path.
	if call, name := actionCompare(e); call != nil {
		parts := pathParts(name)
		if parts == nil {
			return vtype{}, fmt.Errorf("%s: action_run(...) compares against an action name", ck.at(e))
		}
		if _, err := ck.check(call); err != nil {
			return vtype{}, err
		}
		inst := ck.c.insts[call]
		if len(parts) != 1 {
			return vtype{}, fmt.Errorf("%s: %q is not an action of table %s", ck.at(name), strings.Join(parts, "."), inst.Table.Name)
		}
		idx, ok := inst.ActIndex[parts[0]]
		if !ok {
			known := make([]string, 0, len(inst.ActIndex))
			for act := range inst.ActIndex {
				known = append(known, act)
			}
			sort.Strings(known)
			return vtype{}, fmt.Errorf("%s: table %s has no action %q (actions: %s)", ck.at(name), inst.Table.Name, parts[0], strings.Join(known, ", "))
		}
		ck.c.actIdx[name] = idx
		return vtype{kind: vBool}, nil
	}

	tx, err := ck.check(e.X)
	if err != nil {
		return vtype{}, err
	}
	ty, err := ck.check(e.Y)
	if err != nil {
		return vtype{}, err
	}
	if tx.kind == vAction || ty.kind == vAction {
		return vtype{}, fmt.Errorf("%s: action_run(...) may only be compared (==/!=) against an action name", ck.at(e))
	}

	switch e.Op {
	case token.IMPLIES, token.OR, token.AND:
		if tx.kind != vBool || ty.kind != vBool {
			return vtype{}, fmt.Errorf("%s: operands of %s have types %s and %s, want bool", ck.at(e), e.Op, tx, ty)
		}
		return vtype{kind: vBool}, nil

	case token.EQ, token.NEQ, token.LANGLE, token.LEQ, token.RANGLE, token.GEQ:
		eq := e.Op == token.EQ || e.Op == token.NEQ
		if eq && tx.kind == vBool && ty.kind == vBool {
			return vtype{kind: vBool}, nil
		}
		if _, err := ck.adapt(e, tx, ty); err != nil {
			return vtype{}, err
		}
		return vtype{kind: vBool}, nil

	case token.PIPE, token.CARET, token.AMP, token.PLUS, token.MINUS:
		w, err := ck.adapt(e, tx, ty)
		if err != nil {
			return vtype{}, err
		}
		return vtype{kind: vBV, width: w}, nil

	default: // * / % << >> ++
		return vtype{}, ck.unsupported(e)
	}
}

// adapt unifies the widths of a bit-vector binary operation, sizing an
// unsized literal to the other operand. Comparisons are unsigned.
func (ck *checker) adapt(e *ast.BinaryExpr, tx, ty vtype) (int, error) {
	badOperands := func() error {
		return fmt.Errorf("%s: operands of %s have types %s and %s, want bit-vectors of one width", ck.at(e), e.Op, tx, ty)
	}
	switch {
	case tx.kind == vBV && ty.kind == vBV:
		if tx.width != ty.width {
			return 0, badOperands()
		}
		return tx.width, nil
	case tx.kind == vBV && ty.kind == vInt:
		return tx.width, ck.sizeLiteral(e.Y.(*ast.IntLit), tx.width)
	case tx.kind == vInt && ty.kind == vBV:
		return ty.width, ck.sizeLiteral(e.X.(*ast.IntLit), ty.width)
	case tx.kind == vInt && ty.kind == vInt:
		return 0, fmt.Errorf("%s: cannot infer a width for %s between two unsized literals; size one (e.g. 8w%s)", ck.at(e), e.Op, e.X.(*ast.IntLit).Val)
	default:
		return 0, badOperands()
	}
}

func (ck *checker) sizeLiteral(e *ast.IntLit, width int) error {
	if e.Val.BitLen() > width {
		return fmt.Errorf("%s: literal %s does not fit in bit<%d>", ck.at(e), e.Val, width)
	}
	ck.c.intWidth[e] = width
	return nil
}

// actionCompare recognizes `action_run(t) == name` / `name != action_run(t)`
// shapes, returning the action_run call and the other operand; the call
// is nil when neither side is one.
func actionCompare(e *ast.BinaryExpr) (*ast.CallExpr, ast.Expr) {
	if e.Op != token.EQ && e.Op != token.NEQ {
		return nil, nil
	}
	if c, ok := e.X.(*ast.CallExpr); ok && builtin(c) == "action_run" {
		return c, e.Y
	}
	if c, ok := e.Y.(*ast.CallExpr); ok && builtin(c) == "action_run" {
		return c, e.X
	}
	return nil, nil
}
