package prop

import (
	"fmt"

	"bf4/internal/p4/ast"
	"bf4/internal/p4/token"
	"bf4/internal/smt"
)

// compiler lowers a typechecked property expression to an smt term over
// the program's version-0 variable terms (passification later rewrites
// them to SSA versions along with the rest of the IR). Every name was
// already bound by the typechecker, so compilation cannot fail on
// user input; an unbound node here is a compiler bug and panics.
type compiler struct {
	c *checked
	f *smt.Factory
}

// compile lowers e; check has accepted e, so every form is one of the
// cases below.
func (cp *compiler) compile(e ast.Expr) *smt.Term {
	switch e := e.(type) {
	case *ast.Ident, *ast.Member:
		return cp.c.vars[e].Term

	case *ast.IntLit:
		w := e.Width
		if adapted, ok := cp.c.intWidth[e]; ok {
			w = adapted
		}
		return cp.f.BVConst(e.Val, w)

	case *ast.BoolLit:
		return cp.f.Bool(e.Val)

	case *ast.CallExpr:
		if v := cp.c.vars[e]; v != nil {
			return v.Term
		}
		hit := cp.c.insts[e].HitVar.Term
		switch builtin(e) {
		case "hit":
			return hit
		case "miss":
			return cp.f.Not(hit)
		}
		// action_run is only reachable through an action comparison,
		// which compiles the whole ==/!= node without recursing here.

	case *ast.UnaryExpr:
		x := cp.compile(e.X)
		switch e.Op {
		case token.NOT:
			return cp.f.Not(x)
		case token.TILDE:
			return cp.f.BVNot(x)
		case token.MINUS:
			return cp.f.Neg(x)
		}

	case *ast.BinaryExpr:
		return cp.compileBinary(e)
	}
	panic(fmt.Sprintf("prop: %s compiled without being checked", ast.PrintExpr(e)))
}

func (cp *compiler) compileBinary(e *ast.BinaryExpr) *smt.Term {
	if call, name := actionCompare(e); call != nil {
		inst := cp.c.insts[call]
		eq := cp.f.Eq(inst.ActVar.Term, cp.f.BVConst64(int64(cp.c.actIdx[name]), inst.ActVar.Sort.Width))
		if e.Op == token.NEQ {
			return cp.f.Not(eq)
		}
		return eq
	}
	x := cp.compile(e.X)
	y := cp.compile(e.Y)
	switch e.Op {
	case token.IMPLIES:
		return cp.f.Implies(x, y)
	case token.OR:
		return cp.f.Or(x, y)
	case token.AND:
		return cp.f.And(x, y)
	case token.EQ:
		return cp.f.Eq(x, y)
	case token.NEQ:
		return cp.f.Not(cp.f.Eq(x, y))
	case token.LANGLE:
		return cp.f.Ult(x, y)
	case token.LEQ:
		return cp.f.Ule(x, y)
	case token.RANGLE:
		return cp.f.Ult(y, x)
	case token.GEQ:
		return cp.f.Ule(y, x)
	case token.PIPE:
		return cp.f.BVOr(x, y)
	case token.CARET:
		return cp.f.BVXor(x, y)
	case token.AMP:
		return cp.f.BVAnd(x, y)
	case token.PLUS:
		return cp.f.Add(x, y)
	case token.MINUS:
		return cp.f.Sub(x, y)
	}
	panic(fmt.Sprintf("prop: operator %s compiled without being checked", e.Op))
}
