package prop

import (
	"fmt"

	"bf4/internal/ir"
	p4token "bf4/internal/p4/token"
	"bf4/internal/smt"
)

// Instrumenter wraps Instrument as an ir.Options.Instrument hook, so the
// driver's rebuild loop (Fixes, Infer recheck) re-typechecks and
// re-splices the same property set against every fresh lowering.
func Instrumenter(props []*Property) func(*ir.Program) error {
	return func(p *ir.Program) error { return Instrument(p, props) }
}

// Instrument typechecks every property against the lowered program and
// splices it in:
//
//   - @assume (default anchor): a Branch right after the ingress-entry
//     nop whose false edge leads to an UnreachTerm — executions
//     violating the assumption are excluded from all downstream checks.
//   - @assert (default anchor): a guarded BugAssertFail right after the
//     ingress-end nop, using the exact branch→nop→BugTerm shape of
//     built-in checks so the dataflow pre-discharge and lint machinery
//     apply unchanged.
//   - @after(table): the same shapes anchored behind every expansion
//     instance's Join node, with hit()/action_run() of that table bound
//     to the enclosing instance.
//
// Properties splice in reverse declaration order so execution order at a
// shared anchor matches source order.
func Instrument(p *ir.Program, props []*Property) error {
	for i := len(props) - 1; i >= 0; i-- {
		if err := instrumentOne(p, props[i]); err != nil {
			return err
		}
	}
	return nil
}

func instrumentOne(p *ir.Program, pr *Property) error {
	type anchor struct {
		node *ir.Node
		inst *ir.TableInstance
	}
	var anchors []anchor
	if pr.After != "" {
		ck := newChecker(p, nil, pr.Pos.File)
		insts, err := ck.instancesOf(pr.After, pr.Pos)
		if err != nil {
			return fmt.Errorf("%s: @after: %w", pr.Pos, err)
		}
		for _, inst := range insts {
			if inst.Join == nil {
				return fmt.Errorf("%s: table %s instance %d has no join point", pr.Pos, pr.After, inst.Seq)
			}
			anchors = append(anchors, anchor{node: inst.Join, inst: inst})
		}
	} else {
		at := p.IngressEnd
		if pr.Kind == Assume {
			at = p.IngressEntry
		}
		if at == nil {
			return fmt.Errorf("%s: program has no ingress anchors for properties", pr.Pos)
		}
		anchors = append(anchors, anchor{node: at})
	}
	for _, a := range anchors {
		ck := newChecker(p, a.inst, pr.Pos.File)
		if err := ck.checkProperty(pr); err != nil {
			return err
		}
		cond := (&compiler{c: ck.c, f: p.F}).compile(pr.Expr)
		splice(p, a.node, pr, cond)
	}
	return nil
}

// splice rewires the anchor's out-edges through the property check.
// Asserts become
//
//	anchor → branch(!cond) ─[true]→ nop → BugTerm(BugAssertFail)
//	                        └[false]→ nop → (anchor's old successors)
//
// matching the guarded shape analysis.guardOf expects; assumes become
//
//	anchor → branch(cond) ─[true]→ nop → (old successors)
//	                       └[false]→ UnreachTerm
func splice(p *ir.Program, at *ir.Node, pr *Property, cond *smt.Term) {
	info := &ir.PropInfo{
		Kind:       pr.Kind.String(),
		Origin:     pr.Origin(),
		Text:       pr.Text,
		FromSource: pr.FromSource,
		Line:       pr.Pos.Line,
		Col:        pr.Pos.Col,
	}
	var pos p4token.Pos
	if pr.FromSource {
		pos = p4token.Pos{Line: pr.Pos.Line, Col: pr.Pos.Col}
	}

	succs := append([]*ir.Node(nil), at.Succs...)
	at.Succs = at.Succs[:0]
	for _, s := range succs {
		removePred(s, at)
	}

	g := p.NewNode(ir.Branch)
	g.Pos = pos
	g.Prop = info
	p.Edge(at, g)

	if pr.Kind == Assume {
		g.Expr = cond
		cont := p.NewNode(ir.Nop)
		cont.Comment = "prop-assume-ok"
		p.Edge(g, cont) // Succs[0] = assumption holds
		p.Edge(g, unreachNode(p))
		for _, s := range succs {
			p.Edge(cont, s)
		}
		return
	}

	g.Expr = p.F.Not(cond)
	then := p.NewNode(ir.Nop)
	then.Comment = "then"
	els := p.NewNode(ir.Nop)
	els.Comment = "else"
	p.Edge(g, then) // Succs[0] = property violated
	p.Edge(g, els)
	bug := p.NewNode(ir.BugTerm)
	bug.Bug = ir.BugAssertFail
	bug.Pos = pos
	bug.Prop = info
	bug.Comment = fmt.Sprintf("assert %s fails (%s)", pr.Text, pr.Origin())
	p.Edge(then, bug)
	p.Bugs = append(p.Bugs, bug)
	for _, s := range succs {
		p.Edge(els, s)
	}
}

func removePred(n, pred *ir.Node) {
	for i, q := range n.Preds {
		if q == pred {
			n.Preds = append(n.Preds[:i], n.Preds[i+1:]...)
			return
		}
	}
}

// unreachNode returns the program's UnreachTerm, creating one if the
// lowering did not leave one behind.
func unreachNode(p *ir.Program) *ir.Node {
	for _, n := range p.Nodes {
		if n.Kind == ir.UnreachTerm {
			return n
		}
	}
	n := p.NewNode(ir.UnreachTerm)
	n.Comment = "prop-assume-violated"
	return n
}
