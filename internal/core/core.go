// Package core is bf4's verification engine (the paper's Figure 3): it
// compiles P4 source through the frontend, IR lowering (expansion +
// instrumentation), passification and reachability-condition generation,
// then decides per-bug reachability with the SMT solver, producing models
// (counterexample inputs) for each reachable bug and associating every
// bug with its dominating assert point (table apply).
package core

import (
	"fmt"
	"sort"
	"time"

	"bf4/internal/cfg"
	"bf4/internal/ir"
	"bf4/internal/obs"
	"bf4/internal/p4/ast"
	"bf4/internal/p4/parser"
	"bf4/internal/p4/types"
	"bf4/internal/slice"
	"bf4/internal/smt"
	"bf4/internal/solver"
	"bf4/internal/ssa"
	"bf4/internal/wp"
)

// Pipeline bundles all compiled artifacts for one P4 program.
type Pipeline struct {
	Source string
	AST    *ast.Program
	Info   *types.Info
	IR     *ir.Program
	Pass   *ssa.Result
	// Reach holds sliced reachability conditions for bug checks;
	// FullReach holds the unsliced conditions (OK formula for Infer).
	Reach      *wp.Reach
	FullReach  *wp.Reach
	Doms       *cfg.Dominators
	SliceStats slice.Stats
	Options    ir.Options
	Sliced     bool

	// CompileTime covers frontend + IR + SSA + WP, for the evaluation
	// harness.
	CompileTime time.Duration
}

// Compile runs the frontend and all verification-form passes.
func Compile(src string, opts ir.Options, useSlicing bool) (*Pipeline, error) {
	return CompileObs(src, opts, useSlicing, nil, nil)
}

// CompileObs is Compile with observability: each pipeline stage (parse,
// typecheck, lower, passify, wp, slice) becomes a child span of parent
// and adds its wall time to a bf4_phase_<stage>_ns_total counter. A nil
// registry and span make it exactly Compile — the artifacts are identical
// either way (instrumentation only reads the clock).
func CompileObs(src string, opts ir.Options, useSlicing bool, reg *obs.Registry, parent *obs.Span) (*Pipeline, error) {
	start := time.Now()
	_, done := obs.StartPhase(reg, parent, "parse")
	prog, err := parser.Parse(src)
	done()
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	_, done = obs.StartPhase(reg, parent, "typecheck")
	info, err := types.Check(prog)
	done()
	if err != nil {
		return nil, fmt.Errorf("typecheck: %w", err)
	}
	return CompileCheckedObs(src, prog, info, opts, useSlicing, start, reg, parent)
}

// CompileChecked continues compilation from an already-checked AST.
func CompileChecked(src string, prog *ast.Program, info *types.Info, opts ir.Options, useSlicing bool, start time.Time) (*Pipeline, error) {
	return CompileCheckedObs(src, prog, info, opts, useSlicing, start, nil, nil)
}

// CompileCheckedObs is CompileChecked with per-stage spans and phase
// counters (see CompileObs).
func CompileCheckedObs(src string, prog *ast.Program, info *types.Info, opts ir.Options, useSlicing bool, start time.Time, reg *obs.Registry, parent *obs.Span) (*Pipeline, error) {
	sp, done := obs.StartPhase(reg, parent, "lower")
	p, err := ir.Build(prog, info, opts)
	done()
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	sp.SetMetric("nodes", int64(len(p.Nodes)))
	sp.SetMetric("bugs", int64(len(p.Bugs)))

	_, done = obs.StartPhase(reg, parent, "passify")
	pass := ssa.Passify(p)
	done()

	_, done = obs.StartPhase(reg, parent, "wp")
	full := wp.Compute(p, pass, nil)
	done()

	pl := &Pipeline{
		Source:    src,
		AST:       prog,
		Info:      info,
		IR:        p,
		Pass:      pass,
		FullReach: full,
		Doms:      cfg.NewDominators(p),
		Options:   opts,
		Sliced:    useSlicing,
	}
	if useSlicing {
		sp, done := obs.StartPhase(reg, parent, "slice")
		keep, stats := slice.WRTBugs(p)
		pl.SliceStats = stats
		pl.Reach = wp.Compute(p, pass, keep)
		sp.SetMetric("kept", int64(stats.SliceInstructions))
		sp.SetMetric("total", int64(stats.TotalInstructions))
		done()
	} else {
		pl.SliceStats = slice.Stats{
			TotalInstructions: p.NumInstructions(),
			SliceInstructions: p.NumInstructions(),
		}
		pl.Reach = full
	}
	pl.CompileTime = time.Since(start)
	return pl, nil
}

// Bug is one potential bug and its verification outcome.
type Bug struct {
	Node      *ir.Node
	Kind      ir.BugKind
	Reachable bool
	// Instance is the table instance whose assert point dominates the
	// bug (nil for bugs outside any table, e.g. egress_spec).
	Instance *ir.TableInstance
	// Model is a satisfying assignment for the bug's reachability
	// condition (inputs + table entries), present when Reachable.
	Model smt.Env
	// Cond is the bug's reachability condition.
	Cond *smt.Term
	// Discharged marks a bug whose solver query a static layer skipped:
	// either the dataflow pre-pass (internal/analysis) proved the bug
	// node unreachable, or the term-level rewrite engine
	// (internal/smt/rewrite) folded the reachability condition to false.
	// Both guarantee the query is unsatisfiable, so the bug is reported
	// exactly as an unsat answer would leave it.
	Discharged bool
}

// Description renders a human-readable bug summary.
func (b *Bug) Description() string {
	where := ""
	if b.Instance != nil {
		where = " in table " + b.Instance.Table.Name
	}
	pos := ""
	if b.Node.Pos.IsValid() {
		pos = fmt.Sprintf(" at %s", b.Node.Pos)
	}
	return fmt.Sprintf("[%s]%s%s: %s", b.Kind, where, pos, b.Node.Comment)
}

// Report is the result of the bug-finding phase.
type Report struct {
	Pipeline  *Pipeline
	Bugs      []*Bug
	SolveTime time.Duration
	Checks    int
	// FoldDischarged counts bug conditions the term-level rewrite engine
	// folded to false — solver queries skipped beyond the dataflow
	// pre-pass's discharge set.
	FoldDischarged int
	// CNFVars/CNFClauses snapshot the blasted circuit size at the end of
	// bug finding, before the inference phase reuses the solver — the
	// "CNF before vs after rewriting" number the experiments layer
	// compares across -rewrite=on/off.
	CNFVars, CNFClauses int
	// S is the incremental solver used for the reachability checks; the
	// inference phase reuses it (all bug conditions are already blasted)
	// for its predicate rechecks.
	S *solver.Solver
}

// NumReachable counts reachable bugs.
func (r *Report) NumReachable() int {
	n := 0
	for _, b := range r.Bugs {
		if b.Reachable {
			n++
		}
	}
	return n
}

// ReachableByKind tallies reachable bugs per class.
func (r *Report) ReachableByKind() map[ir.BugKind]int {
	out := map[ir.BugKind]int{}
	for _, b := range r.Bugs {
		if b.Reachable {
			out[b.Kind]++
		}
	}
	return out
}

// FindBugs checks reachability of every instrumented bug (paper §4.1:
// SAT(reach(bug)) per bug node, incrementally on one solver).
func (pl *Pipeline) FindBugs() *Report {
	return pl.FindBugsSkipping(nil)
}

// FindBugsSkipping is FindBugs with a pre-discharge set: bug nodes in
// skip were proven statically unreachable by internal/analysis, so their
// reachability condition is unsatisfiable and the solver query can be
// skipped. Discharged bugs still appear in the report exactly as an unsat
// answer would leave them (Reachable false, no model), with Discharged
// set, so every downstream consumer (Infer, Fixes, the spec builder) sees
// an identical bug list either way.
func (pl *Pipeline) FindBugsSkipping(skip map[*ir.Node]bool) *Report {
	return pl.FindBugsObs(skip, nil, nil)
}

// FindBugsObs is FindBugsSkipping with observability: the whole phase is
// one child span of parent (annotated with check/reachable/discharged
// counts), the bug-check solver publishes its per-query telemetry to reg
// (see solver.SetObs), and discharge outcomes land on
// bf4_core_discharged_{analysis,fold}_total. Verdicts and models are
// identical with reg/parent nil — the solver path is untouched.
func (pl *Pipeline) FindBugsObs(skip map[*ir.Node]bool, reg *obs.Registry, parent *obs.Span) *Report {
	return pl.FindBugsWith(FindOptions{Skip: skip, Obs: reg, Trace: parent})
}

// FindOptions configures the bug-finding phase.
type FindOptions struct {
	// Skip holds bug nodes pre-discharged by internal/analysis.
	Skip map[*ir.Node]bool
	// Obs/Trace attach observability (see FindBugsObs).
	Obs   *obs.Registry
	Trace *obs.Span
	// Incremental asserts each bug check's condition inside a
	// retractable activation scope (solver.CheckIn/Retract) instead of
	// passing it as a Check assumption; the slice's one solver is shared
	// either way. Verdicts and reported models' satisfying status are
	// unchanged — the identity harness pins -incremental=on/off reports
	// byte-identical.
	Incremental bool
}

// FindBugsWith is the fully-parameterised bug finder; FindBugs,
// FindBugsSkipping and FindBugsObs delegate to it.
func (pl *Pipeline) FindBugsWith(opts FindOptions) *Report {
	skip, reg, parent := opts.Skip, opts.Obs, opts.Trace
	start := time.Now()
	sp, done := obs.StartPhase(reg, parent, "findbugs")
	defer done()
	s := solver.New(pl.IR.F)
	s.SetObs(reg)
	rep := &Report{Pipeline: pl, S: s}
	reachable := pl.IR.Reachable()

	bugs := append([]*ir.Node(nil), pl.IR.Bugs...)
	sort.Slice(bugs, func(i, j int) bool { return bugs[i].ID < bugs[j].ID })
	for _, bn := range bugs {
		if !reachable[bn] {
			continue
		}
		cond := pl.Reach.Cond[bn]
		if cond == nil {
			continue
		}
		b := &Bug{Node: bn, Kind: bn.Bug, Cond: cond}
		if ap := cfg.DominatingAssertPoint(pl.Doms, bn); ap != nil {
			b.Instance = ap.Instance
		}
		if cond.IsFalse() {
			rep.Bugs = append(rep.Bugs, b)
			continue
		}
		if skip[bn] {
			b.Discharged = true
			rep.Bugs = append(rep.Bugs, b)
			continue
		}
		// Term-level pre-discharge: if the solver's rewrite pass folds
		// the condition to false, the query is unsatisfiable by
		// construction — report the bug exactly as an unsat check would
		// (Reachable false, no model), like the dataflow discharge path.
		if s.Simplify(cond).IsFalse() {
			b.Discharged = true
			rep.FoldDischarged++
			rep.Bugs = append(rep.Bugs, b)
			continue
		}
		var res solver.Result
		if opts.Incremental {
			res = s.CheckIn(cond)
		} else {
			res = s.Check(cond)
		}
		rep.Checks++
		if res == solver.Sat {
			b.Reachable = true
			b.Model = s.Model()
		}
		if opts.Incremental {
			s.Retract()
		}
		rep.Bugs = append(rep.Bugs, b)
	}
	rep.CNFVars, rep.CNFClauses, _, _ = s.Stats()
	rep.SolveTime = time.Since(start)
	if reg != nil {
		reg.Counter("bf4_core_bugs_total").Add(int64(len(rep.Bugs)))
		reg.Counter("bf4_core_bugs_reachable_total").Add(int64(rep.NumReachable()))
		discharged := 0
		for _, b := range rep.Bugs {
			if b.Discharged {
				discharged++
			}
		}
		reg.Counter("bf4_core_discharged_analysis_total").Add(int64(discharged - rep.FoldDischarged))
		reg.Counter("bf4_core_discharged_fold_total").Add(int64(rep.FoldDischarged))
		sp.SetMetric("checks", int64(rep.Checks))
		sp.SetMetric("reachable", int64(rep.NumReachable()))
		sp.SetMetric("discharged", int64(discharged))
	}
	return rep
}
