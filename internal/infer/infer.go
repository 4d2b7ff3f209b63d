// Package infer implements bf4's controller-annotation inference: the
// Infer algorithm (paper Algorithm 1), its fast per-table approximation
// Fast-Infer (Algorithm 2), the multi-table heuristic and the
// dontCare-constrained OK refinement (§4.2). The output is, per table
// instance, a set of forbidden rule shapes — predicates over control
// variables (keys, masks, action selector, action data) that no sane
// controller may satisfy, because every packet hitting such a rule
// triggers a bug. The runtime shim (internal/shim) enforces them; the
// verifier re-checks bug reachability under them to report "bugs after
// Infer" (Table 1).
package infer

import (
	"sort"
	"time"

	"bf4/internal/core"
	"bf4/internal/ir"
	"bf4/internal/obs"
	"bf4/internal/pool"
	"bf4/internal/smt"
	"bf4/internal/solver"
)

// Assertion is one table's inferred controller annotation.
type Assertion struct {
	Instance *ir.TableInstance
	// Forbidden holds conjunctions over control variables; a rule
	// satisfying any of them is buggy and must be blocked.
	Forbidden []*smt.Term
	// Linked, when non-nil, marks a multi-table assertion: the forbidden
	// terms range over both instances' control variables.
	Linked *ir.TableInstance
	// Source records which algorithm produced the assertion.
	Source string
}

// Predicate returns the conjunction ¬f1 ∧ ¬f2 ∧ ... that rules must
// satisfy.
func (a *Assertion) Predicate(f *smt.Factory) *smt.Term {
	out := f.True()
	for _, t := range a.Forbidden {
		out = f.And(out, f.Not(t))
	}
	return out
}

// Result is the outcome of annotation inference over a whole program.
type Result struct {
	Assertions []*Assertion
	// Controlled maps bug nodes that became unreachable under the
	// inferred predicates.
	Controlled map[*ir.Node]bool
	// Uncontrolled lists bugs that remain reachable.
	Uncontrolled []*core.Bug

	FastInferTime time.Duration
	InferTime     time.Duration
	RecheckTime   time.Duration
	InferCalls    int
}

// CombinedPredicate conjoins every assertion's predicate.
func (r *Result) CombinedPredicate(f *smt.Factory) *smt.Term {
	out := f.True()
	for _, a := range r.Assertions {
		out = f.And(out, a.Predicate(f))
	}
	return out
}

// Options tune the inference pipeline (ablation hooks for the
// evaluation).
type Options struct {
	// UseFastInfer runs Algorithm 2 first (paper default: on).
	UseFastInfer bool
	// UseInfer runs Algorithm 1 for bugs Fast-Infer left uncontrolled.
	UseInfer bool
	// UseMultiTable enables the multi-table heuristic.
	UseMultiTable bool
	// UseDontCare constrains OK with ¬reach(dontCare).
	UseDontCare bool
	// MaxInferIterations bounds Algorithm 1's loop per assert point.
	MaxInferIterations int
	// Workers bounds the per-table-instance inference fan-out; <= 0
	// means GOMAXPROCS. Each worker task owns its own solvers (solvers
	// are stateful and must never be shared across goroutines) and
	// results are merged in a fixed instance order, so Run's output is
	// identical for every worker count.
	Workers int
	// Obs, when non-nil, receives phase timings, pool utilization and
	// per-query solver telemetry; Trace parents the phase spans. Both
	// default nil, and the inference output — assertions, controlled set,
	// uncontrolled list — is identical either way.
	Obs   *obs.Registry
	Trace *obs.Span
}

// DefaultOptions matches the paper's configuration.
func DefaultOptions() Options {
	return Options{
		UseFastInfer:       true,
		UseInfer:           true,
		UseMultiTable:      true,
		UseDontCare:        true,
		MaxInferIterations: 200,
	}
}

// Run performs annotation inference for every assert point, following
// the paper's strategy: Fast-Infer first; Infer only for bugs Fast-Infer
// does not control; finally the multi-table heuristic for what remains.
//
// Every phase fans its per-table-instance work out over a bounded worker
// pool (Options.Workers). Solver reuse remains the efficiency lever, but
// ownership is strict: the bug reachability solver from FindBugs (every
// bug condition already blasted) serves all predicate rechecks serially,
// while each Infer task owns a private dual solver holding the OK
// formula that serves that instance's whole model/core loop. Isolating
// the dual solver per instance — rather than sharing one across all
// instances — is what makes the inferred cubes independent of scheduling:
// unsat cores depend on learned-clause state, so any sharing would make
// the output depend on which instances a worker happened to process
// first. Results are merged in instance order, so Assertions and
// Uncontrolled are byte-identical for every worker count.
func Run(pl *core.Pipeline, rep *core.Report, opts Options) *Result {
	f := pl.IR.F
	workers := pool.Workers(opts.Workers)
	res := &Result{Controlled: map[*ir.Node]bool{}}
	re := &rechecker{pl: pl, res: res, s: rep.S, obs: opts.Obs, trace: opts.Trace}
	if re.s == nil {
		re.s = solver.New(f)
		re.s.SetObs(opts.Obs)
	}

	reachableBugs := make([]*core.Bug, 0, len(rep.Bugs))
	for _, b := range rep.Bugs {
		if b.Reachable {
			reachableBugs = append(reachableBugs, b)
		}
	}

	// Phase 1: Fast-Infer on every instance, in parallel (pure symbolic
	// execution over the shared term factory; no solver involved).
	if opts.UseFastInfer {
		start := time.Now()
		sp, done := obs.StartPhase(opts.Obs, opts.Trace, "fastinfer")
		fast := pool.ObservedMap(opts.Obs, "fastinfer", workers, len(pl.IR.Instances), func(i int) *Assertion {
			return FastInfer(pl, pl.IR.Instances[i])
		})
		for _, a := range fast {
			if a != nil && len(a.Forbidden) > 0 {
				res.Assertions = append(res.Assertions, a)
			}
		}
		sp.SetMetric("assertions", int64(len(res.Assertions)))
		done()
		res.FastInferTime = time.Since(start)
	}

	// Recheck which bugs remain reachable under current predicates.
	uncontrolled := re.recheck(reachableBugs)

	// Phase 2: Infer for assert points that still dominate uncontrolled
	// bugs, one task (and one private dual solver) per instance.
	if opts.UseInfer && len(uncontrolled) > 0 {
		start := time.Now()
		sp, phaseDone := obs.StartPhase(opts.Obs, opts.Trace, "infer")
		byInstance := map[*ir.TableInstance][]*core.Bug{}
		for _, b := range uncontrolled {
			if b.Instance != nil {
				byInstance[b.Instance] = append(byInstance[b.Instance], b)
			}
		}
		ok := pl.FullReach.OK
		if opts.UseDontCare {
			ok = f.And(ok, f.Not(pl.FullReach.DontCareReach))
		}
		var insts []*ir.TableInstance
		for _, inst := range pl.IR.Instances {
			if len(byInstance[inst]) > 0 {
				insts = append(insts, inst)
			}
		}
		type inferOut struct {
			a     *Assertion
			calls int
		}
		outs := pool.ObservedMap(opts.Obs, "infer", workers, len(insts), func(i int) inferOut {
			inst := insts[i]
			dual := solver.New(f)
			dual.SetObs(opts.Obs)
			// Model-enumeration solvers run without the term-level
			// rewrite pass: rewriting is verdict-preserving but not
			// model-preserving, and Infer's cubes are built from models
			// and unsat cores, so keeping the circuit fixed is what makes
			// the inferred annotations identical under -rewrite=on/off.
			dual.SetRewrite(nil)
			dual.Assert(ok)
			var out inferOut
			out.a = inferShared(pl, dual, inst, byInstance[inst], opts, &out.calls)
			return out
		})
		for _, o := range outs {
			res.InferCalls += o.calls
			if o.a != nil && len(o.a.Forbidden) > 0 {
				res.Assertions = append(res.Assertions, o.a)
			}
		}
		if opts.Obs != nil {
			opts.Obs.Counter("bf4_infer_calls_total").Add(int64(res.InferCalls))
		}
		sp.SetMetric("instances", int64(len(insts)))
		sp.SetMetric("calls", int64(res.InferCalls))
		phaseDone()
		res.InferTime = time.Since(start)
		uncontrolled = re.recheck(uncontrolled)
	}

	// Phase 3: multi-table heuristic for the stragglers.
	if opts.UseMultiTable && len(uncontrolled) > 0 {
		_, done := obs.StartPhase(opts.Obs, opts.Trace, "multitable")
		for _, a := range MultiTable(pl, uncontrolled, workers) {
			if len(a.Forbidden) > 0 {
				res.Assertions = append(res.Assertions, a)
			}
		}
		done()
		uncontrolled = re.recheck(uncontrolled)
	}

	res.Uncontrolled = uncontrolled
	return res
}

// rechecker incrementally re-verifies bug reachability under the growing
// predicate set, asserting only assertions added since the last call and
// re-checking only still-uncontrolled bugs.
type rechecker struct {
	pl       *core.Pipeline
	res      *Result
	s        *solver.Solver
	asserted int
	obs      *obs.Registry
	trace    *obs.Span
}

func (re *rechecker) recheck(candidates []*core.Bug) []*core.Bug {
	start := time.Now()
	sp, done := obs.StartPhase(re.obs, re.trace, "recheck")
	sp.SetMetric("candidates", int64(len(candidates)))
	defer done()
	defer func() { re.res.RecheckTime += time.Since(start) }()
	f := re.pl.IR.F
	for ; re.asserted < len(re.res.Assertions); re.asserted++ {
		re.s.Assert(re.res.Assertions[re.asserted].Predicate(f))
	}
	var out []*core.Bug
	for _, b := range candidates {
		// Assumption-based Check, not a retractable scope: rechecks revisit
		// the same conditions many times, so the assumption path reuses the
		// blasted circuit via the term memo, while a scope would mint a
		// fresh activation variable and guard clauses per visit.
		if re.s.Check(b.Cond) == solver.Sat {
			out = append(out, b)
		} else {
			re.res.Controlled[b.Node] = true
		}
	}
	return out
}

// ------------------------------------------------------------- Infer

// atomsFor generates the atom set P for an assert point: boolean
// predicates over the instance's control variables, derived syntactically
// (paper §4.2): hit, action_run selections, zero-mask tests, value tests
// for 1-bit keys, plus any branch condition in the expansion whose
// variables are all controlled.
func atomsFor(pl *core.Pipeline, inst *ir.TableInstance) []*smt.Term {
	f := pl.IR.F
	var atoms []*smt.Term
	atoms = append(atoms, inst.HitVar.Term)
	// Iterate action indices in sorted order: the atom order feeds solver
	// assumptions, and map-range order would make unsat cores (and hence
	// the inferred cubes) vary run to run.
	idxs := make([]int, 0, len(inst.ActIndex))
	for _, idx := range inst.ActIndex {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	for _, idx := range idxs {
		atoms = append(atoms, f.Eq(inst.ActVar.Term, f.BVConst64(int64(idx), 8)))
	}
	for j, k := range inst.Table.Keys {
		if inst.MaskVars[j] != nil {
			atoms = append(atoms, f.Eq(inst.MaskVars[j].Term, f.BVConst64(0, k.Width)))
		}
		if k.Width == 1 {
			atoms = append(atoms, f.Eq(inst.KeyVars[j].Term, f.BVConst64(1, 1)))
		}
	}
	// Branch conditions in the expansion region whose variables are all
	// control variables of this instance.
	controlled := controlledSet(inst)
	for _, n := range regionNodes(pl.IR, inst) {
		if n.Kind != ir.Branch {
			continue
		}
		if termControlled(pl.IR, n.Expr, controlled) && !n.Expr.IsTrue() && !n.Expr.IsFalse() {
			atoms = append(atoms, n.Expr)
		}
	}
	return dedupeTerms(atoms)
}

func dedupeTerms(ts []*smt.Term) []*smt.Term {
	seen := map[*smt.Term]bool{}
	out := ts[:0]
	for _, t := range ts {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// controlledSet returns the instance's control variables (Γ).
func controlledSet(inst *ir.TableInstance) map[string]bool {
	out := map[string]bool{}
	add := func(v *ir.Var) {
		if v != nil {
			out[v.Name] = true
		}
	}
	add(inst.HitVar)
	add(inst.ActVar)
	for _, v := range inst.KeyVars {
		add(v)
	}
	for _, v := range inst.MaskVars {
		add(v)
	}
	for _, ps := range inst.ParamVars {
		for _, v := range ps {
			add(v)
		}
	}
	for _, v := range inst.DefaultParamVars {
		add(v)
	}
	return out
}

// termControlled reports whether every variable of t (resolved to its
// base) is in the controlled set. Versioned variables other than version
// 0 are never controlled.
func termControlled(p *ir.Program, t *smt.Term, controlled map[string]bool) bool {
	for _, vt := range t.Vars(nil) {
		if !controlled[vt.Name()] {
			return false
		}
	}
	return true
}

// regionNodes returns the nodes of an instance's expansion (between
// Apply and Join).
func regionNodes(p *ir.Program, inst *ir.TableInstance) []*ir.Node {
	var out []*ir.Node
	seen := map[*ir.Node]bool{inst.Join: true}
	stack := []*ir.Node{inst.Apply}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, n)
		for _, s := range n.Succs {
			// Nodes created before the apply node belong to the outer
			// program (exit targets, shared terminals).
			if s.ID > inst.Apply.ID || s.Kind == ir.BugTerm {
				stack = append(stack, s)
			}
		}
	}
	return out
}

// Infer is the paper's Algorithm 1: iteratively sample bad runs, widen
// each model to a cube over the atom set, verify the cube excludes no
// good run (dual solver + unsat core generalization), and block it.
// This standalone entry point builds its own dual solver; Run uses the
// shared-solver variant.
func Infer(pl *core.Pipeline, inst *ir.TableInstance, bugs []*core.Bug, opts Options, calls *int) *Assertion {
	f := pl.IR.F
	ok := pl.FullReach.OK
	if opts.UseDontCare {
		ok = f.And(ok, f.Not(pl.FullReach.DontCareReach))
	}
	dual := solver.New(f)
	dual.SetRewrite(nil) // model enumeration must be rewrite-independent
	dual.Assert(ok)
	return inferShared(pl, dual, inst, bugs, opts, calls)
}

// inferShared runs Algorithm 1 against a shared dual solver holding the
// OK formula. The assert point's reachability condition is passed as an
// extra assumption and filtered out of the unsat core, so the resulting
// cubes range over control-variable atoms only.
func inferShared(pl *core.Pipeline, dual *solver.Solver, inst *ir.TableInstance, bugs []*core.Bug, opts Options, calls *int) *Assertion {
	f := pl.IR.F
	atoms := atomsFor(pl, inst)
	if len(atoms) == 0 {
		return nil
	}
	reachAP := pl.FullReach.Cond[inst.Apply]
	if reachAP == nil {
		return nil
	}

	// BUG: disjunction of the dominated bugs' reachability conditions.
	bug := f.False()
	for _, b := range bugs {
		bug = f.Or(bug, b.Cond)
	}
	if bug.IsFalse() {
		return nil
	}

	direct := solver.New(f)
	direct.SetObs(opts.Obs)
	direct.SetRewrite(nil) // model enumeration must be rewrite-independent
	direct.Assert(bug)

	atomSet := map[*smt.Term]bool{}
	for _, p := range atoms {
		atomSet[p] = true
		atomSet[f.Not(p)] = true
	}

	a := &Assertion{Instance: inst, Source: "infer"}
	for iter := 0; iter < opts.MaxInferIterations; iter++ {
		*calls++
		if direct.Check() != solver.Sat {
			return a
		}
		model := direct.Model()
		assumptions := make([]*smt.Term, 0, len(atoms)+1)
		for _, p := range atoms {
			if smt.EvalBool(p, model) {
				assumptions = append(assumptions, p)
			} else {
				assumptions = append(assumptions, f.Not(p))
			}
		}
		cubeAll := f.And(assumptions...)
		assumptions = append(assumptions, reachAP)
		if dual.Check(assumptions...) == solver.Unsat {
			// The cube excludes no good run through the table;
			// generalize via the unsat core restricted to the atoms.
			var lits []*smt.Term
			for _, c := range dual.UnsatCore() {
				if atomSet[c] {
					lits = append(lits, c)
				}
			}
			cube := cubeAll
			if len(lits) > 0 {
				cube = f.And(lits...)
			}
			a.Forbidden = append(a.Forbidden, cube)
			direct.Assert(f.Not(cube))
		} else {
			// The cube contains good runs: block this sample and retry.
			direct.Assert(f.Not(cubeAll))
		}
	}
	return a
}
