// Package solver is the Z3-like façade bf4's algorithms program against:
// assert formulas, check satisfiability under assumptions, extract models
// and unsat cores. It glues the hash-consed term layer (internal/smt) to
// the bit-blaster (internal/bitblast) and the CDCL core (internal/sat),
// and is incremental: learned clauses and blasted circuitry persist across
// Check calls, which is what makes the per-bug reachability queries and
// Infer's model/core loop cheap after the first call.
package solver

import (
	"fmt"
	"math/big"
	"time"

	"bf4/internal/bitblast"
	"bf4/internal/obs"
	"bf4/internal/sat"
	"bf4/internal/smt"
)

// Result mirrors sat.Result at the SMT level.
type Result = sat.Result

// Re-exported results for call-site readability.
const (
	Sat     = sat.Sat
	Unsat   = sat.Unsat
	Unknown = sat.Unknown
)

// Solver is an incremental QF_BV solver. Create with New; not safe for
// concurrent use.
type Solver struct {
	f    *smt.Factory
	sat  *sat.Solver
	ctx  *bitblast.Context
	vars map[*smt.Term]bool // variables seen so far, for model extraction

	// varSeen records every DAG node registerVars has walked (keyed by
	// Term.ID()), so repeated asserts over shared structure cost one walk
	// of each distinct node in total instead of re-walking the whole DAG
	// per call.
	varSeen map[uint32]bool

	// rewrite, when non-nil, simplifies every formula after variable
	// registration and before bit-blasting (smaller CNF). It must be
	// evaluation-preserving; models and unsat cores are reported in terms
	// of the original formulas. Installed from the factory's simplify
	// provider, or explicitly with SetRewrite.
	rewrite func(*smt.Term) *smt.Term

	lastCore []*smt.Term
	checks   int

	// lastCheck is the per-query statistics delta of the most recent
	// Check call (see LastCheckStats).
	lastCheck CheckStats

	// hooks holds retained metric handles when SetObs installed a
	// registry; the zero value (all nil) is the disabled layer — every
	// recording call is a nil-check no-op.
	hooks obsHooks

	// scopes holds the activation literal of each open Push frame;
	// scopeSeq names fresh activation variables (never reused, since Pop
	// permanently asserts the negation).
	scopes   []*smt.Term
	scopeSeq int
}

// CheckStats describes one Check call in isolation: every field is a
// delta over that call, not a cumulative per-solver total. Cumulative
// counters under solver reuse (incremental checks, one solver serving
// many queries in a worker pool) misattribute work across queries; the
// snapshot-delta form is what the observability layer and the experiment
// harness consume.
type CheckStats struct {
	// Result is the check's outcome.
	Result Result
	// Search holds the SAT search-statistic deltas for this check.
	Search sat.Stats
	// NewVars and NewClauses count CNF growth during this check
	// (assumption blasting; the incremental circuit persists).
	NewVars, NewClauses int
	// BlastTime covers simplification + bit-blasting of the assumptions;
	// SearchTime covers the CDCL search itself.
	BlastTime, SearchTime time.Duration
}

// obsHooks are the solver's retained metric handles (nil when disabled).
type obsHooks struct {
	checks, sat, unsat, unknown                  *obs.Counter
	conflicts, propagations, decisions, restarts *obs.Counter
	learned, blastNs, searchNs                   *obs.Counter
	checkConflicts, checkNs                      *obs.Histogram
	cnfVars, cnfClauses                          *obs.Gauge
}

// SetObs installs a metrics registry: every subsequent Check records its
// per-query deltas under the bf4_solver_* names. A nil registry disables
// recording (the default). Counters are shared and atomic, so many
// solvers across worker goroutines may point at one registry.
func (s *Solver) SetObs(reg *obs.Registry) {
	if reg == nil {
		s.hooks = obsHooks{}
		return
	}
	s.hooks = obsHooks{
		checks:         reg.Counter("bf4_solver_checks_total"),
		sat:            reg.Counter("bf4_solver_sat_total"),
		unsat:          reg.Counter("bf4_solver_unsat_total"),
		unknown:        reg.Counter("bf4_solver_unknown_total"),
		conflicts:      reg.Counter("bf4_solver_conflicts_total"),
		propagations:   reg.Counter("bf4_solver_propagations_total"),
		decisions:      reg.Counter("bf4_solver_decisions_total"),
		restarts:       reg.Counter("bf4_solver_restarts_total"),
		learned:        reg.Counter("bf4_solver_learned_clauses_total"),
		blastNs:        reg.Counter("bf4_solver_blast_ns_total"),
		searchNs:       reg.Counter("bf4_solver_search_ns_total"),
		checkConflicts: reg.Histogram("bf4_solver_check_conflicts", obs.CountBuckets),
		checkNs:        reg.Histogram("bf4_solver_check_ns", obs.DurationBuckets),
		cnfVars:        reg.Gauge("bf4_solver_cnf_vars"),
		cnfClauses:     reg.Gauge("bf4_solver_cnf_clauses"),
	}
}

// New returns an empty solver over the given term factory. If the
// factory has a simplify provider installed (see
// smt.Factory.SetSimplifyProvider), the solver gets a private rewrite
// pass from it.
func New(f *smt.Factory) *Solver {
	s := sat.New()
	return &Solver{
		f:       f,
		sat:     s,
		ctx:     bitblast.New(f, s),
		vars:    make(map[*smt.Term]bool),
		varSeen: make(map[uint32]bool),
		rewrite: f.NewSimplifier(),
	}
}

// SetRewrite installs (or with nil removes) the pre-blast simplification
// pass, overriding whatever New picked up from the factory. The pass must
// preserve evaluation under every environment.
func (s *Solver) SetRewrite(fn func(*smt.Term) *smt.Term) { s.rewrite = fn }

// Simplify applies the solver's rewrite pass to t (identity when no pass
// is installed). Callers can use it to pre-discharge queries: a formula
// that simplifies to false is unsatisfiable without a Check.
func (s *Solver) Simplify(t *smt.Term) *smt.Term {
	if s.rewrite == nil {
		return t
	}
	return s.rewrite(t)
}

// Factory returns the term factory this solver builds on.
func (s *Solver) Factory() *smt.Factory { return s.f }

// NumChecks returns the number of Check calls made, a useful statistic for
// the evaluation harness.
func (s *Solver) NumChecks() int { return s.checks }

// SetConflictBudget bounds each subsequent Check call to approximately n
// conflicts; 0 removes the bound. Budgeted checks may return Unknown.
func (s *Solver) SetConflictBudget(n int64) { s.sat.Budget.Conflicts = n }

func (s *Solver) registerVars(t *smt.Term) {
	for _, v := range t.VarsSeen(nil, s.varSeen) {
		if s.vars[v] {
			continue
		}
		s.vars[v] = true
		// Blast the variable now so that model extraction always works,
		// even if simplification erased it from the final circuit.
		if v.Sort().IsBool() {
			s.ctx.Literal(v)
		} else {
			s.ctx.Bits(v)
		}
	}
}

// Assert adds t to the solver's constraint set: permanently when no Push
// scope is open, otherwise until the innermost scope is popped.
func (s *Solver) Assert(t *smt.Term) {
	// Variables are collected from the SIMPLIFIED formula: a variable the
	// rewrite erased is unconstrained, so leaving its bits unallocated
	// keeps the CNF smaller without losing models — the rewrite preserves
	// evaluation under every total environment, and absent variables
	// default to zero under the smt.Eval convention, so a model of the
	// simplified formula zero-extends to one of the original.
	rt := s.Simplify(t)
	s.registerVars(rt)
	if n := len(s.scopes); n > 0 {
		// Guard with the innermost activation literal, as direct guard
		// clauses (¬act ∨ conjunct) rather than a Tseitin implication
		// gate: once Pop asserts ¬act, every guard clause is satisfied
		// outright. Scopes pop LIFO, so when an outer scope dies every
		// inner one is already dead; guarding with one literal is enough.
		s.ctx.AssertImplied(s.scopes[n-1], rt)
		return
	}
	// With the simplification layer on, a top-level conjunction splits
	// into one unit assertion per conjunct — the standard assert-time
	// flattening that skips the Tseitin gate for the conjunction itself.
	if s.rewrite != nil && rt.Op() == smt.OpAnd {
		for _, a := range rt.Args() {
			s.ctx.AssertTrue(a)
		}
		return
	}
	s.ctx.AssertTrue(rt)
}

// Push opens a retractable assertion scope, emulated with an activation
// literal (the classic trick for assumption-based incremental SAT):
// assertions made while the scope is open are guarded by a fresh boolean,
// Check passes the booleans of all open scopes as extra assumptions, and
// Pop permanently asserts the negation, turning the scope's assertions
// into tautologies. Learned clauses survive pops, keeping the solver
// incremental across scoped probes.
func (s *Solver) Push() {
	act := s.f.BoolVar(fmt.Sprintf("$scope%d", s.scopeSeq))
	s.scopeSeq++
	s.registerVars(act)
	s.scopes = append(s.scopes, act)
}

// Pop closes the innermost Push scope, retracting every assertion made
// inside it. It panics without a matching Push.
func (s *Solver) Pop() {
	n := len(s.scopes)
	if n == 0 {
		panic("solver: Pop without matching Push")
	}
	act := s.scopes[n-1]
	s.scopes = s.scopes[:n-1]
	s.ctx.AssertTrue(s.f.Not(act))
}

// NumScopes returns the number of currently open Push scopes.
func (s *Solver) NumScopes() int { return len(s.scopes) }

// CheckIn opens a retractable scope, asserts cond inside it, and checks
// satisfiability. The scope is left open so the caller can read Model or
// UnsatCore against it; Retract closes it. The scope lives in the
// solver's own state between the two calls, which is what lets one
// persistent solver interleave check, model extraction, and retraction
// across a whole slice's bug list, keeping the clauses learned on one
// check for the next. Verdicts are the same as an assumption-based
// Check(cond): the driver's identity harness pins -incremental=on and
// off byte-identical on the full corpus.
func (s *Solver) CheckIn(cond *smt.Term) Result {
	s.Push()
	s.Assert(cond)
	return s.Check()
}

// Retract closes the scope opened by the most recent CheckIn.
func (s *Solver) Retract() { s.Pop() }

// Check determines satisfiability of the asserted formulas together with
// the given assumptions. Unlike Assert, assumptions hold only for this
// call. After Unsat, UnsatCore returns the subset of assumptions used.
func (s *Solver) Check(assumptions ...*smt.Term) Result {
	s.checks++
	start := time.Now()
	preStats := s.sat.StatsSnapshot()
	preVars, preClauses := s.sat.NumVars(), s.sat.NumClauses()
	lits := make([]sat.Lit, 0, len(assumptions)+len(s.scopes))
	byLit := make(map[sat.Lit]*smt.Term, len(assumptions))
	for _, act := range s.scopes {
		// Activation literals of open scopes are implicit assumptions;
		// they are not part of the caller's unsat core.
		lits = append(lits, s.ctx.Literal(act))
	}
	for _, a := range assumptions {
		if a.IsTrue() {
			continue
		}
		// Blast the simplified form (smaller circuit) but keep the core
		// map keyed to the caller's original assumption. A rewrite to
		// true means the assumption is a tautology and cannot appear in
		// any unsat core; a rewrite to false blasts to the false literal
		// and surfaces in the core as the original formula.
		ra := s.Simplify(a)
		if ra.IsTrue() {
			continue
		}
		s.registerVars(ra)
		l := s.ctx.Literal(ra)
		if _, dup := byLit[l]; !dup {
			byLit[l] = a
			lits = append(lits, l)
		}
	}
	blastDone := time.Now()
	res := s.sat.Solve(lits...)
	if res == Unsat {
		s.lastCore = s.lastCore[:0]
		for _, l := range s.sat.FailedAssumptions() {
			if t, ok := byLit[l]; ok {
				s.lastCore = append(s.lastCore, t)
			}
		}
	}
	s.lastCheck = CheckStats{
		Result:     res,
		Search:     s.sat.StatsSnapshot().Sub(preStats),
		NewVars:    s.sat.NumVars() - preVars,
		NewClauses: s.sat.NumClauses() - preClauses,
		BlastTime:  blastDone.Sub(start),
		SearchTime: time.Since(blastDone),
	}
	s.recordCheck()
	return res
}

// recordCheck publishes the last check's deltas to the installed
// registry; with no registry every call is a nil-receiver no-op.
func (s *Solver) recordCheck() {
	h := &s.hooks
	h.checks.Inc()
	switch s.lastCheck.Result {
	case Sat:
		h.sat.Inc()
	case Unsat:
		h.unsat.Inc()
	default:
		h.unknown.Inc()
	}
	d := s.lastCheck.Search
	h.conflicts.Add(d.Conflicts)
	h.propagations.Add(d.Propagations)
	h.decisions.Add(d.Decisions)
	h.restarts.Add(d.Restarts)
	h.learned.Add(d.Learned)
	h.blastNs.Add(s.lastCheck.BlastTime.Nanoseconds())
	h.searchNs.Add(s.lastCheck.SearchTime.Nanoseconds())
	h.checkConflicts.Observe(d.Conflicts)
	h.checkNs.Observe(s.lastCheck.BlastTime.Nanoseconds() + s.lastCheck.SearchTime.Nanoseconds())
	h.cnfVars.Set(int64(s.sat.NumVars()))
	h.cnfClauses.Set(int64(s.sat.NumClauses()))
}

// LastCheckStats returns the per-query statistics of the most recent
// Check call: snapshot deltas, never cumulative totals, so two sequential
// checks on one solver report independent work.
func (s *Solver) LastCheckStats() CheckStats { return s.lastCheck }

// UnsatCore returns, after an Unsat Check, a subset of the assumption
// terms sufficient for unsatisfiability. The slice is valid until the next
// Check.
func (s *Solver) UnsatCore() []*smt.Term { return s.lastCore }

// Model returns, after a Sat Check, an environment assigning every
// variable the solver has seen. Variables the circuit left unconstrained
// get whatever phase the SAT solver chose.
func (s *Solver) Model() smt.Env {
	env := make(smt.Env, len(s.vars))
	for v := range s.vars {
		env[v.Name()] = s.ctx.ModelValue(v)
	}
	return env
}

// Value evaluates t under the current model.
func (s *Solver) Value(t *smt.Term) *big.Int {
	return smt.Eval(t, s.Model())
}

// ValueBool evaluates boolean t under the current model.
func (s *Solver) ValueBool(t *smt.Term) bool {
	return smt.EvalBool(t, s.Model())
}

// Stats reports SAT-level statistics.
func (s *Solver) Stats() (vars, clauses int, conflicts, propagations int64) {
	return s.sat.NumVars(), s.sat.NumClauses(), s.sat.Conflicts(), s.sat.Propagations()
}
