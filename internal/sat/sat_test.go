package sat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// bruteForce determines satisfiability of a CNF over nVars variables by
// exhaustive enumeration. Used as a reference oracle in property tests.
func bruteForce(nVars int, cnf [][]Lit) bool {
	for assign := 0; assign < 1<<nVars; assign++ {
		ok := true
		for _, cl := range cnf {
			clauseSat := false
			for _, l := range cl {
				val := assign&(1<<int(l.Var())) != 0
				if l.Sign() {
					val = !val
				}
				if val {
					clauseSat = true
					break
				}
			}
			if !clauseSat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func solveCNF(cnf [][]Lit) (*Solver, Result) {
	s := New()
	for _, cl := range cnf {
		if !s.AddClause(cl...) {
			return s, Unsat
		}
	}
	return s, s.Solve()
}

func TestLitBasics(t *testing.T) {
	l := MkLit(3, false)
	if l.Var() != 3 || l.Sign() {
		t.Fatalf("MkLit(3,false) = %v", l)
	}
	n := l.Neg()
	if n.Var() != 3 || !n.Sign() {
		t.Fatalf("Neg() = %v", n)
	}
	if n.Neg() != l {
		t.Fatalf("double negation is not identity")
	}
	if l.String() != "4" || n.String() != "-4" {
		t.Fatalf("String() = %q, %q", l.String(), n.String())
	}
}

func TestEmptySolverIsSat(t *testing.T) {
	s := New()
	if got := s.Solve(); got != Sat {
		t.Fatalf("empty solver: got %v, want Sat", got)
	}
}

func TestUnitPropagation(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false))
	s.AddClause(MkLit(a, true), MkLit(b, false))
	s.AddClause(MkLit(b, true), MkLit(c, false))
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v, want Sat", got)
	}
	for _, v := range []Var{a, b, c} {
		if !s.Value(v) {
			t.Errorf("var %d: got false, want true", v)
		}
	}
}

func TestTrivialConflict(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(MkLit(a, false))
	if s.AddClause(MkLit(a, true)) {
		t.Fatalf("conflicting units: AddClause returned true")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("got %v, want Unsat", got)
	}
}

func TestTautologyAndDuplicates(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	if !s.AddClause(MkLit(a, false), MkLit(a, true)) {
		t.Fatalf("tautology rejected")
	}
	if !s.AddClause(MkLit(b, false), MkLit(b, false)) {
		t.Fatalf("duplicate-literal clause rejected")
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("got %v, want Sat", got)
	}
	if !s.Value(b) {
		t.Fatalf("b must be true")
	}
}

// pigeonhole encodes PHP(n+1, n): n+1 pigeons in n holes, classically unsat
// and exercises clause learning.
func pigeonhole(s *Solver, pigeons, holes int) {
	lit := func(p, h int) Lit { return MkLit(Var(p*holes+h), false) }
	for p := 0; p < pigeons; p++ {
		var cl []Lit
		for h := 0; h < holes; h++ {
			cl = append(cl, lit(p, h))
		}
		s.AddClause(cl...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(lit(p1, h).Neg(), lit(p2, h).Neg())
			}
		}
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s := New()
		pigeonhole(s, n+1, n)
		if got := s.Solve(); got != Unsat {
			t.Fatalf("PHP(%d,%d): got %v, want Unsat", n+1, n, got)
		}
	}
}

func TestPigeonholeSat(t *testing.T) {
	s := New()
	pigeonhole(s, 5, 5)
	if got := s.Solve(); got != Sat {
		t.Fatalf("PHP(5,5): got %v, want Sat", got)
	}
}

func TestModelSatisfiesClauses(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		nVars := 3 + rng.Intn(10)
		nClauses := 1 + rng.Intn(40)
		var cnf [][]Lit
		for i := 0; i < nClauses; i++ {
			k := 1 + rng.Intn(3)
			var cl []Lit
			for j := 0; j < k; j++ {
				cl = append(cl, MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 0))
			}
			cnf = append(cnf, cl)
		}
		s, res := solveCNF(cnf)
		if res != Sat {
			continue
		}
		for _, cl := range cnf {
			ok := false
			for _, l := range cl {
				if s.ValueLit(l) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("iter %d: model does not satisfy clause %v", iter, cl)
			}
		}
	}
}

func TestAgainstBruteForce(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nVars := 2 + rng.Intn(8)
		nClauses := rng.Intn(25)
		var cnf [][]Lit
		for i := 0; i < nClauses; i++ {
			k := 1 + rng.Intn(3)
			var cl []Lit
			for j := 0; j < k; j++ {
				cl = append(cl, MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 0))
			}
			cnf = append(cnf, cl)
		}
		_, res := solveCNF(cnf)
		want := bruteForce(nVars, cnf)
		return (res == Sat) == want
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, true), MkLit(b, false)) // a -> b
	if got := s.Solve(MkLit(a, false)); got != Sat {
		t.Fatalf("assume a: got %v, want Sat", got)
	}
	if !s.Value(a) || !s.Value(b) {
		t.Fatalf("model must set a and b")
	}
	if got := s.Solve(MkLit(a, false), MkLit(b, true)); got != Unsat {
		t.Fatalf("assume a, !b: got %v, want Unsat", got)
	}
	// Solver remains usable and consistent after Unsat under assumptions.
	if got := s.Solve(); got != Sat {
		t.Fatalf("no assumptions after conflict: got %v, want Sat", got)
	}
}

func TestFailedAssumptionsCore(t *testing.T) {
	s := New()
	a, b, c, d := s.NewVar(), s.NewVar(), s.NewVar(), s.NewVar()
	// a & b -> false; c, d are irrelevant padding assumptions.
	s.AddClause(MkLit(a, true), MkLit(b, true))
	assumptions := []Lit{MkLit(c, false), MkLit(a, false), MkLit(d, false), MkLit(b, false)}
	if got := s.Solve(assumptions...); got != Unsat {
		t.Fatalf("got %v, want Unsat", got)
	}
	core := s.FailedAssumptions()
	inCore := map[Var]bool{}
	for _, l := range core {
		inCore[l.Var()] = true
	}
	if !inCore[a] || !inCore[b] {
		t.Fatalf("core %v must contain a and b", core)
	}
	if inCore[c] && inCore[d] {
		t.Errorf("core %v should not contain both irrelevant assumptions", core)
	}
	// The core itself must be unsatisfiable when re-assumed.
	var coreAssumptions []Lit
	coreAssumptions = append(coreAssumptions, core...)
	if got := s.Solve(coreAssumptions...); got != Unsat {
		t.Fatalf("re-solving the core: got %v, want Unsat", got)
	}
}

func TestCorePropertyRandom(t *testing.T) {
	// Property: after Unsat under assumptions, the failed assumptions alone
	// are unsatisfiable with the clause set.
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 150; iter++ {
		s := New()
		nVars := 3 + rng.Intn(7)
		for i := 0; i < nVars; i++ {
			s.NewVar()
		}
		nClauses := 3 + rng.Intn(20)
		for i := 0; i < nClauses; i++ {
			k := 1 + rng.Intn(3)
			var cl []Lit
			for j := 0; j < k; j++ {
				cl = append(cl, MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 0))
			}
			s.AddClause(cl...)
		}
		var assumptions []Lit
		for v := 0; v < nVars; v++ {
			if rng.Intn(2) == 0 {
				assumptions = append(assumptions, MkLit(Var(v), rng.Intn(2) == 0))
			}
		}
		if s.Solve(assumptions...) != Unsat {
			continue
		}
		core := append([]Lit(nil), s.FailedAssumptions()...)
		if got := s.Solve(core...); got != Unsat {
			t.Fatalf("iter %d: core %v not unsat on its own", iter, core)
		}
	}
}

func TestIncrementalAddAfterSolve(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false))
	if s.Solve() != Sat {
		t.Fatal("want Sat")
	}
	s.AddClause(MkLit(a, true))
	if s.Solve() != Sat {
		t.Fatal("want Sat after adding !a")
	}
	if s.Value(a) || !s.Value(b) {
		t.Fatalf("want a=false b=true, got a=%v b=%v", s.Value(a), s.Value(b))
	}
	s.AddClause(MkLit(b, true))
	if s.Solve() != Unsat {
		t.Fatal("want Unsat after adding !b")
	}
}

func TestBudget(t *testing.T) {
	s := New()
	pigeonhole(s, 9, 8)
	s.Budget.Conflicts = 10
	res := s.Solve()
	if res == Sat {
		t.Fatalf("PHP(9,8) cannot be Sat")
	}
	// Either it proved Unsat within budget or gave up; both are acceptable,
	// but the solver must remain usable.
	s.Budget.Conflicts = 0
	if got := s.Solve(); got != Unsat {
		t.Fatalf("unbudgeted solve: got %v, want Unsat", got)
	}
}

func TestNumVarsAndClauses(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	if s.NumVars() != 2 {
		t.Fatalf("NumVars = %d, want 2", s.NumVars())
	}
	s.AddClause(MkLit(a, false), MkLit(b, false))
	if s.NumClauses() != 1 {
		t.Fatalf("NumClauses = %d, want 1", s.NumClauses())
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestHardRandom3SAT(t *testing.T) {
	// Random 3-SAT at ratio ~4.2 near the phase transition; verify against
	// brute force on small instances.
	rng := rand.New(rand.NewSource(1234))
	for iter := 0; iter < 30; iter++ {
		nVars := 12
		nClauses := 50
		var cnf [][]Lit
		for i := 0; i < nClauses; i++ {
			var cl []Lit
			for j := 0; j < 3; j++ {
				cl = append(cl, MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 0))
			}
			cnf = append(cnf, cl)
		}
		_, res := solveCNF(cnf)
		want := bruteForce(nVars, cnf)
		if (res == Sat) != want {
			t.Fatalf("iter %d: got %v, brute force says sat=%v", iter, res, want)
		}
	}
}

// TestRetractedScope models the solver-layer scope lifecycle: guard
// clauses bind only while the activation literal is assumed, and a
// retracted scope (¬act asserted at level 0) leaves its variables
// unconstrained without deleting any clause.
func TestRetractedScope(t *testing.T) {
	s := New()
	act, x, y := s.NewVar(), s.NewVar(), s.NewVar()
	// Scoped assertions: act → x, act → ¬y.
	s.AddClause(MkLit(act, true), MkLit(x, false))
	s.AddClause(MkLit(act, true), MkLit(y, true))
	if got := s.Solve(MkLit(act, false)); got != Sat {
		t.Fatalf("inside scope: got %v, want Sat", got)
	}
	if !s.Value(x) || s.Value(y) {
		t.Fatalf("inside scope want x=true y=false")
	}
	if got := s.Solve(MkLit(act, false), MkLit(x, true)); got != Unsat {
		t.Fatalf("inside scope under ¬x: got %v, want Unsat", got)
	}
	// Retract: ¬act becomes a level-0 fact.
	s.AddClause(MkLit(act, true))
	if s.NumClauses() != 2 {
		t.Fatalf("NumClauses = %d, want 2 (guard clauses stay, satisfied)", s.NumClauses())
	}
	// x and y are unconstrained again.
	if got := s.Solve(MkLit(x, true), MkLit(y, false)); got != Sat {
		t.Fatalf("after retract: got %v, want Sat", got)
	}
}

func BenchmarkSolvePigeonhole7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		pigeonhole(s, 8, 7)
		if s.Solve() != Unsat {
			b.Fatal("want Unsat")
		}
	}
}

func BenchmarkSolveRandom3SAT(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	var cnf [][]Lit
	nVars := 100
	for i := 0; i < 420; i++ {
		var cl []Lit
		for j := 0; j < 3; j++ {
			cl = append(cl, MkLit(Var(rng.Intn(nVars)), rng.Intn(2) == 0))
		}
		cnf = append(cnf, cl)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solveCNF(cnf)
	}
}
