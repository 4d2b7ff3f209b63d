package solver

import (
	"math/rand"
	"testing"

	"bf4/internal/smt"
)

// sliceFixture builds a shared "slice" constraint set and a list of
// bug-condition-like probes over it.
func sliceFixture(f *smt.Factory) (base, conds []*smt.Term) {
	x := f.BVVar("x", 8)
	y := f.BVVar("y", 8)
	z := f.BVVar("z", 8)
	base = []*smt.Term{
		f.Ult(x, f.BVConst64(100, 8)),
		f.Eq(f.Add(x, y), f.BVConst64(50, 8)),
		f.Eq(z, f.BVAnd(x, f.BVConst64(0x0f, 8))),
	}
	conds = []*smt.Term{
		f.Ugt(x, f.BVConst64(150, 8)),
		f.Eq(x, f.BVConst64(20, 8)),
		f.And(f.Eq(x, f.BVConst64(20, 8)), f.Eq(y, f.BVConst64(99, 8))),
		f.Eq(y, f.BVConst64(30, 8)),
		f.Ugt(z, f.BVConst64(20, 8)),
		f.And(f.Ult(y, f.BVConst64(255, 8)), f.Eq(z, f.BVConst64(7, 8))),
	}
	return base, conds
}

// TestScopedChecksAdversarialOrdering pins the core incremental-soundness
// property: clauses learned under a retracted scope must never flip a
// later check's verdict, for any ordering of the checks on one slice.
// Every CheckIn verdict is compared against a fresh single-shot solver,
// and after every Retract an assumption-based Check on the same
// persistent solver must agree with that reference too.
func TestScopedChecksAdversarialOrdering(t *testing.T) {
	f := smt.NewFactory()
	base, conds := sliceFixture(f)

	// Reference verdicts from fresh, non-incremental solvers.
	want := make([]Result, len(conds))
	for i, c := range conds {
		fresh := New(f)
		for _, b := range base {
			fresh.Assert(b)
		}
		want[i] = fresh.Check(c)
	}

	orders := [][]int{
		{0, 1, 2, 3, 4, 5},
		{5, 4, 3, 2, 1, 0},
		{2, 0, 5, 1, 4, 3},
		{1, 1, 0, 0, 2, 2, 5, 3, 4}, // repeated checks must stay stable
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		order := make([]int, 2*len(conds))
		for j := range order {
			order[j] = rng.Intn(len(conds))
		}
		orders = append(orders, order)
	}
	for oi, order := range orders {
		s := New(f)
		for _, b := range base {
			s.Assert(b)
		}
		for step, ci := range order {
			res := s.CheckIn(conds[ci])
			if res != want[ci] {
				t.Fatalf("order %d step %d: cond %d got %v, want %v (learned-clause leak across retracted scopes?)",
					oi, step, ci, res, want[ci])
			}
			if res == Sat {
				// The model must satisfy the base and the scoped condition.
				m := s.Model()
				for _, b := range base {
					if !smt.EvalBool(b, m) {
						t.Fatalf("order %d step %d: model violates base %s", oi, step, b)
					}
				}
				if !smt.EvalBool(conds[ci], m) {
					t.Fatalf("order %d step %d: model violates cond %s", oi, step, conds[ci])
				}
			}
			s.Retract()
			// At the boundary the retracted scope must constrain nothing:
			// every condition checks as on a fresh solver.
			for cj, c := range conds {
				if res := s.Check(c); res != want[cj] {
					t.Fatalf("order %d after step %d: Check(cond %d) got %v, want %v (retracted scope still binding?)",
						oi, step, cj, res, want[cj])
				}
			}
		}
	}
}

// TestIncrementalUnsatCoreUnpolluted: scoped checks must not leak
// activation literals into caller-visible unsat cores.
func TestIncrementalUnsatCoreUnpolluted(t *testing.T) {
	f := smt.NewFactory()
	s := New(f)
	x := f.BVVar("x", 8)
	s.Assert(f.Ult(x, f.BVConst64(5, 8)))
	// Burn a few scoped checks first so retracted activation literals and
	// learned clauses are in play.
	for i := 0; i < 5; i++ {
		s.CheckIn(f.Eq(x, f.BVConst64(int64(i), 8)))
		s.Retract()
	}
	a := f.Ugt(x, f.BVConst64(10, 8))
	if res := s.Check(a); res != Unsat {
		t.Fatalf("got %v, want Unsat", res)
	}
	core := s.UnsatCore()
	if len(core) != 1 || core[0] != a {
		t.Fatalf("core %v, want exactly the caller's assumption", core)
	}
}
