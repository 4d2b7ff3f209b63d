package solver

import (
	"testing"

	"bf4/internal/smt"
)

// TestPushPopScopes: assertions made inside a Push/Pop scope must stop
// constraining the solver after Pop, while outer assertions persist.
func TestPushPopScopes(t *testing.T) {
	f := smt.NewFactory()
	s := New(f)
	x := f.BVVar("x", 8)
	s.Assert(f.Eq(x, f.BVConst64(1, 8)))
	if res := s.Check(); res != Sat {
		t.Fatalf("base: got %v, want Sat", res)
	}

	s.Push()
	s.Assert(f.Eq(x, f.BVConst64(2, 8))) // contradicts x == 1
	if res := s.Check(); res != Unsat {
		t.Fatalf("inside scope: got %v, want Unsat", res)
	}
	s.Pop()

	if res := s.Check(); res != Sat {
		t.Fatalf("after Pop: got %v, want Sat — scoped assertion leaked", res)
	}
	if v := s.Model()["x"].Int64(); v != 1 {
		t.Fatalf("model x=%d, want 1 (outer assertion must persist)", v)
	}
}

// TestNestedScopes: inner Pops retract only the innermost assertions.
func TestNestedScopes(t *testing.T) {
	f := smt.NewFactory()
	s := New(f)
	x := f.BVVar("x", 8)

	s.Push()
	s.Assert(f.Ult(x, f.BVConst64(10, 8)))
	s.Push()
	s.Assert(f.Ugt(x, f.BVConst64(20, 8))) // contradicts x < 10
	if res := s.Check(); res != Unsat {
		t.Fatalf("inner: got %v, want Unsat", res)
	}
	if n := s.NumScopes(); n != 2 {
		t.Fatalf("NumScopes = %d, want 2", n)
	}
	s.Pop()
	if res := s.Check(); res != Sat {
		t.Fatalf("after inner Pop: got %v, want Sat", res)
	}
	if v := s.Model()["x"].Int64(); v >= 10 {
		t.Fatalf("model x=%d violates still-open outer scope x<10", v)
	}
	s.Pop()
	if n := s.NumScopes(); n != 0 {
		t.Fatalf("NumScopes = %d, want 0", n)
	}
	// Everything retracted: x is unconstrained again.
	if res := s.Check(f.Ugt(x, f.BVConst64(200, 8))); res != Sat {
		t.Fatalf("after both Pops: got %v, want Sat", res)
	}
}

// TestNestedScopesGuardClauses pins verdicts and unsat cores through a
// nested Push/Pop lifecycle, with conjunctions asserted inside scopes
// (each conjunct becomes its own guard clause): cores name only the
// caller's assumptions, and each Pop releases exactly its own scope.
func TestNestedScopesGuardClauses(t *testing.T) {
	f := smt.NewFactory()
	s := New(f)
	x, y := f.BVVar("x", 8), f.BVVar("y", 8)
	s.Assert(f.Eq(f.Add(x, y), f.BVConst64(40, 8)))
	big := f.Ugt(x, f.BVConst64(30, 8))
	odd := f.Eq(f.Extract(y, 0, 0), f.BVConst64(1, 1))
	y20 := f.Eq(y, f.BVConst64(20, 8))
	// free constrains a variable no assertion mentions, so it can never
	// take part in a conflict and must stay out of every core.
	free := f.Eq(f.BVVar("z", 8), f.BVConst64(5, 8))
	// check runs Check(as...) and, on Unsat, requires the core to be
	// exactly wantCore (as a set).
	check := func(step string, as []*smt.Term, want Result, wantCore ...*smt.Term) {
		t.Helper()
		if res := s.Check(as...); res != want {
			t.Fatalf("%s: got %v, want %v", step, res, want)
		}
		if want != Unsat {
			return
		}
		core := s.UnsatCore()
		in := map[*smt.Term]bool{}
		for _, c := range core {
			in[c] = true
		}
		if len(core) != len(wantCore) {
			t.Fatalf("%s: core %v, want %v", step, core, wantCore)
		}
		for _, c := range wantCore {
			if !in[c] {
				t.Fatalf("%s: core %v, want %v", step, core, wantCore)
			}
		}
	}

	s.Push()
	s.Assert(f.And(f.Ult(x, f.BVConst64(20, 8)), f.Ugt(x, f.BVConst64(4, 8))))
	check("outer", []*smt.Term{free, big}, Unsat, big)
	check("outer", []*smt.Term{odd}, Sat)

	s.Push()
	s.Assert(f.And(f.Eq(x, f.BVConst64(10, 8)), f.Eq(y, f.BVConst64(30, 8))))
	check("inner", []*smt.Term{odd, free}, Unsat, odd)
	check("inner", nil, Sat)
	if m := s.Model(); m["x"].Int64() != 10 || m["y"].Int64() != 30 {
		t.Fatalf("inner: model x=%v y=%v, want 10, 30", m["x"], m["y"])
	}

	s.Pop()
	check("after inner Pop", []*smt.Term{odd}, Sat)
	if x := s.Model()["x"].Int64(); x <= 4 || x >= 20 {
		t.Fatalf("after inner Pop: model x=%d escapes the outer scope", x)
	}
	check("after inner Pop", []*smt.Term{big, free}, Unsat, big)

	s.Pop()
	// Only the base x+y=40 is left: each assumption alone is satisfiable,
	// together they conflict, and the core names both of them.
	check("after outer Pop", []*smt.Term{big}, Sat)
	check("after outer Pop", []*smt.Term{y20}, Sat)
	check("after outer Pop", []*smt.Term{big, free, y20}, Unsat, big, y20)
}

// TestScopesDoNotPolluteUnsatCore: activation literals for open scopes
// are internal bookkeeping and must never show up in an unsat core.
func TestScopesDoNotPolluteUnsatCore(t *testing.T) {
	f := smt.NewFactory()
	s := New(f)
	x := f.BVVar("x", 8)
	s.Push()
	s.Assert(f.Ult(x, f.BVConst64(5, 8)))
	a := f.Ugt(x, f.BVConst64(10, 8))
	if res := s.Check(a); res != Unsat {
		t.Fatalf("got %v, want Unsat", res)
	}
	core := s.UnsatCore()
	if len(core) != 1 || core[0] != a {
		t.Fatalf("core %v, want exactly the caller's assumption", core)
	}
	s.Pop()
}

// TestPopWithoutPushPanics: a scope-accounting bug must fail loudly.
func TestPopWithoutPushPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Pop without Push did not panic")
		}
	}()
	s := New(smt.NewFactory())
	s.Pop()
}
