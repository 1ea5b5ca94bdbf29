package lp

import (
	"math"
	"math/rand"
	"testing"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// solveBoth runs both engines (dense float and exact rational) and
// checks they agree on status and objective, returning the dense float
// solution.
func solveBoth(t *testing.T, p *Problem) *Solution {
	t.Helper()
	fs, err := Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	rs, err := SolveRational(p)
	if err != nil {
		t.Fatalf("SolveRational: %v", err)
	}
	if fs.Status != rs.Status {
		t.Fatalf("status mismatch: dense %v, rational %v", fs.Status, rs.Status)
	}
	if fs.Status == Optimal {
		ro := rs.ObjectiveFloat()
		if !approx(fs.Objective, ro, 1e-6*(1+math.Abs(ro))) {
			t.Fatalf("objective mismatch: dense %v, rational %v", fs.Objective, ro)
		}
	}
	return fs
}

func TestSimpleLE(t *testing.T) {
	// min -x - 2y  s.t. x + y <= 4, x <= 2, y <= 3  => x=1? No:
	// optimum at (1,3): obj -7. Check: x+y<=4 binds with y=3 -> x=1.
	p := NewProblem()
	x := p.AddVar("x", -1)
	y := p.AddVar("y", -2)
	p.AddConstraint(LE, 4, Term{x, 1}, Term{y, 1})
	p.AddConstraint(LE, 2, Term{x, 1})
	p.AddConstraint(LE, 3, Term{y, 1})
	s := solveBoth(t, p)
	if !approx(s.Objective, -7, 1e-9) {
		t.Errorf("objective = %v, want -7", s.Objective)
	}
	if !approx(s.X[x], 1, 1e-9) || !approx(s.X[y], 3, 1e-9) {
		t.Errorf("x = %v, want (1, 3)", s.X)
	}
}

func TestEqualityAndGE(t *testing.T) {
	// min x + y  s.t. x + 2y = 6, x >= 1  => x=1? obj at (1, 2.5) = 3.5;
	// or y=0,x=6 obj 6; reduce y increases... min is y as large as
	// possible: x=1, y=2.5, obj 3.5.
	p := NewProblem()
	x := p.AddVar("x", 1)
	y := p.AddVar("y", 1)
	p.AddConstraint(EQ, 6, Term{x, 1}, Term{y, 2})
	p.AddConstraint(GE, 1, Term{x, 1})
	s := solveBoth(t, p)
	if !approx(s.Objective, 3.5, 1e-9) {
		t.Errorf("objective = %v, want 3.5", s.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 1)
	p.AddConstraint(GE, 5, Term{x, 1})
	p.AddConstraint(LE, 3, Term{x, 1})
	s := solveBoth(t, p)
	if s.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", -1)
	y := p.AddVar("y", 0)
	p.AddConstraint(GE, 1, Term{x, 1}, Term{y, -1})
	s := solveBoth(t, p)
	if s.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", s.Status)
	}
}

// TestPresolveDetectsInfeasible holds the infeasible inputs a presolve
// pass once caught before the simplex ran; with no presolve, phase 1
// of both engines must report them.
func TestPresolveDetectsInfeasible(t *testing.T) {
	cases := []func(p *Problem, x int){
		func(p *Problem, x int) { p.AddConstraint(EQ, -2, Term{x, 1}) },                                    // x = -2
		func(p *Problem, x int) { p.AddConstraint(LE, -3, Term{x, 1}) },                                    // x <= -3
		func(p *Problem, x int) { p.AddConstraint(GE, 2, Term{x, -1}) },                                    // -x >= 2
		func(p *Problem, x int) { p.AddConstraint(EQ, 1); p.AddConstraint(LE, 5, Term{x, 1}) },             // 0 = 1
		func(p *Problem, x int) { p.AddConstraint(EQ, 2, Term{x, 1}); p.AddConstraint(EQ, 3, Term{x, 1}) }, // conflicting dupes
	}
	for i, add := range cases {
		p := NewProblem()
		x := p.AddVar("x", 1)
		add(p, x)
		if s := solveBoth(t, p); s.Status != Infeasible {
			t.Errorf("case %d: status = %v, want infeasible", i, s.Status)
		}
	}
}

// TestPresolveDetectsUnboundedFreeColumn: a variable in no row with a
// negative cost makes the LP unbounded on both engines.
func TestPresolveDetectsUnboundedFreeColumn(t *testing.T) {
	p := NewProblem()
	p.AddVar("x", -1) // appears in no row, negative cost
	y := p.AddVar("y", 1)
	p.AddConstraint(LE, 4, Term{y, 1})
	if s := solveBoth(t, p); s.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", s.Status)
	}
}

func TestNegativeRHS(t *testing.T) {
	// -x <= -3  is  x >= 3; min x => 3.
	p := NewProblem()
	x := p.AddVar("x", 1)
	p.AddConstraint(LE, -3, Term{x, -1})
	s := solveBoth(t, p)
	if !approx(s.Objective, 3, 1e-9) {
		t.Errorf("objective = %v, want 3", s.Objective)
	}
}

func TestDuplicateTermsSummed(t *testing.T) {
	// x + x <= 4 means 2x <= 4.
	p := NewProblem()
	x := p.AddVar("x", -1)
	p.AddConstraint(LE, 4, Term{x, 1}, Term{x, 1})
	s := solveBoth(t, p)
	if !approx(s.X[x], 2, 1e-9) {
		t.Errorf("x = %v, want 2", s.X[x])
	}
}

func TestRedundantEqualities(t *testing.T) {
	// The same equality twice: phase 1 must cope with a redundant row.
	p := NewProblem()
	x := p.AddVar("x", 1)
	y := p.AddVar("y", 2)
	p.AddConstraint(EQ, 4, Term{x, 1}, Term{y, 1})
	p.AddConstraint(EQ, 4, Term{x, 1}, Term{y, 1})
	p.AddConstraint(EQ, 8, Term{x, 2}, Term{y, 2})
	s := solveBoth(t, p)
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	if !approx(s.Objective, 4, 1e-9) { // y=0, x=4
		t.Errorf("objective = %v, want 4", s.Objective)
	}
}

func TestDegenerate(t *testing.T) {
	// A classically degenerate LP (multiple bases at the same vertex).
	p := NewProblem()
	x := p.AddVar("x", -1)
	y := p.AddVar("y", -1)
	p.AddConstraint(LE, 1, Term{x, 1})
	p.AddConstraint(LE, 1, Term{y, 1})
	p.AddConstraint(LE, 2, Term{x, 1}, Term{y, 1})
	p.AddConstraint(LE, 4, Term{x, 2}, Term{y, 2})
	s := solveBoth(t, p)
	if !approx(s.Objective, -2, 1e-9) {
		t.Errorf("objective = %v, want -2", s.Objective)
	}
}

func TestKleeMintyCube(t *testing.T) {
	// 3-dimensional Klee–Minty cube: worst case for Dantzig pricing,
	// still must terminate and find the optimum 5^3 = 125 (here stated
	// as a minimization of the negation).
	p := NewProblem()
	n := 3
	vars := make([]int, n)
	for i := 0; i < n; i++ {
		vars[i] = p.AddVar("x", -math.Pow(2, float64(n-1-i)))
	}
	for i := 0; i < n; i++ {
		terms := []Term{{vars[i], 1}}
		for j := 0; j < i; j++ {
			terms = append(terms, Term{vars[j], math.Pow(2, float64(i-j+1))})
		}
		p.AddConstraint(LE, math.Pow(5, float64(i+1)), terms...)
	}
	s := solveBoth(t, p)
	if !approx(s.Objective, -125, 1e-6) {
		t.Errorf("objective = %v, want -125", s.Objective)
	}
}

func TestZeroObjectiveFeasibility(t *testing.T) {
	// Pure feasibility problem: min 0 subject to a consistent system.
	p := NewProblem()
	x := p.AddVar("x", 0)
	y := p.AddVar("y", 0)
	p.AddConstraint(EQ, 3, Term{x, 1}, Term{y, 1})
	p.AddConstraint(GE, 1, Term{y, 1})
	s := solveBoth(t, p)
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	if !approx(s.X[x]+s.X[y], 3, 1e-9) || s.X[y] < 1-1e-9 {
		t.Errorf("solution %v violates constraints", s.X)
	}
}

func TestEmptyProblem(t *testing.T) {
	p := NewProblem()
	p.AddVar("x", 1)
	s := solveBoth(t, p)
	if s.Status != Optimal || !approx(s.Objective, 0, 1e-12) {
		t.Errorf("empty problem: %+v", s)
	}
}

// TestRandomAgainstRational cross-checks the float engine against the
// exact engine on random feasible bounded LPs: b = A·x0 for a random
// nonnegative x0 guarantees feasibility; nonnegative costs guarantee
// boundedness.
func TestRandomAgainstRational(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		nv := 2 + rng.Intn(5)
		nc := 1 + rng.Intn(5)
		p := NewProblem()
		vars := make([]int, nv)
		for v := 0; v < nv; v++ {
			vars[v] = p.AddVar("x", float64(rng.Intn(5)))
		}
		x0 := make([]float64, nv)
		for v := range x0 {
			x0[v] = float64(rng.Intn(4))
		}
		for c := 0; c < nc; c++ {
			var terms []Term
			rhs := 0.0
			for v := 0; v < nv; v++ {
				coef := float64(rng.Intn(5))
				if coef != 0 {
					terms = append(terms, Term{vars[v], coef})
					rhs += coef * x0[v]
				}
			}
			if len(terms) == 0 {
				continue
			}
			rel := LE
			if rng.Intn(3) == 0 {
				rel = EQ
			}
			p.AddConstraint(rel, rhs, terms...)
		}
		solveBoth(t, p) // agreement asserted inside
	}
}

// TestProblemString renders a named and an unnamed variable; the
// unnamed one prints as x<index>.
func TestProblemString(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", 2)
	y := p.AddVar("", -1)
	p.AddConstraint(LE, 4, Term{x, 1}, Term{y, 3})
	want := "min +2*x -1*x1\n  +1*x +3*x1 <= 4\n"
	if s := p.String(); s != want {
		t.Errorf("String() = %q, want %q", s, want)
	}
}

func TestAddConstraintPanicsOnUnknownVar(t *testing.T) {
	p := NewProblem()
	defer func() {
		if recover() == nil {
			t.Error("no panic on unknown variable")
		}
	}()
	p.AddConstraint(LE, 1, Term{3, 1})
}

func TestStatusStrings(t *testing.T) {
	for _, st := range []Status{Optimal, Infeasible, Unbounded, IterLimit} {
		if st.String() == "" {
			t.Errorf("status %d has empty string", int(st))
		}
	}
	for _, r := range []Rel{LE, GE, EQ} {
		if r.String() == "" {
			t.Errorf("rel %d has empty string", int(r))
		}
	}
}
