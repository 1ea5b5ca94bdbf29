package lp

import (
	"math"
	"testing"

	"calib/internal/obs"
)

// boundedFixture builds min -x0 - 2*x1 subject to x0 + x1 <= 7,
// x0 <= 3, x1 <= 5 with the bounds as native upper bounds. Optimum:
// x1 = 5, x0 = 2, objective -12.
func boundedFixture() *Problem {
	p := NewProblem()
	p.AddVar("x0", -1)
	p.AddVar("x1", -2)
	p.SetUpper(0, 3)
	p.SetUpper(1, 5)
	p.AddConstraint(LE, 7, Term{0, 1}, Term{1, 1})
	return p
}

func TestBoundedRevisedSimple(t *testing.T) {
	p := boundedFixture()
	sol, err := SolveRevised(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want Optimal", sol.Status)
	}
	if math.Abs(sol.Objective-(-12)) > 1e-9 {
		t.Fatalf("objective = %v, want -12", sol.Objective)
	}
	if math.Abs(sol.X[0]-2) > 1e-9 || math.Abs(sol.X[1]-5) > 1e-9 {
		t.Fatalf("X = %v, want [2 5]", sol.X)
	}
	if sol.Basis == nil {
		t.Fatal("revised engine must return a basis")
	}
}

// TestBoundedOnlyFlips has no rows at all: the optimum is reached
// purely by bound flips (every negative-cost variable to its bound).
func TestBoundedOnlyFlips(t *testing.T) {
	p := NewProblem()
	p.AddVar("a", -1)
	p.AddVar("b", 2)
	p.AddVar("c", -3)
	p.SetUpper(0, 4)
	p.SetUpper(1, 9)
	p.SetUpper(2, 2)
	// One slack-only row keeps m > 0 without constraining anything.
	p.AddConstraint(LE, 100, Term{0, 1}, Term{1, 1}, Term{2, 1})
	sol, err := SolveRevised(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || math.Abs(sol.Objective-(-10)) > 1e-9 {
		t.Fatalf("got %v obj %v, want Optimal obj -10", sol.Status, sol.Objective)
	}
	want := []float64{4, 0, 2}
	for i, w := range want {
		if math.Abs(sol.X[i]-w) > 1e-9 {
			t.Fatalf("X = %v, want %v", sol.X, want)
		}
	}
}

// TestBoundedEnginesAgree cross-checks the three engines on a panel of
// bounded problems (dense/rational expand bounds to rows, revised is
// native).
func TestBoundedEnginesAgree(t *testing.T) {
	panel := []*Problem{}
	p := boundedFixture()
	panel = append(panel, p)

	p = NewProblem()
	p.AddVar("x", -5)
	p.AddVar("y", -4)
	p.AddVar("z", -3)
	p.SetUpper(0, 2)
	p.SetUpper(2, 4)
	p.AddConstraint(LE, 11, Term{0, 2}, Term{1, 3}, Term{2, 1})
	p.AddConstraint(LE, 8, Term{0, 4}, Term{1, 1}, Term{2, 2})
	panel = append(panel, p)

	p = NewProblem()
	p.AddVar("x", 1)
	p.AddVar("y", -1)
	p.SetUpper(1, 3)
	p.AddConstraint(GE, 2, Term{0, 1}, Term{1, 1})
	p.AddConstraint(EQ, 4, Term{0, 1}, Term{1, 2})
	panel = append(panel, p)

	// Infeasible: bound conflicts with a GE row.
	p = NewProblem()
	p.AddVar("x", 1)
	p.SetUpper(0, 1)
	p.AddConstraint(GE, 5, Term{0, 1})
	panel = append(panel, p)

	for i, p := range panel {
		dense, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		revised, err := SolveRevised(p)
		if err != nil {
			t.Fatal(err)
		}
		rational, err := SolveRational(p)
		if err != nil {
			t.Fatal(err)
		}
		if dense.Status != rational.Status || revised.Status != rational.Status {
			t.Fatalf("panel[%d]: status dense=%v revised=%v rational=%v",
				i, dense.Status, revised.Status, rational.Status)
		}
		if rational.Status != Optimal {
			continue
		}
		ro := rational.ObjectiveFloat()
		if math.Abs(dense.Objective-ro) > 1e-6 {
			t.Fatalf("panel[%d]: dense %v != rational %v", i, dense.Objective, ro)
		}
		if math.Abs(revised.Objective-ro) > 1e-6 {
			t.Fatalf("panel[%d]: revised %v != rational %v", i, revised.Objective, ro)
		}
	}
}

// rebuild constructs a structurally identical copy of boundedFixture
// with a different constraint rhs, as the warm-start workflows do.
func rebuildFixture(rhs float64) *Problem {
	p := NewProblem()
	p.AddVar("x0", -1)
	p.AddVar("x1", -2)
	p.SetUpper(0, 3)
	p.SetUpper(1, 5)
	p.AddConstraint(LE, rhs, Term{0, 1}, Term{1, 1})
	return p
}

func TestWarmStartRHSChange(t *testing.T) {
	first, err := SolveRevised(rebuildFixture(7))
	if err != nil || first.Status != Optimal {
		t.Fatalf("cold solve: %v %v", first.Status, err)
	}
	for _, rhs := range []float64{6, 8, 5, 7.5, 3} {
		p2 := rebuildFixture(rhs)
		warm, err := SolveRevisedWith(p2, RevisedOptions{Warm: first.Basis})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := SolveRevised(p2)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("rhs=%v: warm status %v != cold %v", rhs, warm.Status, cold.Status)
		}
		if math.Abs(warm.Objective-cold.Objective) > 1e-8 {
			t.Fatalf("rhs=%v: warm obj %v != cold %v", rhs, warm.Objective, cold.Objective)
		}
		first = warm // chain bases across the sweep
	}
}

// TestWarmStartInfeasibleCut re-solves from a warm basis after an rhs
// change that makes the problem infeasible (x + y >= 10 beside
// x + y <= 5), as mm.LPSearch does on every infeasible machine-count
// probe. The dual repair finds the infeasibility, and on both basis
// representations the engine re-proves it with a cold phase 1 before
// reporting it, counted once as reason=infeasible_reproof.
func TestWarmStartInfeasibleCut(t *testing.T) {
	for _, dense := range []bool{false, true} {
		p := NewProblem()
		x := p.AddVar("x", 1)
		y := p.AddVar("y", 2)
		p.AddConstraint(GE, 1, Term{x, 1}, Term{y, 1})
		p.AddConstraint(LE, 5, Term{x, 1}, Term{y, 1})
		first, err := SolveRevisedWith(p, RevisedOptions{DenseBasis: dense})
		if err != nil || first.Status != Optimal {
			t.Fatalf("dense=%v: cold solve: %v %v", dense, first.Status, err)
		}
		p.SetRHS(0, 10)
		reg := obs.NewRegistry()
		warm, err := SolveRevisedWith(p, RevisedOptions{Warm: first.Basis, Metrics: reg, DenseBasis: dense})
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != Infeasible {
			t.Fatalf("dense=%v: status = %v, want Infeasible", dense, warm.Status)
		}
		if got := reg.CounterWith(obs.MLPColdFallback, "reason", obs.ReasonInfeasReproof).Value(); got != 1 {
			t.Errorf("dense=%v: %s{reason=%q} = %d, want 1",
				dense, obs.MLPColdFallback, obs.ReasonInfeasReproof, got)
		}
	}
}

// TestWarmStartStaleBasis feeds a basis from an unrelated problem:
// incompatible shapes must fall back to a cold solve, and a
// compatible-but-arbitrary basis must still yield the right optimum.
func TestWarmStartStaleBasis(t *testing.T) {
	p := boundedFixture()
	// Shape mismatch: silently cold.
	sol, err := SolveRevisedWith(p, RevisedOptions{Warm: &Basis{Basic: []int{0, 1}, Vars: 9, Rows: 2}})
	if err != nil || sol.Status != Optimal || math.Abs(sol.Objective-(-12)) > 1e-9 {
		t.Fatalf("mismatched basis: %v obj %v err %v", sol.Status, sol.Objective, err)
	}
	// Compatible but arbitrary: x0 basic in the single row.
	sol, err = SolveRevisedWith(p, RevisedOptions{Warm: &Basis{Basic: []int{0}, Vars: 2, Rows: 1}})
	if err != nil || sol.Status != Optimal || math.Abs(sol.Objective-(-12)) > 1e-9 {
		t.Fatalf("arbitrary basis: %v obj %v err %v", sol.Status, sol.Objective, err)
	}
	// Arbitrary with a bogus AtUpper assignment.
	sol, err = SolveRevisedWith(p, RevisedOptions{Warm: &Basis{Basic: []int{2}, AtUpper: []int{0, 1}, Vars: 2, Rows: 1}})
	if err != nil || sol.Status != Optimal || math.Abs(sol.Objective-(-12)) > 1e-9 {
		t.Fatalf("at-upper basis: %v obj %v err %v", sol.Status, sol.Objective, err)
	}
	// Fewer rows: the basis of the same problem before a row was
	// appended no longer fits, and the solve falls back cold as
	// basis_shape. x0 + 2*x1 <= 10 caps the optimum at -10.
	first, err := SolveRevised(boundedFixture())
	if err != nil || first.Status != Optimal {
		t.Fatalf("cold solve: %v %v", first.Status, err)
	}
	cut := boundedFixture()
	cut.AddConstraint(LE, 10, Term{0, 1}, Term{1, 2})
	reg := obs.NewRegistry()
	sol, err = SolveRevisedWith(cut, RevisedOptions{Warm: first.Basis, Metrics: reg})
	if err != nil || sol.Status != Optimal || math.Abs(sol.Objective-(-10)) > 1e-9 {
		t.Fatalf("fewer-rows basis: %v obj %v err %v", sol.Status, sol.Objective, err)
	}
	if got := reg.CounterWith(obs.MLPColdFallback, "reason", obs.ReasonBasisShape).Value(); got != 1 {
		t.Errorf("%s{reason=%q} = %d, want 1", obs.MLPColdFallback, obs.ReasonBasisShape, got)
	}
}

func TestSetUpperValidation(t *testing.T) {
	p := NewProblem()
	p.AddVar("x", 1)
	for _, bad := range []func(){
		func() { p.SetUpper(1, 1) },
		func() { p.SetUpper(-1, 1) },
		func() { p.SetUpper(0, -2) },
		func() { p.SetUpper(0, math.NaN()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			bad()
		}()
	}
	p.SetUpper(0, 4)
	if p.Upper(0) != 4 {
		t.Fatalf("Upper = %v, want 4", p.Upper(0))
	}
}

// TestBoundedPresolve checks bound handling through the presolve path:
// an unused variable with negative cost and a finite bound is fixed at
// that bound instead of declaring unboundedness.
func TestBoundedPresolve(t *testing.T) {
	p := NewProblem()
	p.AddVar("used", 1)
	p.AddVar("free", -2) // appears in no row
	p.SetUpper(1, 6)
	p.AddConstraint(GE, 3, Term{0, 1})
	sol, err := SolvePresolved(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want Optimal", sol.Status)
	}
	if math.Abs(sol.Objective-(3-12)) > 1e-9 {
		t.Fatalf("objective = %v, want -9", sol.Objective)
	}
	if math.Abs(sol.X[1]-6) > 1e-9 {
		t.Fatalf("X[1] = %v, want 6", sol.X[1])
	}
}
