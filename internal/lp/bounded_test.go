package lp

import (
	"math"
	"testing"
)

// TestBoundedEnginesAgree cross-checks the dense and rational engines
// on a panel of problems whose variable upper bounds are written as
// x_v <= u rows.
func TestBoundedEnginesAgree(t *testing.T) {
	// min -x0 - 2*x1 subject to x0 + x1 <= 7, x0 <= 3, x1 <= 5.
	// Optimum: x1 = 5, x0 = 2, objective -12.
	p := NewProblem()
	p.AddVar("x0", -1)
	p.AddVar("x1", -2)
	p.AddConstraint(LE, 7, Term{0, 1}, Term{1, 1})
	p.AddConstraint(LE, 3, Term{0, 1})
	p.AddConstraint(LE, 5, Term{1, 1})
	panel := []*Problem{p}

	p = NewProblem()
	p.AddVar("x", -5)
	p.AddVar("y", -4)
	p.AddVar("z", -3)
	p.AddConstraint(LE, 11, Term{0, 2}, Term{1, 3}, Term{2, 1})
	p.AddConstraint(LE, 8, Term{0, 4}, Term{1, 1}, Term{2, 2})
	p.AddConstraint(LE, 2, Term{0, 1})
	p.AddConstraint(LE, 4, Term{2, 1})
	panel = append(panel, p)

	p = NewProblem()
	p.AddVar("x", 1)
	p.AddVar("y", -1)
	p.AddConstraint(GE, 2, Term{0, 1}, Term{1, 1})
	p.AddConstraint(EQ, 4, Term{0, 1}, Term{1, 2})
	p.AddConstraint(LE, 3, Term{1, 1})
	panel = append(panel, p)

	// Infeasible: bound conflicts with a GE row.
	p = NewProblem()
	p.AddVar("x", 1)
	p.AddConstraint(GE, 5, Term{0, 1})
	p.AddConstraint(LE, 1, Term{0, 1})
	panel = append(panel, p)

	for i, p := range panel {
		dense, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		rational, err := SolveRational(p)
		if err != nil {
			t.Fatal(err)
		}
		if dense.Status != rational.Status {
			t.Fatalf("panel[%d]: status dense=%v rational=%v", i, dense.Status, rational.Status)
		}
		if rational.Status != Optimal {
			continue
		}
		ro := rational.ObjectiveFloat()
		if math.Abs(dense.Objective-ro) > 1e-6 {
			t.Fatalf("panel[%d]: dense %v != rational %v", i, dense.Objective, ro)
		}
		if i == 0 && ro != -12 {
			t.Fatalf("panel[0]: objective %v, want -12", ro)
		}
	}
}

// TestBoundRowCapsLoneVariable checks a bound row on its own: a
// variable in no other row, with negative cost and the row x <= 6, is
// solved at that bound instead of declaring unboundedness.
func TestBoundRowCapsLoneVariable(t *testing.T) {
	p := NewProblem()
	p.AddVar("used", 1)
	p.AddVar("free", -2) // appears only in its bound row
	p.AddConstraint(GE, 3, Term{0, 1})
	p.AddConstraint(LE, 6, Term{1, 1})
	sol, err := Solve(p)
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
