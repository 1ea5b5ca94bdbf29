package lp

import (
	"math"
	"testing"
)

// decodeLP deterministically derives a small LP from fuzz bytes.
// Coefficients stay small and integral so the exact rational engine is
// a meaningful referee.
func decodeLP(data []byte) *Problem {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		v := int(data[0])
		data = data[1:]
		return v
	}
	p := NewProblem()
	nv := 1 + next()%6
	for v := 0; v < nv; v++ {
		p.AddVar("x", float64(next()%9-4))
	}
	// Upper bounds on a fuzz-chosen subset of variables, written as
	// x_v <= u rows after the box rows below.
	var bounds []Term
	for v := 0; v < nv; v++ {
		if next()%3 == 0 {
			bounds = append(bounds, Term{v, float64(next() % 12)})
		}
	}
	nc := next() % 6
	for c := 0; c < nc; c++ {
		var terms []Term
		for v := 0; v < nv; v++ {
			if coef := next()%7 - 3; coef != 0 {
				terms = append(terms, Term{v, float64(coef)})
			}
		}
		if len(terms) == 0 {
			continue
		}
		rel := Rel(next() % 3)
		rhs := float64(next()%21 - 10)
		p.AddConstraint(rel, rhs, terms...)
	}
	// A box keeps everything bounded so "unbounded" cannot hinge on
	// float round-off.
	for v := 0; v < nv; v++ {
		p.AddConstraint(LE, 50, Term{v, 1})
	}
	for _, b := range bounds {
		p.AddConstraint(LE, b.Coeff, Term{b.Var, 1})
	}
	return p
}

// FuzzEnginesAgree checks that the dense and rational engines agree on
// status and optimum for arbitrary small LPs, that neither panics, and
// that every optimal dense answer satisfies its rows.
func FuzzEnginesAgree(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 2, 3, 2, 1, 1, 0, 0, 5, 2, 2, 2, 1, 9})
	f.Add(make([]byte, 40))
	f.Add([]byte{5, 4, 3, 2, 1, 0, 4, 1, 1, 1, 1, 1, 2, 15, 2, 2, 0, 3, 1, 1, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeLP(data)
		dense, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		rational, err := SolveRational(p)
		if err != nil {
			t.Fatal(err)
		}
		if rational.Status == IterLimit || dense.Status == IterLimit {
			return // pathological; nothing to compare
		}
		if dense.Status != rational.Status {
			t.Fatalf("status disagreement: dense=%v rational=%v\n%s",
				dense.Status, rational.Status, p)
		}
		if rational.Status == Optimal {
			ro := rational.ObjectiveFloat()
			tol := 1e-5 * (1 + math.Abs(ro))
			if math.Abs(dense.Objective-ro) > tol {
				t.Fatalf("dense objective %v != rational %v\n%s", dense.Objective, ro, p)
			}
			checkLPFeasible(t, p, dense, "dense")
		}
	})
}

// checkLPFeasible asserts sol.X is nonnegative and satisfies every row
// of p to tolerance, and that the reported objective matches c·x.
func checkLPFeasible(t *testing.T, p *Problem, sol *Solution, tag string) {
	t.Helper()
	const tol = 1e-6
	obj := 0.0
	for v, x := range sol.X {
		if x < -tol {
			t.Fatalf("%s: X[%d] = %v negative", tag, v, x)
		}
		obj += p.obj[v] * x
	}
	if math.Abs(obj-sol.Objective) > tol*(1+math.Abs(obj)) {
		t.Fatalf("%s: objective %v != c·x %v", tag, sol.Objective, obj)
	}
	for i, r := range p.rows {
		lhs := 0.0
		scale := 1.0
		for _, term := range r.terms {
			lhs += term.Coeff * sol.X[term.Var]
			if a := math.Abs(term.Coeff); a > scale {
				scale = a
			}
		}
		rtol := tol * (scale + math.Abs(r.rhs) + 1)
		switch r.rel {
		case LE:
			if lhs > r.rhs+rtol {
				t.Fatalf("%s: row %d: %v </= %v", tag, i, lhs, r.rhs)
			}
		case GE:
			if lhs < r.rhs-rtol {
				t.Fatalf("%s: row %d: %v >/= %v", tag, i, lhs, r.rhs)
			}
		case EQ:
			if math.Abs(lhs-r.rhs) > rtol {
				t.Fatalf("%s: row %d: %v != %v", tag, i, lhs, r.rhs)
			}
		}
	}
}
