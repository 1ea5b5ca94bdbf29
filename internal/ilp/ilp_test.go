package ilp

import (
	"math"
	"math/rand"
	"testing"

	"calib/internal/lp"
)

func TestKnapsackStyle(t *testing.T) {
	// max 5a + 4b (min negation) s.t. 6a + 5b <= 10, a,b integer:
	// LP opt a=10/6; ILP opt a=1,b=0 (obj 5)? check b: a=0,b=2
	// (6*0+10<=10) obj 8. a=1,b=0: 6<=10 obj 5. So best is b=2: -8.
	p := lp.NewProblem()
	a := p.AddVar("a", -5)
	b := p.AddVar("b", -4)
	p.AddConstraint(lp.LE, 10, lp.Term{Var: a, Coeff: 6}, lp.Term{Var: b, Coeff: 5})
	res, err := Solve(p, []int{a, b}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != lp.Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective-(-8)) > 1e-9 {
		t.Errorf("objective = %v, want -8", res.Objective)
	}
	if math.Abs(res.X[b]-2) > 1e-9 || math.Abs(res.X[a]) > 1e-9 {
		t.Errorf("x = %v, want a=0 b=2", res.X)
	}
}

func TestIntegralityForcesWorseObjective(t *testing.T) {
	// min x s.t. 2x >= 3: LP opt 1.5, ILP opt 2.
	p := lp.NewProblem()
	x := p.AddVar("x", 1)
	p.AddConstraint(lp.GE, 3, lp.Term{Var: x, Coeff: 2})
	res, err := Solve(p, []int{x}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Objective-2) > 1e-9 {
		t.Errorf("objective = %v, want 2", res.Objective)
	}
}

// TestNodeCapOnLastNode: a tree that closes on exactly the last node
// the cap allows is proven, not cut short. min x s.t. 2x >= 3 takes
// three nodes: the root (x = 1.5), the infeasible x <= 1 and the
// integral x >= 2.
func TestNodeCapOnLastNode(t *testing.T) {
	p := lp.NewProblem()
	x := p.AddVar("x", 1)
	p.AddConstraint(lp.GE, 3, lp.Term{Var: x, Coeff: 2})
	res, err := Solve(p, []int{x}, Options{MaxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != 3 || res.Status != lp.Optimal || res.Objective != 2 {
		t.Errorf("nodes %d status %v objective %v, want 3 optimal 2", res.Nodes, res.Status, res.Objective)
	}
	res, err = Solve(p, []int{x}, Options{MaxNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != lp.IterLimit || res.Found {
		t.Errorf("MaxNodes 2: status %v found %v, want iteration-limit with nothing found", res.Status, res.Found)
	}
}

func TestInfeasibleInteger(t *testing.T) {
	// 0.4 <= x <= 0.6 has no integer point.
	p := lp.NewProblem()
	x := p.AddVar("x", 1)
	p.AddConstraint(lp.GE, 0.4, lp.Term{Var: x, Coeff: 1})
	p.AddConstraint(lp.LE, 0.6, lp.Term{Var: x, Coeff: 1})
	res, err := Solve(p, []int{x}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != lp.Infeasible || res.Found {
		t.Errorf("status = %v found = %v, want infeasible", res.Status, res.Found)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min 3y + z s.t. y + z >= 2.5, y integer, z continuous:
	// y=0 -> z=2.5 obj 2.5; y=1 -> z=1.5 obj 4.5. Best 2.5.
	p := lp.NewProblem()
	y := p.AddVar("y", 3)
	z := p.AddVar("z", 1)
	p.AddConstraint(lp.GE, 2.5, lp.Term{Var: y, Coeff: 1}, lp.Term{Var: z, Coeff: 1})
	res, err := Solve(p, []int{y}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Objective-2.5) > 1e-9 {
		t.Errorf("objective = %v, want 2.5", res.Objective)
	}
	if math.Abs(res.X[y]) > 1e-9 {
		t.Errorf("y = %v, want 0", res.X[y])
	}
}

// TestRandomILPAgainstEnumeration cross-checks small random integer
// programs against brute-force enumeration over a box.
func TestRandomILPAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		nv := 2 + rng.Intn(3)
		p := lp.NewProblem()
		costs := make([]float64, nv)
		vars := make([]int, nv)
		for v := 0; v < nv; v++ {
			costs[v] = float64(rng.Intn(7) - 3)
			vars[v] = p.AddVar("x", costs[v])
		}
		// Box: x_v <= 3 keeps enumeration tiny and the ILP bounded.
		for _, v := range vars {
			p.AddConstraint(lp.LE, 3, lp.Term{Var: v, Coeff: 1})
		}
		nc := 1 + rng.Intn(3)
		type rowSpec struct {
			coeff []float64
			rhs   float64
		}
		var rows []rowSpec
		for c := 0; c < nc; c++ {
			spec := rowSpec{coeff: make([]float64, nv)}
			var terms []lp.Term
			for v := 0; v < nv; v++ {
				spec.coeff[v] = float64(rng.Intn(4))
				if spec.coeff[v] != 0 {
					terms = append(terms, lp.Term{Var: vars[v], Coeff: spec.coeff[v]})
				}
			}
			spec.rhs = float64(rng.Intn(10))
			if len(terms) == 0 {
				continue
			}
			p.AddConstraint(lp.LE, spec.rhs, terms...)
			rows = append(rows, spec)
		}
		res, err := Solve(p, vars, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Brute force over {0..3}^nv.
		bestObj := math.Inf(1)
		found := false
		var walk func(v int, x []float64)
		walk = func(v int, x []float64) {
			if v == nv {
				for _, r := range rows {
					lhs := 0.0
					for k := range x {
						lhs += r.coeff[k] * x[k]
					}
					if lhs > r.rhs+1e-9 {
						return
					}
				}
				obj := 0.0
				for k := range x {
					obj += costs[k] * x[k]
				}
				if obj < bestObj {
					bestObj = obj
					found = true
				}
				return
			}
			for val := 0; val <= 3; val++ {
				x[v] = float64(val)
				walk(v+1, x)
			}
		}
		walk(0, make([]float64, nv))
		if !found {
			if res.Found {
				t.Fatalf("trial %d: ILP found a solution where enumeration found none", trial)
			}
			continue
		}
		if !res.Found {
			t.Fatalf("trial %d: ILP missed the feasible optimum %v", trial, bestObj)
		}
		if math.Abs(res.Objective-bestObj) > 1e-6 {
			t.Errorf("trial %d: ILP objective %v != brute force %v", trial, res.Objective, bestObj)
		}
	}
}

func TestBadIntVar(t *testing.T) {
	p := lp.NewProblem()
	p.AddVar("x", 1)
	if _, err := Solve(p, []int{5}, Options{}); err == nil {
		t.Error("out-of-range integer variable accepted")
	}
}
