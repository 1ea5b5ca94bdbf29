// Package ilp implements a small branch-and-bound integer programming
// layer over calib/internal/lp. Its purpose in this reproduction is to
// solve the *integer* version of the TISE relaxation exactly, giving
// (a) an optimal-TISE oracle independent of the combinatorial exact
// solver and (b) the measured integrality gap of the paper's LP — the
// quantity the rounding step's factor 2 (Lemma 7) is paying for.
//
// The solver is a classic LP-based branch and bound: solve the LP
// relaxation, pick a variable required to be integral whose value is
// fractional, branch on floor/ceil bounds (encoded as extra rows), and
// bound subtrees by the LP optimum. Designed for small problems.
package ilp

import (
	"fmt"
	"math"

	"calib/internal/lp"
)

// Options configures Solve.
type Options struct {
	// MaxNodes caps the branch-and-bound tree (default 20000).
	MaxNodes int
}

// tol is the integrality tolerance, also the margin by which a node's
// bound must beat the incumbent.
const tol = 1e-6

// Result is the outcome of Solve.
type Result struct {
	// Status is Optimal when an optimal integer solution was proven,
	// Infeasible when no integer solution exists, IterLimit when the
	// node cap stopped the search with subproblems still open
	// (Objective/X then hold the best found, if any).
	Status lp.Status
	// Objective and X describe the best integer solution found.
	Objective float64
	X         []float64
	// Nodes is the number of branch-and-bound nodes solved.
	Nodes int
	// Found reports whether any integer solution was found.
	Found bool
}

// branch is one pending subproblem: a set of variable bounds encoded
// as constraint rows appended to the base problem.
type bound struct {
	v     int
	upper bool // x_v <= val (else x_v >= val)
	val   float64
}

// Solve minimizes p subject to the additional requirement that every
// variable in intVars takes an integer value.
func Solve(p *lp.Problem, intVars []int, opts Options) (*Result, error) {
	maxNodes := opts.MaxNodes
	if maxNodes == 0 {
		maxNodes = 20000
	}
	res := &Result{Status: lp.Infeasible, Objective: math.Inf(1)}
	isInt := make(map[int]bool, len(intVars))
	for _, v := range intVars {
		if v < 0 || v >= p.NumVars() {
			return nil, fmt.Errorf("ilp: integer variable %d out of range", v)
		}
		isInt[v] = true
	}

	// Depth-first stack of bound sets.
	type node struct{ bounds []bound }
	stack := []node{{}}
	for len(stack) > 0 && res.Nodes < maxNodes {
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		res.Nodes++

		sol, err := lp.Solve(clone(p, nd.bounds))
		if err != nil {
			return nil, err
		}
		if sol.Status == lp.Infeasible {
			continue
		}
		if sol.Status != lp.Optimal {
			// Numerical trouble in a subproblem: treat as exhausted.
			continue
		}
		if sol.Objective >= res.Objective-tol {
			continue // bounded by incumbent
		}
		// Find the most fractional integer variable.
		branchVar, worst := -1, tol
		for _, v := range intVars {
			f := sol.X[v] - math.Floor(sol.X[v])
			frac := math.Min(f, 1-f)
			if frac > worst {
				worst, branchVar = frac, v
			}
		}
		if branchVar < 0 {
			// Integer solution (round off numerical fuzz).
			x := append([]float64(nil), sol.X...)
			obj := 0.0
			for v := range x {
				if isInt[v] {
					x[v] = math.Round(x[v])
				}
			}
			// Recompute the objective from the rounded point to avoid
			// drift.
			obj = objectiveOf(p, x)
			if obj < res.Objective {
				res.Objective = obj
				res.X = x
				res.Found = true
			}
			continue
		}
		fl := math.Floor(sol.X[branchVar])
		// Explore the "down" branch first (DFS order: push up then
		// down so down pops first) — down tends to reach integer
		// calibration profiles sooner.
		stack = append(stack, node{bounds: append(append([]bound(nil), nd.bounds...), bound{branchVar, false, fl + 1})})
		stack = append(stack, node{bounds: append(append([]bound(nil), nd.bounds...), bound{branchVar, true, fl})})
	}
	if len(stack) > 0 {
		res.Status = lp.IterLimit
	} else if res.Found {
		res.Status = lp.Optimal
	}
	return res, nil
}

// clone rebuilds p plus the branching bounds as fresh constraint rows.
func clone(p *lp.Problem, bounds []bound) *lp.Problem {
	out := p.Copy()
	for _, b := range bounds {
		if b.upper {
			out.AddConstraint(lp.LE, b.val, lp.Term{Var: b.v, Coeff: 1})
		} else {
			out.AddConstraint(lp.GE, b.val, lp.Term{Var: b.v, Coeff: 1})
		}
	}
	return out
}

// objectiveOf evaluates p's objective at x.
func objectiveOf(p *lp.Problem, x []float64) float64 {
	obj := 0.0
	for v := 0; v < p.NumVars(); v++ {
		obj += p.Obj(v) * x[v]
	}
	return obj
}
