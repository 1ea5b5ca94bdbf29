package lp

import (
	"fmt"
	"math"
	"sort"
)

// Presolved is the output of Presolve: a reduced problem plus the
// information needed to map its solutions back to the original
// variable space.
type Presolved struct {
	// Problem is the reduced problem (nil when Status decided the
	// original outright).
	Problem *Problem
	// Status is Optimal when the reduction is valid and a solve is
	// still needed, Infeasible/Unbounded when presolve already decided
	// the instance.
	Status Status
	// keep[i] is the original index of reduced variable i.
	keep []int
	// fixed[v] holds values of variables eliminated by presolve,
	// indexed by original variable.
	fixed map[int]float64
	nOrig int
}

// Presolve applies safe reductions to p:
//
//   - empty rows are dropped (or decide infeasibility);
//   - singleton rows that are implied by x >= 0 are dropped, and
//     singleton equality rows fix their variable, which is then
//     substituted out;
//   - variables fixed to zero by singleton rows (a*x <= 0, a > 0, or
//     a*x >= 0 with a < 0) are substituted out;
//   - unused variables are fixed at 0 (or decide unboundedness when
//     their cost is negative);
//   - duplicate rows keep only the tightest representative.
//
// The reductions preserve the optimal value exactly. Use Restore to
// lift a reduced solution back to the original variables.
func Presolve(p *Problem) *Presolved {
	ps := &Presolved{fixed: map[int]float64{}, nOrig: p.NumVars()}
	cur := p.Copy()
	for {
		changed, status := ps.pass(cur)
		if status != Optimal {
			ps.Status = status
			return ps
		}
		if !changed {
			break
		}
	}
	// Compact the variable space: drop fixed and unused variables.
	used := make([]bool, cur.NumVars())
	for _, r := range cur.rows {
		for _, t := range r.terms {
			used[t.Var] = true
		}
	}
	reduced := NewProblem()
	newIdx := make([]int, cur.NumVars())
	for v := 0; v < cur.NumVars(); v++ {
		if _, isFixed := ps.fixed[v]; isFixed {
			newIdx[v] = -1
			continue
		}
		if !used[v] {
			// Unused variable: cost < 0 makes the LP unbounded.
			if cur.obj[v] < 0 {
				ps.Status = Unbounded
				return ps
			}
			ps.fixed[v] = 0
			newIdx[v] = -1
			continue
		}
		newIdx[v] = reduced.AddVar(cur.names[v], cur.obj[v])
		ps.keep = append(ps.keep, v)
	}
	for _, r := range cur.rows {
		terms := make([]Term, 0, len(r.terms))
		for _, t := range r.terms {
			terms = append(terms, Term{Var: newIdx[t.Var], Coeff: t.Coeff})
		}
		reduced.AddConstraint(r.rel, r.rhs, terms...)
	}
	ps.Problem = reduced
	ps.Status = Optimal
	return ps
}

// pass performs one round of reductions in place on cur (variables are
// not renumbered here; fixed ones are recorded and substituted).
func (ps *Presolved) pass(cur *Problem) (changed bool, status Status) {
	var rows []row
	seen := map[string]int{} // normalized row signature -> index in rows
	for _, r := range cur.rows {
		// Substitute already-fixed variables and merge duplicates.
		terms := make([]Term, 0, len(r.terms))
		rhs := r.rhs
		sums := map[int]float64{}
		for _, t := range r.terms {
			if val, ok := ps.fixed[t.Var]; ok {
				rhs -= t.Coeff * val
				continue
			}
			sums[t.Var] += t.Coeff
		}
		vars := make([]int, 0, len(sums))
		for v := range sums {
			vars = append(vars, v)
		}
		sort.Ints(vars)
		for _, v := range vars {
			if sums[v] != 0 {
				terms = append(terms, Term{Var: v, Coeff: sums[v]})
			}
		}
		if len(terms) == 0 {
			ok := true
			switch r.rel {
			case LE:
				ok = rhs >= -epsPivot
			case GE:
				ok = rhs <= epsPivot
			case EQ:
				ok = math.Abs(rhs) <= epsPivot
			}
			if !ok {
				return false, Infeasible
			}
			changed = true
			continue // drop empty row
		}
		if len(terms) == 1 {
			keep, fixVal, st := singleton(terms[0], r.rel, rhs)
			if st != Optimal {
				return false, st
			}
			if fixVal != nil {
				ps.fixed[terms[0].Var] = *fixVal
				changed = true
				continue
			}
			if !keep {
				changed = true
				continue
			}
		}
		// Duplicate detection: same terms and relation; keep the
		// tightest rhs.
		sig := signature(terms, r.rel)
		if idx, ok := seen[sig]; ok {
			switch r.rel {
			case LE:
				if rhs < rows[idx].rhs {
					rows[idx].rhs = rhs
				}
			case GE:
				if rhs > rows[idx].rhs {
					rows[idx].rhs = rhs
				}
			case EQ:
				if math.Abs(rhs-rows[idx].rhs) > epsPivot {
					return false, Infeasible
				}
			}
			changed = true
			continue
		}
		seen[sig] = len(rows)
		rows = append(rows, row{terms: terms, rel: r.rel, rhs: rhs})
	}
	cur.rows = rows
	return changed, Optimal
}

// singleton analyzes a one-term row a*x rel rhs against x >= 0. It
// returns keep=false to drop a redundant row, fixVal non-nil to fix
// the variable, or a terminal status.
func singleton(t Term, rel Rel, rhs float64) (keep bool, fixVal *float64, status Status) {
	a := t.Coeff
	bound := rhs / a
	switch rel {
	case EQ:
		if bound < -epsPivot {
			return false, nil, Infeasible
		}
		v := bound
		if v < 0 {
			v = 0
		}
		return false, &v, Optimal
	case LE:
		if a > 0 {
			if bound < -epsPivot {
				return false, nil, Infeasible
			}
			if bound <= epsPivot {
				z := 0.0
				return false, &z, Optimal
			}
			return true, nil, Optimal // genuine upper bound: keep
		}
		// a < 0: x >= bound with bound <= 0 is implied by x >= 0.
		if bound <= epsPivot {
			return false, nil, Optimal
		}
		return true, nil, Optimal
	case GE:
		if a > 0 {
			if bound <= epsPivot {
				return false, nil, Optimal // implied by x >= 0
			}
			return true, nil, Optimal
		}
		// a < 0: x <= bound.
		if bound < -epsPivot {
			return false, nil, Infeasible
		}
		if bound <= epsPivot {
			z := 0.0
			return false, &z, Optimal
		}
		return true, nil, Optimal
	}
	return true, nil, Optimal
}

// signature builds a canonical key for duplicate-row detection.
func signature(terms []Term, rel Rel) string {
	s := fmt.Sprintf("%d|", rel)
	for _, t := range terms {
		s += fmt.Sprintf("%d:%.12g;", t.Var, t.Coeff)
	}
	return s
}

// Restore lifts a reduced-space solution to the original variables.
func (ps *Presolved) Restore(x []float64) []float64 {
	out := make([]float64, ps.nOrig)
	for v, val := range ps.fixed {
		out[v] = val
	}
	for i, orig := range ps.keep {
		out[orig] = x[i]
	}
	return out
}

// SolvePresolved presolves p, solves the reduction with the dense
// engine, and restores the solution. The objective includes the
// contribution of presolve-fixed variables.
func SolvePresolved(p *Problem) (*Solution, error) {
	ps := Presolve(p)
	switch ps.Status {
	case Infeasible, Unbounded:
		return &Solution{Status: ps.Status}, nil
	}
	sol, err := Solve(ps.Problem)
	if err != nil || sol.Status != Optimal {
		return sol, err
	}
	full := ps.Restore(sol.X)
	obj := 0.0
	for v := 0; v < p.NumVars(); v++ {
		obj += p.obj[v] * full[v]
	}
	return &Solution{Status: Optimal, Objective: obj, X: full, Iterations: sol.Iterations}, nil
}
