package lp

import (
	"math"
	"math/big"
)

// RatSolution is the result of SolveRational: an exact optimum over
// rational arithmetic.
type RatSolution struct {
	Status     Status
	Objective  *big.Rat
	X          []*big.Rat // valid only when Status == Optimal
	Iterations int
}

// ObjectiveFloat returns the objective as a float64 (0 when not
// optimal).
func (s *RatSolution) ObjectiveFloat() float64 {
	if s.Status != Optimal || s.Objective == nil {
		return 0
	}
	f, _ := s.Objective.Float64()
	return f
}

// ratTableau mirrors tableau with exact entries. It always pivots by
// Bland's rule, which with exact arithmetic guarantees termination.
type ratTableau struct {
	m, n  int
	a     [][]*big.Rat // (m+1) x (n+1)
	basis []int
	nvar  int
	artLo int
}

// SolveRational runs the two-phase simplex on p with exact big.Rat
// arithmetic. Problem coefficients are converted from float64 exactly
// (every float64 is a rational). Intended for small problems: used to
// cross-validate the float engine and for exactness-critical tests.
func SolveRational(p *Problem) (*RatSolution, error) {
	return SolveRationalChecked(p, nil)
}

// SolveRationalChecked is SolveRational with a cancellation/budget
// hook consulted once per pivot (rational pivots are orders of
// magnitude more expensive than the check). On abort the RatSolution
// carries Status Aborted and the check's error is returned.
func SolveRationalChecked(p *Problem, check CheckFunc) (*RatSolution, error) {
	t, hasArt := buildRat(p)
	sol := &RatSolution{}
	if hasArt {
		cost := make([]*big.Rat, t.n)
		for j := range cost {
			cost[j] = new(big.Rat)
			if j >= t.artLo {
				cost[j].SetInt64(1)
			}
		}
		t.installCost(cost)
		st, iters, err := t.iterate(true, check)
		sol.Iterations += iters
		if err != nil {
			sol.Status = st
			return sol, err
		}
		if st != Optimal {
			sol.Status = IterLimit
			return sol, nil
		}
		w := new(big.Rat).Neg(t.a[t.m][t.n])
		if w.Sign() > 0 {
			sol.Status = Infeasible
			return sol, nil
		}
		t.purgeArtificials()
	}
	cost := make([]*big.Rat, t.n)
	for j := range cost {
		cost[j] = new(big.Rat)
		if j < p.NumVars() {
			setRatFromFloat(cost[j], p.obj[j])
		}
	}
	t.installCost(cost)
	st, iters, err := t.iterate(false, check)
	sol.Iterations += iters
	sol.Status = st
	if err != nil {
		return sol, err
	}
	if st != Optimal {
		return sol, nil
	}
	sol.X = make([]*big.Rat, p.NumVars())
	for v := range sol.X {
		sol.X[v] = new(big.Rat)
	}
	for i, b := range t.basis {
		if b < p.NumVars() {
			sol.X[b].Set(t.a[i][t.n])
		}
	}
	sol.Objective = new(big.Rat)
	tmp := new(big.Rat)
	for v, x := range sol.X {
		setRatFromFloat(tmp, p.obj[v])
		tmp.Mul(tmp, x)
		sol.Objective.Add(sol.Objective, tmp)
	}
	return sol, nil
}

func setRatFromFloat(r *big.Rat, f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		panic("lp: non-finite coefficient")
	}
	r.SetFloat64(f)
}

func buildRat(p *Problem) (*ratTableau, bool) {
	m := p.NumRows()
	nSlack, nArt := 0, 0
	for _, r := range p.rows {
		switch normalizedRel(r) {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	n := p.NumVars() + nSlack + nArt
	t := &ratTableau{m: m, n: n, basis: make([]int, m), nvar: p.NumVars(), artLo: p.NumVars() + nSlack}
	t.a = make([][]*big.Rat, m+1)
	for i := range t.a {
		t.a[i] = make([]*big.Rat, n+1)
		for j := range t.a[i] {
			t.a[i][j] = new(big.Rat)
		}
	}
	slack, art := p.NumVars(), t.artLo
	tmp := new(big.Rat)
	for i, r := range p.rows {
		neg := r.rhs < 0
		for _, term := range r.terms {
			setRatFromFloat(tmp, term.Coeff)
			if neg {
				tmp.Neg(tmp)
			}
			t.a[i][term.Var].Add(t.a[i][term.Var], tmp)
		}
		setRatFromFloat(tmp, r.rhs)
		if neg {
			tmp.Neg(tmp)
		}
		t.a[i][n].Set(tmp)
		switch normalizedRel(r) {
		case LE:
			t.a[i][slack].SetInt64(1)
			t.basis[i] = slack
			slack++
		case GE:
			t.a[i][slack].SetInt64(-1)
			slack++
			t.a[i][art].SetInt64(1)
			t.basis[i] = art
			art++
		case EQ:
			t.a[i][art].SetInt64(1)
			t.basis[i] = art
			art++
		}
	}
	return t, nArt > 0
}

func (t *ratTableau) installCost(cost []*big.Rat) {
	crow := t.a[t.m]
	for j := range crow {
		crow[j].SetInt64(0)
	}
	for j, c := range cost {
		crow[j].Set(c)
	}
	tmp := new(big.Rat)
	for i, b := range t.basis {
		if cost[b].Sign() == 0 {
			continue
		}
		cb := new(big.Rat).Set(cost[b])
		for j := range crow {
			tmp.Mul(cb, t.a[i][j])
			crow[j].Sub(crow[j], tmp)
		}
	}
}

func (t *ratTableau) iterate(phase1 bool, check CheckFunc) (Status, int, error) {
	hi := t.n
	if !phase1 {
		hi = t.artLo
	}
	maxIters := 1 << 20 // Bland's rule terminates; this is a safety net
	ratio := new(big.Rat)
	best := new(big.Rat)
	for iter := 0; iter < maxIters; iter++ {
		if check != nil {
			if err := check(1); err != nil {
				return Aborted, iter, err
			}
		}
		crow := t.a[t.m]
		enter := -1
		for j := 0; j < hi; j++ {
			if crow[j].Sign() < 0 {
				enter = j
				break
			}
		}
		if enter < 0 {
			return Optimal, iter, nil
		}
		leave := -1
		for i := 0; i < t.m; i++ {
			if t.a[i][enter].Sign() <= 0 {
				continue
			}
			ratio.Quo(t.a[i][t.n], t.a[i][enter])
			if leave < 0 || ratio.Cmp(best) < 0 ||
				(ratio.Cmp(best) == 0 && t.basis[i] < t.basis[leave]) {
				leave = i
				best.Set(ratio)
			}
		}
		if leave < 0 {
			return Unbounded, iter, nil
		}
		t.pivot(leave, enter)
	}
	return IterLimit, maxIters, nil
}

func (t *ratTableau) pivot(r, c int) {
	pr := t.a[r]
	inv := new(big.Rat).Inv(pr[c])
	for j := range pr {
		pr[j].Mul(pr[j], inv)
	}
	pr[c].SetInt64(1)
	tmp := new(big.Rat)
	for i := 0; i <= t.m; i++ {
		if i == r {
			continue
		}
		ri := t.a[i]
		if ri[c].Sign() == 0 {
			continue
		}
		f := new(big.Rat).Set(ri[c])
		for j := range ri {
			tmp.Mul(f, pr[j])
			ri[j].Sub(ri[j], tmp)
		}
		ri[c].SetInt64(0)
	}
	t.basis[r] = c
}

func (t *ratTableau) purgeArtificials() {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artLo {
			continue
		}
		piv := -1
		for j := 0; j < t.artLo; j++ {
			if t.a[i][j].Sign() != 0 {
				piv = j
				break
			}
		}
		if piv >= 0 {
			t.pivot(i, piv)
			continue
		}
		for j := 0; j <= t.n; j++ {
			t.a[i][j].SetInt64(0)
		}
		t.a[i][t.basis[i]].SetInt64(1)
	}
	for i := 0; i <= t.m; i++ {
		for j := t.artLo; j < t.n; j++ {
			if i < t.m && t.basis[i] == j {
				continue
			}
			t.a[i][j].SetInt64(0)
		}
	}
}
