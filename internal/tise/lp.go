package tise

import (
	"fmt"

	"calib/internal/ise"
	"calib/internal/lp"
	"calib/internal/obs"
	"calib/internal/robust"
)

// Engine selects the LP solver backend.
type Engine int

// LP engines.
const (
	// Float64 uses the dense two-phase float tableau simplex (default).
	Float64 Engine = iota
	// Rational uses exact big.Rat simplex (slow; small instances and
	// cross-validation only).
	Rational
	// Revised uses the sparse-column revised simplex with a sparse LU
	// basis factorization (Markowitz-ordered, Forrest–Tomlin column
	// updates): same float64 arithmetic as Float64 but O(nnz) memory
	// instead of the dense tableau's O(m*n). Both skip zeros when they
	// pivot; on single cold solves at served sizes Float64 is faster.
	Revised
	// RevisedDense is Revised on its dense explicit-inverse reference
	// representation (O(m^2) memory, product-form updates) — the
	// implementation the LU path is validated against and falls back
	// to. Selectable for cross-checking and diagnosis.
	RevisedDense
)

func (e Engine) String() string {
	switch e {
	case Float64:
		return "float64"
	case Rational:
		return "rational"
	case Revised:
		return "revised"
	case RevisedDense:
		return "revised-dense"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// Fractional is a fractional TISE solution: the LP relaxation's
// calibration profile and job assignment over the potential
// calibration points.
type Fractional struct {
	// Points are the potential calibration points, sorted ascending.
	Points []ise.Time
	// C[i] is the (fractional) number of calibrations at Points[i].
	C []float64
	// X[j][i] is the fraction of job j assigned to Points[i]
	// (0 for TISE-infeasible pairs).
	X [][]float64
	// Objective is the LP optimum, a lower bound on the number of
	// calibrations of any TISE schedule on MPrime machines.
	Objective float64
	// MPrime is the machine bound m' the LP was solved for.
	MPrime int
	// Iterations counts simplex pivots (summed over cut rounds).
	Iterations int
	// CutRounds and CutsAdded describe the lazy-cut loop (zero under
	// the Direct strategy): how many resolves happened and how many
	// constraint (2) rows were ever materialized.
	CutRounds, CutsAdded int
	// MachinePrice[i] is the dual value of constraint (1) at Points[i]
	// — the shadow price of the m' machine cap on the window ending at
	// that point. Nonzero entries mark the congested stretches where
	// one more machine would reduce the fractional calibration count.
	// Populated by the float engines (Direct strategy); nil otherwise.
	MachinePrice []float64
}

// InfeasibleError reports that the TISE LP relaxation (and hence the
// TISE instance) is infeasible on the given number of machines.
type InfeasibleError struct {
	MPrime int
}

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("tise: LP relaxation infeasible on %d machines", e.MPrime)
}

// NumericalError reports that an LP solve ended without a verdict —
// iteration limit or a claimed unbounded relaxation, both of which
// signal numerical trouble rather than a property of the instance.
// Unlike *InfeasibleError it says nothing about feasibility: the
// instance may well be feasible on the same machine count.
type NumericalError struct {
	MPrime int
	Status lp.Status
}

func (e *NumericalError) Error() string {
	return fmt.Sprintf("tise: LP solve on %d machines ended with status %v", e.MPrime, e.Status)
}

// BuildLP constructs the TISE LP relaxation of inst on mPrime machines
// over the given calibration points (constraints (1)-(6) of the
// paper). It returns the problem plus the variable index maps: cVar[i]
// is the variable of C_{points[i]}, and xVar[j][i] is the variable of
// X_{j,points[i]} or -1 for TISE-infeasible pairs.
//
// Constraint (2), X_jt <= C_t, contributes one row per feasible
// (job, point) pair — by far the largest row family. BuildLP emits all
// of them; BuildLPRelaxed omits them for the lazy-cut strategy of
// SolveLP.
func BuildLP(inst *ise.Instance, mPrime int, points []ise.Time) (p *lp.Problem, cVar []int, xVar [][]int) {
	p, cVar, xVar = buildLP(inst, mPrime, points, true)
	return p, cVar, xVar
}

// BuildLPRelaxed is BuildLP without the constraint (2) rows.
func BuildLPRelaxed(inst *ise.Instance, mPrime int, points []ise.Time) (p *lp.Problem, cVar []int, xVar [][]int) {
	p, cVar, xVar = buildLP(inst, mPrime, points, false)
	return p, cVar, xVar
}

func buildLP(inst *ise.Instance, mPrime int, points []ise.Time, withPairRows bool) (p *lp.Problem, cVar []int, xVar [][]int) {
	p = lp.NewProblem()
	cVar = make([]int, len(points))
	for i, t := range points {
		cVar[i] = p.AddVar(fmt.Sprintf("C[%d]", t), 1)
	}
	xVar = make([][]int, inst.N())
	for j := range inst.Jobs {
		xVar[j] = make([]int, len(points))
		for i := range points {
			xVar[j][i] = -1
		}
	}
	// Constraint (5) is enforced structurally: X variables exist only
	// for TISE-feasible (job, point) pairs.
	for jIdx, j := range inst.Jobs {
		for i, t := range points {
			if Feasible(inst.T, j, t) {
				xVar[jIdx][i] = p.AddVar(fmt.Sprintf("X[%d,%d]", jIdx, t), 0)
			}
		}
	}
	// (1) at most m' calibrations overlap: for each point t, the
	// calibrations started in (t-T, t] number at most m'.
	lo := 0
	for i, t := range points {
		for points[lo] <= t-inst.T {
			lo++
		}
		terms := make([]lp.Term, 0, i-lo+1)
		for k := lo; k <= i; k++ {
			terms = append(terms, lp.Term{Var: cVar[k], Coeff: 1})
		}
		p.AddConstraint(lp.LE, float64(mPrime), terms...)
	}
	// (2) X_jt <= C_t for each feasible pair.
	if withPairRows {
		for jIdx := range inst.Jobs {
			for i := range points {
				if v := xVar[jIdx][i]; v >= 0 {
					p.AddConstraint(lp.LE, 0, lp.Term{Var: v, Coeff: 1}, lp.Term{Var: cVar[i], Coeff: -1})
				}
			}
		}
	}
	// (3) work at a point fits in its calibrations:
	// sum_j X_jt p_j <= C_t T.
	for i := range points {
		terms := []lp.Term{{Var: cVar[i], Coeff: -float64(inst.T)}}
		for jIdx, j := range inst.Jobs {
			if v := xVar[jIdx][i]; v >= 0 {
				terms = append(terms, lp.Term{Var: v, Coeff: float64(j.Processing)})
			}
		}
		if len(terms) > 1 {
			p.AddConstraint(lp.LE, 0, terms...)
		}
	}
	// (4) every job fully assigned.
	for jIdx := range inst.Jobs {
		var terms []lp.Term
		for i := range points {
			if v := xVar[jIdx][i]; v >= 0 {
				terms = append(terms, lp.Term{Var: v, Coeff: 1})
			}
		}
		p.AddConstraint(lp.EQ, 1, terms...)
	}
	return p, cVar, xVar
}

// Strategy selects how the constraint (2) row family is handled.
type Strategy int

// LP strategies.
const (
	// Direct builds every row up front. Measured default: at laptop
	// scale most X_jt <= C_t rows bind, so cut separation materializes
	// the majority of them anyway and pays for several from-scratch
	// resolves (see experiment T6).
	Direct Strategy = iota
	// LazyCuts starts from the relaxation without the X_jt <= C_t
	// rows and adds only the violated ones, resolving until clean.
	// The final solution satisfies the full LP, so the optimum is
	// identical to Direct's; worthwhile only when few rows bind.
	LazyCuts
	// Bounded also omits the X_jt <= C_t rows but additionally installs
	// the implied variable bounds X_jt <= 1 (from constraint (4)) and
	// C_t <= m' (from constraint (1)) before separating violated pair
	// rows lazily. The bounds cost no rows in the revised engine's
	// bounded ratio test, tighten the relaxation so far fewer cuts are
	// ever materialized, and each cut round warm-starts from the
	// previous basis (dual-simplex repair) instead of solving from
	// scratch. Exact at convergence: the final solution satisfies the
	// full LP, so the optimum matches Direct's.
	Bounded
)

func (s Strategy) String() string {
	switch s {
	case LazyCuts:
		return "lazy-cuts"
	case Direct:
		return "direct"
	case Bounded:
		return "bounded"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// cutViolationTol is the slack beyond which an X_jt <= C_t row counts
// as violated during lazy-cut separation.
const cutViolationTol = 1e-7

// LPWarm carries reusable state across SolveLPBounded calls on one
// instance at different machine counts. Basis is the final simplex
// basis of the previous solve; Cuts lists the constraint (2) rows
// materialized so far as (job, point-index) pairs, in the order they
// were appended.
// X_jt <= C_t is valid for every machine count, so both carry over
// when only mPrime changes: the next solve installs the cuts up front
// (preserving row order, which keeps the basis mappable) and
// warm-starts the revised engine from the basis.
type LPWarm struct {
	Basis *lp.Basis
	Cuts  [][2]int
}

// SolveLP builds and solves the TISE LP relaxation for inst on mPrime
// machines using the Direct strategy. It returns an *InfeasibleError
// when the relaxation is infeasible.
func SolveLP(inst *ise.Instance, mPrime int, engine Engine) (*Fractional, error) {
	return SolveLPWith(inst, mPrime, engine, Direct)
}

// SolveLPWith is SolveLP with an explicit row strategy. Telemetry goes
// to the process-default registry when one is installed (obs.SetDefault);
// Solve threads an explicit registry via Options.Metrics instead.
func SolveLPWith(inst *ise.Instance, mPrime int, engine Engine, strategy Strategy) (*Fractional, error) {
	return solveLP(inst, mPrime, engine, strategy, nil, obs.Default(), nil)
}

// SolveLPBounded runs the Bounded strategy on the revised engine with
// cross-solve warm state. warm may be nil (no reuse); otherwise it is
// updated in place with the final basis and cut pool so the next call
// — typically another machine count of the same instance — resumes
// from it.
func SolveLPBounded(inst *ise.Instance, mPrime int, warm *LPWarm) (*Fractional, error) {
	return solveLP(inst, mPrime, Revised, Bounded, warm, obs.Default(), nil)
}

func solveLP(inst *ise.Instance, mPrime int, engine Engine, strategy Strategy, warm *LPWarm, met *obs.Registry, ctl *robust.Control) (*Fractional, error) {
	for _, j := range inst.Jobs {
		if !j.IsLong(inst.T) {
			return nil, fmt.Errorf("tise: %v is not a long-window job", j)
		}
	}
	points := CalibrationPoints(inst)
	if inst.N() == 0 {
		return &Fractional{MPrime: mPrime}, nil
	}

	var prob *lp.Problem
	var cVar []int
	var xVar [][]int
	if strategy == Direct {
		prob, cVar, xVar = BuildLP(inst, mPrime, points)
	} else {
		prob, cVar, xVar = BuildLPRelaxed(inst, mPrime, points)
	}
	if strategy == Bounded {
		// Implied bounds replacing rows: X_jt <= 1 from constraint (4),
		// C_t <= m' from constraint (1) with the point's own window.
		for _, v := range cVar {
			prob.SetUpper(v, float64(mPrime))
		}
		for j := range xVar {
			for _, v := range xVar[j] {
				if v >= 0 {
					prob.SetUpper(v, 1)
				}
			}
		}
	}

	frac := &Fractional{MPrime: mPrime}
	added := map[[2]int]bool{} // (job, point) rows already materialized
	var basis *lp.Basis
	if warm != nil {
		// Re-materialize the carried cut pool in its original order so
		// the carried basis maps onto matching rows.
		for _, c := range warm.Cuts {
			j, i := c[0], c[1]
			if v := xVar[j][i]; v >= 0 && !added[c] {
				prob.AddConstraint(lp.LE, 0,
					lp.Term{Var: v, Coeff: 1}, lp.Term{Var: cVar[i], Coeff: -1})
				added[c] = true
			}
		}
		basis = warm.Basis
	}
	const maxRounds = 100
	var xs []float64
	var obj float64
	var duals []float64
	for round := 0; ; round++ {
		// The cut loop is the tise-level long-running loop: each round
		// can add hundreds of rows and trigger a full resolve, so check
		// between rounds (the per-pivot hooks cover the inside).
		if err := ctl.ErrPhase("tise/cuts"); err != nil {
			return nil, err
		}
		status, solX, solObj, iters, solDuals, solBasis, err := solveProblem(prob, engine, basis, met, ctl)
		if err != nil {
			return nil, err
		}
		frac.Iterations += iters
		// Pivots are counted here, once per engine dispatch, so the
		// series covers all three engines; the revised engine records
		// only its internal series (warm hits, fallbacks, ...) itself.
		met.Counter(obs.MTISEResolves).Inc()
		met.Counter(obs.MLPPivots).Add(int64(iters))
		switch status {
		case lp.Optimal:
		case lp.Infeasible:
			if warm != nil {
				// The basis that proved infeasibility is not useful (and
				// not returned); drop the stale one but keep the cuts.
				warm.Basis = nil
			}
			return nil, &InfeasibleError{MPrime: mPrime}
		default:
			return nil, &NumericalError{MPrime: mPrime, Status: status}
		}
		xs, obj = solX, solObj
		duals = solDuals
		basis = solBasis
		if strategy == Direct {
			break
		}
		// Separation: when a job violates any X_jt <= C_t, materialize
		// its whole feasible row family. Cutting only the violated
		// points makes the mass wander to other points of the same job
		// and costs dozens of degenerate repair rounds; per-job batching
		// converges in 2-3 rounds on every workload we generate.
		violated, violPairs := 0, 0
		for j := range xVar {
			jViolated := false
			for i := range points {
				v := xVar[j][i]
				if v < 0 {
					continue
				}
				if xs[v] > xs[cVar[i]]+cutViolationTol {
					jViolated = true
					violPairs++
				}
			}
			if !jViolated {
				continue
			}
			for i := range points {
				v := xVar[j][i]
				if v < 0 || added[[2]int{j, i}] {
					continue
				}
				prob.AddConstraint(lp.LE, 0,
					lp.Term{Var: v, Coeff: 1}, lp.Term{Var: cVar[i], Coeff: -1})
				added[[2]int{j, i}] = true
				if warm != nil {
					warm.Cuts = append(warm.Cuts, [2]int{j, i})
				}
				violated++
			}
		}
		frac.CutRounds = round + 1
		frac.CutsAdded = len(added)
		met.Counter(obs.MTISECutRounds).Inc()
		met.Counter(obs.MTISEViolated).Add(int64(violPairs))
		met.Counter(obs.MTISECuts).Add(int64(violated))
		if violated == 0 {
			break
		}
		if round >= maxRounds {
			return nil, &NumericalError{MPrime: mPrime, Status: lp.IterLimit}
		}
	}
	if warm != nil {
		warm.Basis = basis
	}

	frac.Points = points
	frac.Objective = obj
	// BuildLP emits the constraint (1) rows first, one per point, so
	// their duals are the leading prefix of the dual vector. The sign
	// convention is <=-row duals <= 0; negate so congestion prices
	// read as nonnegative.
	if strategy == Direct && len(duals) >= len(points) {
		frac.MachinePrice = make([]float64, len(points))
		for i := range points {
			frac.MachinePrice[i] = -duals[i]
		}
	}
	frac.C = make([]float64, len(points))
	frac.X = make([][]float64, inst.N())
	for i := range points {
		frac.C[i] = xs[cVar[i]]
	}
	for j := range frac.X {
		frac.X[j] = make([]float64, len(points))
		for i := range points {
			if v := xVar[j][i]; v >= 0 {
				frac.X[j][i] = xs[v]
			}
		}
	}
	return frac, nil
}

// solveProblem dispatches to the selected engine and normalizes the
// result to float64. duals is nil for the rational engine; the final
// basis is returned (and the warm one consumed) by the revised engine
// only.
func solveProblem(prob *lp.Problem, engine Engine, warm *lp.Basis, met *obs.Registry, ctl *robust.Control) (lp.Status, []float64, float64, int, []float64, *lp.Basis, error) {
	check := ctl.CheckFunc("lp")
	switch engine {
	case Rational:
		sol, err := lp.SolveRationalChecked(prob, check)
		if err != nil {
			return 0, nil, 0, 0, nil, nil, err
		}
		if sol.Status != lp.Optimal {
			return sol.Status, nil, 0, sol.Iterations, nil, nil, nil
		}
		xs := make([]float64, len(sol.X))
		for i, r := range sol.X {
			xs[i], _ = r.Float64()
		}
		return sol.Status, xs, sol.ObjectiveFloat(), sol.Iterations, nil, nil, nil
	case Revised, RevisedDense:
		sol, err := lp.SolveRevisedWith(prob, lp.RevisedOptions{
			Warm: warm, Metrics: met, Check: check,
			DenseBasis: engine == RevisedDense,
		})
		if err != nil {
			return 0, nil, 0, 0, nil, nil, err
		}
		return sol.Status, sol.X, sol.Objective, sol.Iterations, sol.Dual, sol.Basis, nil
	default:
		sol, err := lp.SolveChecked(prob, check)
		if err != nil {
			return 0, nil, 0, 0, nil, nil, err
		}
		return sol.Status, sol.X, sol.Objective, sol.Iterations, sol.Dual, nil, nil
	}
}

// TotalCalibrations returns the fractional calibration mass sum(C_t).
func (f *Fractional) TotalCalibrations() float64 {
	var s float64
	for _, c := range f.C {
		s += c
	}
	return s
}
