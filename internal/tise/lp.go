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
	// Float64 uses lp.Solve, the two-phase float64 simplex over a
	// condensed tableau that stores only the nonbasic columns
	// (default).
	Float64 Engine = iota
	// Rational uses exact big.Rat simplex (slow; small instances and
	// cross-validation only).
	Rational
)

func (e Engine) String() string {
	switch e {
	case Float64:
		return "float64"
	case Rational:
		return "rational"
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
	// Iterations counts simplex pivots.
	Iterations int
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
// X_{j,points[i]} or -1 for TISE-infeasible pairs. The variables are
// unnamed (Problem.String prints x<index>): a formatted name per
// variable cost one allocation each on every served LP.
//
// Constraint (2), X_jt <= C_t, contributes one row per feasible
// (job, point) pair — by far the largest row family — and every one
// of them is built up front.
func BuildLP(inst *ise.Instance, mPrime int, points []ise.Time) (p *lp.Problem, cVar []int, xVar [][]int) {
	p = lp.NewProblem()
	cVar = make([]int, len(points))
	for i := range points {
		cVar[i] = p.AddVar("", 1)
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
				xVar[jIdx][i] = p.AddVar("", 0)
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
	for jIdx := range inst.Jobs {
		for i := range points {
			if v := xVar[jIdx][i]; v >= 0 {
				p.AddConstraint(lp.LE, 0, lp.Term{Var: v, Coeff: 1}, lp.Term{Var: cVar[i], Coeff: -1})
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

// Strategy names how the constraint (2) row family is handled. It
// admits one value, Direct (see DESIGN.md §5 for why).
type Strategy struct{}

// Direct builds every constraint (2) row up front.
var Direct Strategy

func (Strategy) String() string { return "direct" }

// SolveLP builds and solves the TISE LP relaxation for inst on mPrime
// machines. It returns an *InfeasibleError when the relaxation is
// infeasible. Telemetry goes to the process-default registry when one
// is installed (obs.SetDefault); Solve threads an explicit registry via
// Options.Metrics instead.
func SolveLP(inst *ise.Instance, mPrime int, engine Engine) (*Fractional, error) {
	return solveLP(inst, mPrime, engine, obs.Default(), nil)
}

func solveLP(inst *ise.Instance, mPrime int, engine Engine, met *obs.Registry, ctl *robust.Control) (*Fractional, error) {
	for _, j := range inst.Jobs {
		if !j.IsLong(inst.T) {
			return nil, fmt.Errorf("tise: %v is not a long-window job", j)
		}
	}
	points := CalibrationPoints(inst)
	if inst.N() == 0 {
		return &Fractional{MPrime: mPrime}, nil
	}
	prob, cVar, xVar := BuildLP(inst, mPrime, points)
	// Building a large relaxation takes a while: check once before the
	// solve (the engines' pivot hooks cover the inside).
	if err := ctl.ErrPhase("lp"); err != nil {
		return nil, err
	}
	sol, err := solveProblem(prob, engine, ctl)
	if err != nil {
		return nil, err
	}
	// Pivots are counted here, once per engine dispatch, so the series
	// covers both engines.
	met.Counter(obs.MTISEResolves).Inc()
	met.Counter(obs.MLPPivots).Add(int64(sol.Iterations))
	switch sol.Status {
	case lp.Optimal:
	case lp.Infeasible:
		return nil, &InfeasibleError{MPrime: mPrime}
	default:
		return nil, &NumericalError{MPrime: mPrime, Status: sol.Status}
	}

	frac := &Fractional{Points: points, Objective: sol.Objective, MPrime: mPrime, Iterations: sol.Iterations}
	frac.C = make([]float64, len(points))
	frac.X = make([][]float64, inst.N())
	for i := range points {
		frac.C[i] = sol.X[cVar[i]]
	}
	for j := range frac.X {
		frac.X[j] = make([]float64, len(points))
		for i := range points {
			if v := xVar[j][i]; v >= 0 {
				frac.X[j][i] = sol.X[v]
			}
		}
	}
	return frac, nil
}

// solveProblem dispatches to the selected engine, normalizing the
// rational engine's result to float64.
func solveProblem(prob *lp.Problem, engine Engine, ctl *robust.Control) (*lp.Solution, error) {
	check := ctl.CheckFunc("lp")
	if engine == Rational {
		rs, err := lp.SolveRationalChecked(prob, check)
		if err != nil {
			return nil, err
		}
		sol := &lp.Solution{Status: rs.Status, Iterations: rs.Iterations}
		if rs.Status == lp.Optimal {
			sol.X = make([]float64, len(rs.X))
			for i, r := range rs.X {
				sol.X[i], _ = r.Float64()
			}
			sol.Objective = rs.ObjectiveFloat()
		}
		return sol, nil
	}
	return lp.SolveChecked(prob, check)
}
