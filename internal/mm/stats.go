package mm

import (
	"calib/internal/obs"
	"calib/internal/robust"
)

// WithMetrics returns s configured to record into met. Only the
// LP-based boxes carry telemetry; other solvers pass through
// unchanged, as does any box that already has a registry of its own.
func WithMetrics(s Solver, met *obs.Registry) Solver {
	if met == nil {
		return s
	}
	switch b := s.(type) {
	case LPRound:
		if b.Metrics == nil {
			b.Metrics = met
		}
		return b
	case LPSearch:
		if b.Metrics == nil {
			b.Metrics = met
		}
		return b
	}
	return s
}

// WithControl returns s configured to honor the cancellation/budget
// control. Boxes with long-running search or LP loops (Exact, LPRound,
// LPSearch) get the control; the combinatorial Greedy box runs in
// near-linear time and passes through unchanged. A box that
// already carries a control keeps it. nil is a no-op.
func WithControl(s Solver, ctl *robust.Control) Solver {
	if ctl == nil {
		return s
	}
	switch b := s.(type) {
	case Exact:
		if b.Control == nil {
			b.Control = ctl
		}
		return b
	case LPRound:
		if b.Control == nil {
			b.Control = ctl
		}
		return b
	case LPSearch:
		if b.Control == nil {
			b.Control = ctl
		}
		return b
	}
	return s
}

// Stats unifies the per-solve statistics of the LP-based MM boxes.
// LPRound and LPSearch used to return one bespoke scalar each from
// their SolveWithStats methods; both now produce a Stats (the old
// methods remain as thin wrappers) and feed the same numbers to the
// obs.Registry configured on the box, so experiment tables and the
// metrics endpoint can never disagree.
type Stats struct {
	// LPObjective is the fractional machine lower bound (LPRound's
	// relaxation optimum); 0 when the LP was skipped or failed.
	LPObjective float64
	// MinFeasible is the smallest LP-feasible machine count found by
	// LPSearch's binary search; 0 when the LP was skipped.
	MinFeasible int
	// LPSolves counts relaxation solves (LPRound).
	LPSolves int
	// Probes counts feasibility-LP probes (LPSearch), and Infeasible
	// how many of them came back infeasible.
	Probes, Infeasible int
	// Trials counts randomized-rounding samples drawn.
	Trials int
	// Skipped reports that the instance exceeded MaxVars and the box
	// fell back to Greedy without building an LP.
	Skipped bool
}
