package mm

import (
	"calib/internal/obs"
	"calib/internal/robust"
)

// WithMetrics returns s configured to record into met. Only the
// LP-based box carries telemetry; other solvers pass through
// unchanged, as does a box that already has a registry of its own.
func WithMetrics(s Solver, met *obs.Registry) Solver {
	if met == nil {
		return s
	}
	if b, ok := s.(LPRound); ok {
		if b.Metrics == nil {
			b.Metrics = met
		}
		return b
	}
	return s
}

// WithControl returns s configured to honor the cancellation/budget
// control. Boxes with long-running search or LP loops (Exact, LPRound)
// get the control; the combinatorial Greedy box runs in
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
	}
	return s
}

// Stats is the per-solve statistics of the LP-based MM box. LPRound
// produces it from SolveStats and feeds the same numbers to the
// obs.Registry configured on the box, so the statistics and the
// metrics endpoint can never disagree.
type Stats struct {
	// LPObjective is the fractional machine lower bound (LPRound's
	// relaxation optimum); 0 when the LP was skipped or failed.
	LPObjective float64
	// LPSolves counts relaxation solves.
	LPSolves int
	// Trials counts randomized-rounding samples drawn.
	Trials int
	// Skipped reports that the instance exceeded LPRound's variable cap
	// (20 000) and the box fell back to Greedy without building an LP.
	Skipped bool
}
