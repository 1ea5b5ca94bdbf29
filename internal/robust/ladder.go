package robust

import (
	"context"
	"errors"
	"fmt"

	"calib/internal/obs"
)

// Rung is one step of a degradation ladder: a named solver
// configuration plus the fraction of the remaining deadline it may
// spend before the next rung takes over.
type Rung struct {
	// Name labels the rung in reports and metrics ("exact", "lp",
	// "heur").
	Name string
	// Slice caps the rung's share of the control's remaining deadline
	// (0 < Slice < 1); outside that range the rung inherits the full
	// remaining deadline. Budget spending is shared across rungs
	// either way.
	Slice float64
	// Run executes the rung under the (possibly sliced) control and
	// returns its answer. Failures fall through to the next rung;
	// panics are contained and fall through as ErrPanic.
	Run func(c *Control) (any, error)
}

// Attempt records why one rung did not answer.
type Attempt struct {
	// Rung is the failing rung's name.
	Rung string
	// Reason is the metric-label token of the failure (see Reason).
	Reason string
	// Err is the rung's error.
	Err error
}

// String renders the attempt as the "rung:reason" token used by the
// robust_fallback_total label and the request decision log.
func (a Attempt) String() string { return a.Rung + ":" + a.Reason }

// LadderResult is the outcome of RunLadder.
type LadderResult struct {
	// Value is the answering rung's result.
	Value any
	// Rung is the answering rung's name.
	Rung string
	// Attempts lists the rungs that failed before Value was produced,
	// in ladder order.
	Attempts []Attempt
}

// RunLadder runs the rungs in order under c until one answers. A rung
// that times out, exhausts the budget, proves its own infeasibility,
// fails numerically, or panics falls through to the next — each fall
// recorded in robust_fallback_total{rung="<rung>:<reason>"} — and the
// answering rung is recorded in robust_rung_answers_total. component
// stamps provenance (-1 when the solve is not decomposed).
//
// A hard caller cancellation (context canceled, as opposed to a
// deadline expiring or the budget running out) aborts the whole
// ladder: degradation exists to serve an answer by the deadline, not
// to outlive the caller.
func RunLadder(c *Control, met *obs.Registry, component int, rungs []Rung) (*LadderResult, error) {
	if len(rungs) == 0 {
		return nil, fmt.Errorf("robust: ladder has no rungs")
	}
	res := &LadderResult{}
	for i, rung := range rungs {
		if err := c.Err(); err != nil && errors.Is(err, context.Canceled) {
			return nil, Componentize(err, component)
		}
		value, err := runRung(c, rung, component, met)
		if err == nil {
			res.Value = value
			res.Rung = rung.Name
			met.CounterWith(obs.MRobustRungAnswers, "rung", rung.Name).Inc()
			return res, nil
		}
		if errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			// The caller walked away; no rung may answer.
			return nil, Componentize(err, component)
		}
		reason := Reason(err)
		res.Attempts = append(res.Attempts, Attempt{Rung: rung.Name, Reason: reason, Err: err})
		met.CounterWith(obs.MRobustFallback, "rung", rung.Name+":"+reason).Inc()
		if i == len(rungs)-1 {
			return nil, Componentize(err, component)
		}
	}
	// Unreachable: the loop returns from its last iteration.
	return nil, fmt.Errorf("robust: ladder fell off the last rung")
}

// runRung executes one rung under its deadline slice with panic
// containment.
func runRung(c *Control, rung Rung, component int, met *obs.Registry) (value any, err error) {
	child, cancel := c.Child(rung.Slice)
	defer cancel()
	defer RecoverTo(&err, rung.Name, component, met)
	return rung.Run(child)
}
