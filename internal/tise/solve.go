package tise

import (
	"fmt"

	"calib/internal/ise"
	"calib/internal/obs"
	"calib/internal/robust"
)

// Options configures the long-window solver.
type Options struct {
	// Engine selects the LP backend (default Float64).
	Engine Engine
	// Strategy names the constraint (2) row handling; Direct, its only
	// value, is the zero value.
	Strategy Strategy
	// Span, when non-nil, parents the lp/rounding/edf stage spans.
	Span *obs.Span
	// Metrics receives the solver counter series (see internal/obs);
	// nil falls back to the process default (obs.SetDefault), and with
	// neither installed telemetry is disabled at zero cost.
	Metrics *obs.Registry
	// Control carries the solve's cancellation context and work budget
	// into the LP build and pivot loops. nil means no limits.
	Control *robust.Control
}

// Result is the output of Solve: the feasible TISE schedule plus the
// intermediate artifacts, which the experiments and figures report.
type Result struct {
	// Schedule is the final feasible TISE (hence ISE) schedule,
	// produced by Algorithm 2 on the rounded calibrations.
	Schedule *ise.Schedule
	// LP is the fractional relaxation solution; LP.Objective lower-
	// bounds the optimal TISE calibration count on m' = 3m machines.
	LP *Fractional
	// RoundedTimes are the calibration times emitted by Algorithm 1
	// (before mirroring), at most 2*LP.Objective of them.
	RoundedTimes []ise.Time
}

// Solve runs the complete long-window TISE algorithm of Section 3 on a
// long-window ISE instance: LP relaxation on m' = 3m machines, greedy
// rounding onto 3m' machines, and EDF assignment on the doubled
// schedule — 18m machines and at most 12·C* calibrations in total
// (Theorem 12).
//
// Solve returns an *InfeasibleError if the LP relaxation is infeasible
// on m' machines (in particular, the instance then has no feasible
// ISE schedule on m machines, by Lemma 2).
func Solve(inst *ise.Instance, opts Options) (*Result, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	mPrime := 3 * inst.M // Lemma 2
	met := opts.Metrics
	if met == nil {
		met = obs.Default()
	}
	sp := opts.Span.Start("lp")
	sp.SetStr("engine", opts.Engine.String())
	sp.SetStr("strategy", opts.Strategy.String())
	sp.SetInt("mprime", int64(mPrime))
	frac, err := solveLP(inst, mPrime, opts.Engine, met, opts.Control)
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.SetInt("points", int64(len(frac.Points)))
	sp.SetFloat("objective", frac.Objective)
	sp.SetInt("pivots", int64(frac.Iterations))
	sp.End()
	sp = opts.Span.Start("rounding")
	times := RoundCalibrations(frac.Points, frac.C)
	cal, err := AssignRoundRobin(times, 3*mPrime, inst.T)
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.SetInt("calibrations", int64(len(times)))
	sp.End()
	sp = opts.Span.Start("edf")
	sched, err := AssignJobsEDF(inst, cal)
	if err != nil {
		sp.End()
		return nil, fmt.Errorf("tise: %w", err)
	}
	sp.SetInt("jobs", int64(inst.N()))
	sp.End()
	return &Result{Schedule: sched, LP: frac, RoundedTimes: times}, nil
}

// SpeedResult is the output of SolveWithSpeed. Because the
// machines→speed transformation needs T and all processing times
// divisible by 2c, the instance is scaled by 2c internally; the
// returned schedule is for Scaled (an equivalent instance with every
// time quantity multiplied by 2c).
type SpeedResult struct {
	// Scaled is inst.Scale(2c); Schedule is feasible for it.
	Scaled *ise.Instance
	// Schedule uses at most inst.M machines at speed 2c, with at most
	// as many calibrations as the intermediate TISE schedule
	// (Theorem 14: <= 12·C* calibrations at speed 36 when c=18).
	Schedule *ise.Schedule
	// Long is the intermediate long-window result on the scaled
	// instance (18m machines, unit speed).
	Long *Result
	// C is the machine group size used (18 unless overridden).
	C int
}

// SolveWithSpeed runs Solve and then the Lemma 13 transformation,
// yielding Theorem 14's 1-machine-augmentation solution: at most
// inst.M machines at speed 2c (c = 18, i.e. 36-speed), with at most
// 12·C* calibrations.
func SolveWithSpeed(inst *ise.Instance, opts Options) (*SpeedResult, error) {
	const c = 18 // Theorem 14: the TISE schedule lives on 18m machines
	scaled := inst.Scale(ise.Time(2 * c))
	res, err := Solve(scaled, opts)
	if err != nil {
		return nil, err
	}
	// res.Schedule is on 18m machines; group size c=18 maps them onto
	// inst.M machines at speed 36.
	fast, err := SpeedTransform(scaled, res.Schedule, c)
	if err != nil {
		return nil, err
	}
	return &SpeedResult{Scaled: scaled, Schedule: fast, Long: res, C: c}, nil
}
