package tise

import (
	"fmt"

	"calib/internal/ise"
)

// TransformToTISE implements the constructive proof of Lemma 2
// (Figure 1): given a feasible ISE schedule for a long-window instance
// on m machines with C calibrations, it produces a feasible TISE
// schedule on 3m machines with exactly 3C calibrations.
//
// Machine i of the source maps to the triple (i', i+, i-) =
// (3i, 3i+1, 3i+2): i' keeps the original calibrations, i+ carries
// them delayed by +T, and i- advanced by -T. A job already satisfying
// the TISE restriction stays on i'; a job with r_j > t_j (calibration
// started before the job's release) is delayed by T onto i+; a job
// with d_j < t_j + T (calibration ends after the deadline) is advanced
// by T onto i-.
//
// The input schedule must be feasible at unit speed; an error is
// returned if a job's containing calibration cannot be identified or
// if the instance has a short-window job (Lemma 2 requires
// d_j - r_j >= 2T).
func TransformToTISE(inst *ise.Instance, src *ise.Schedule) (*ise.Schedule, error) {
	if src.Speed != 1 {
		return nil, fmt.Errorf("tise: TransformToTISE requires a unit-speed schedule, got speed %d", src.Speed)
	}
	for _, j := range inst.Jobs {
		if !j.IsLong(inst.T) {
			return nil, fmt.Errorf("tise: %v is not a long-window job", j)
		}
	}
	out := ise.NewSchedule(3 * src.Machines)
	for _, c := range src.Calibrations {
		out.Calibrate(3*c.Machine, c.Start)
		out.Calibrate(3*c.Machine+1, c.Start+inst.T)
		out.Calibrate(3*c.Machine+2, c.Start-inst.T)
	}
	calsByM := src.CalibrationsByMachine()
	for _, p := range src.Placements {
		j := inst.Jobs[p.Job]
		tj, ok := ise.ContainingCalibration(calsByM[p.Machine], p.Start, p.Start+j.Processing, inst.T)
		if !ok {
			return nil, fmt.Errorf("tise: %v at %d on machine %d has no containing calibration", j, p.Start, p.Machine)
		}
		switch {
		case j.Release <= tj && tj <= j.Deadline-inst.T:
			out.Place(p.Job, 3*p.Machine, p.Start)
		case j.Release > tj:
			// Delay: the calibration [t_j+T, t_j+2T) on i+ is inside
			// the window because d_j >= r_j + 2T > t_j + 2T.
			out.Place(p.Job, 3*p.Machine+1, p.Start+inst.T)
		default: // d_j < t_j + T
			// Advance: symmetric argument on i-.
			out.Place(p.Job, 3*p.Machine+2, p.Start-inst.T)
		}
	}
	return out, nil
}
