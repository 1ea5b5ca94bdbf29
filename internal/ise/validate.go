package ise

import (
	"fmt"
	"sort"
)

// ValidationError describes a single feasibility violation found by
// Validate. Err classifies the violation; the message carries the
// offending job/machine/time detail.
type ValidationError struct {
	Kind    ViolationKind
	Message string
}

func (e *ValidationError) Error() string { return "ise: " + e.Message }

// ViolationKind classifies schedule feasibility violations.
type ViolationKind int

// The feasibility properties an ISE schedule must satisfy (numbered as
// in the proof of Lemma 15), plus bookkeeping violations.
const (
	// ViolationWindow: a job starts before its release or completes
	// after its deadline (property 1).
	ViolationWindow ViolationKind = iota
	// ViolationJobOverlap: two jobs on the same machine overlap in
	// time (property 2).
	ViolationJobOverlap
	// ViolationUncalibrated: a job's execution is not fully contained
	// in a calibration on its machine (property 3).
	ViolationUncalibrated
	// ViolationCalibrationOverlap: two calibrations on one machine are
	// less than T apart (property 4).
	ViolationCalibrationOverlap
	// ViolationMissing: a job has no placement, or is placed more than
	// once.
	ViolationMissing
	// ViolationMachineRange: a machine index is outside [0, Machines).
	ViolationMachineRange
	// ViolationSpeed: the schedule's speed does not divide a placed
	// job's processing time, or Speed < 1.
	ViolationSpeed
	// ViolationTISE: TISE mode only — a job sits in a calibration not
	// fully contained in its window.
	ViolationTISE
)

func (k ViolationKind) String() string {
	switch k {
	case ViolationWindow:
		return "window"
	case ViolationJobOverlap:
		return "job-overlap"
	case ViolationUncalibrated:
		return "uncalibrated"
	case ViolationCalibrationOverlap:
		return "calibration-overlap"
	case ViolationMissing:
		return "missing-placement"
	case ViolationMachineRange:
		return "machine-range"
	case ViolationSpeed:
		return "speed"
	case ViolationTISE:
		return "tise-constraint"
	default:
		return fmt.Sprintf("ViolationKind(%d)", int(k))
	}
}

// Validate checks full ISE feasibility of s for inst and returns nil
// if the schedule is feasible, or the first violation found.
// It verifies, in order: machine indices, speed divisibility, exactly
// one placement per job, job windows, containment of each execution in
// a calibration on its machine, pairwise non-overlap of jobs per
// machine, and pairwise non-overlap of calibrations per machine.
func Validate(inst *Instance, s *Schedule) error {
	return validate(inst, s, false)
}

// ValidateTISE checks ISE feasibility plus the TISE restriction: every
// job must be placed inside a calibration [t, t+T) with
// r_j <= t <= d_j - T (Section 3 of the paper).
func ValidateTISE(inst *Instance, s *Schedule) error {
	return validate(inst, s, true)
}

func validate(inst *Instance, s *Schedule, tise bool) error {
	if err := inst.Validate(); err != nil {
		return err
	}
	if s.Speed < 1 {
		return violationf(ViolationSpeed, "schedule speed %d, want >= 1", s.Speed)
	}
	if s.Machines < 1 {
		return violationf(ViolationMachineRange, "schedule has %d machines, want >= 1", s.Machines)
	}
	for _, c := range s.Calibrations {
		if c.Machine < 0 || c.Machine >= s.Machines {
			return violationf(ViolationMachineRange, "calibration at %d on machine %d outside [0,%d)", c.Start, c.Machine, s.Machines)
		}
	}
	// Exactly one placement per job.
	seen := make([]int, len(inst.Jobs))
	for _, p := range s.Placements {
		if p.Job < 0 || p.Job >= len(inst.Jobs) {
			return violationf(ViolationMissing, "placement references unknown job %d", p.Job)
		}
		seen[p.Job]++
	}
	for id, n := range seen {
		if n == 0 {
			return violationf(ViolationMissing, "%v has no placement", inst.Jobs[id])
		}
		if n > 1 {
			return violationf(ViolationMissing, "%v placed %d times", inst.Jobs[id], n)
		}
	}
	calsByM := s.CalibrationsByMachine()
	// Schedule times come from the caller unchecked, so every
	// comparison below is written in a form that cannot wrap: the gap
	// of two sorted starts is exact as a uint64, and an end is formed
	// only once its start is known to lie in the (bounded) window.
	//
	// Calibration non-overlap per machine (property 4).
	for m, ts := range calsByM {
		for i := 1; i < len(ts); i++ {
			if uint64(ts[i]-ts[i-1]) < uint64(inst.T) {
				return violationf(ViolationCalibrationOverlap,
					"machine %d calibrated at %d and %d, gap < T=%d", m, ts[i-1], ts[i], inst.T)
			}
		}
	}
	runsByM := map[int][]Run{}
	for _, p := range s.Placements {
		if p.Machine < 0 || p.Machine >= s.Machines {
			return violationf(ViolationMachineRange, "%v on machine %d outside [0,%d)", inst.Jobs[p.Job], p.Machine, s.Machines)
		}
		j := inst.Jobs[p.Job]
		if j.Processing%s.Speed != 0 {
			return violationf(ViolationSpeed, "%v processing not divisible by speed %d", j, s.Speed)
		}
		dur := j.Processing / s.Speed
		// Property 1: within window.
		if p.Start < j.Release || p.Start > j.Deadline-dur {
			return violationf(ViolationWindow, "%v starts at %d, outside window for duration %d", j, p.Start, dur)
		}
		end := p.Start + dur
		// Property 3: inside a calibration on the same machine.
		cal, ok := ContainingCalibration(calsByM[p.Machine], p.Start, end, inst.T)
		if !ok {
			return violationf(ViolationUncalibrated, "%v runs [%d,%d) on machine %d with no containing calibration", j, p.Start, end, p.Machine)
		}
		if tise {
			if cal < j.Release || cal > j.Deadline-inst.T {
				return violationf(ViolationTISE, "%v in calibration [%d,%d) not contained in its window", j, cal, cal+inst.T)
			}
		}
		runsByM[p.Machine] = append(runsByM[p.Machine], Run{Job: p.Job, Start: p.Start, End: end})
	}
	// Property 2: non-overlap of jobs per machine.
	for m, runs := range runsByM {
		sort.Slice(runs, func(a, b int) bool {
			if runs[a].Start != runs[b].Start {
				return runs[a].Start < runs[b].Start
			}
			return runs[a].End < runs[b].End
		})
		for i := 1; i < len(runs); i++ {
			if runs[i].Start < runs[i-1].End {
				return violationf(ViolationJobOverlap, "machine %d: %v and %v overlap",
					m, inst.Jobs[runs[i-1].Job], inst.Jobs[runs[i].Job])
			}
		}
	}
	return nil
}

// ContainingCalibration returns the start of a calibration in the
// sorted list ts that fully contains [start, end) given calibration
// length T, and whether one exists. When calibrations on the machine
// are non-overlapping, the containing calibration (if any) is the
// latest one starting at or before start. start and end lie in a
// validated job window; the calibration starts may be anything, so
// they are never added to. It is the one containment lookup of the
// validator, BinsOf and tise.TransformToTISE.
func ContainingCalibration(ts []Time, start, end, T Time) (Time, bool) {
	i := sort.Search(len(ts), func(i int) bool { return ts[i] > start })
	// Calibrations may be un-validated (overlapping) at this point, so
	// scan all calibrations starting at or before start.
	for k := i - 1; k >= 0; k-- {
		if ts[k] <= start && end-T <= ts[k] {
			return ts[k], true
		}
		if ts[k] < start-T {
			// Earlier calibrations end even earlier only if sorted by
			// start AND equal lengths — lengths are all T, so stop.
			break
		}
	}
	return 0, false
}

func violationf(kind ViolationKind, format string, args ...any) error {
	return &ValidationError{Kind: kind, Message: fmt.Sprintf(format, args...)}
}

// KindOf returns the ViolationKind of err if it is a *ValidationError,
// and ok=false otherwise.
func KindOf(err error) (ViolationKind, bool) {
	ve, ok := err.(*ValidationError)
	if !ok {
		return 0, false
	}
	return ve.Kind, true
}
