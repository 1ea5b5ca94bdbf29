// Package replay replays an ISE schedule on a discrete-event model of
// the calibration lab: machines transition between uncalibrated,
// calibrated-idle, and busy; every transition is checked against the
// problem rules. It is an independent second implementation of
// feasibility (differential-tested against ise.Validate) and the
// source of the operational statistics (utilization, idle calibrated
// time) reported by the examples and tools.
package replay

import (
	"fmt"
	"sort"

	"calib/internal/ise"
)

// EventKind labels replay events.
type EventKind int

// Replay event kinds.
const (
	EvCalibrate EventKind = iota
	EvStart
	EvFinish
)

func (k EventKind) String() string {
	switch k {
	case EvCalibrate:
		return "calibrate"
	case EvStart:
		return "start"
	case EvFinish:
		return "finish"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one replay transition.
type Event struct {
	Time    ise.Time
	Machine int
	Kind    EventKind
	Job     int // -1 for calibrations
}

// MachineStats aggregates one machine's replay.
type MachineStats struct {
	Calibrations int
	// CalibratedTicks is the total usable time bought (Calibrations*T
	// minus nothing: calibrations never overlap on a machine).
	CalibratedTicks ise.Time
	// BusyTicks is the time spent executing jobs.
	BusyTicks ise.Time
	// Jobs is the number of jobs executed.
	Jobs int
}

// Report is the outcome of a replay.
type Report struct {
	// Feasible is true when the replay finished without any rule
	// violation; Violation holds the first violation otherwise.
	Feasible  bool
	Violation string
	// Events is the full transition log, time-ordered.
	Events []Event
	// PerMachine indexes stats by machine.
	PerMachine []MachineStats
	// CalibratedTicks and BusyTicks are the fleet totals; Utilization
	// is their ratio (0 when nothing was calibrated).
	CalibratedTicks ise.Time
	BusyTicks       ise.Time
	Utilization     float64
	// JobsCompleted counts jobs that finished by their deadline.
	JobsCompleted int
}

// Replay simulates s on inst and returns the report. Unlike
// ise.Validate it never short-circuits model checks into shared
// helpers: the replay walks each machine's timeline directly, so the
// two implementations fail independently.
func Replay(inst *ise.Instance, s *ise.Schedule) *Report {
	r := &Report{Feasible: true}
	fail := func(format string, args ...any) {
		if r.Feasible {
			r.Feasible = false
			r.Violation = fmt.Sprintf(format, args...)
		}
	}
	if s.Speed < 1 {
		fail("speed %d < 1", s.Speed)
		return r
	}
	machines := s.Machines
	if machines < 1 {
		fail("no machines")
		return r
	}
	r.PerMachine = make([]MachineStats, machines)

	// Build per-machine timelines. Schedule times are unchecked input,
	// so a calibration is kept by its start alone and every check below
	// compares in a form that cannot wrap around int64.
	type seg struct {
		start, end ise.Time
		job        int
	}
	cals := make([][]ise.Time, machines)
	runs := make([][]seg, machines)
	for _, c := range s.Calibrations {
		if c.Machine < 0 || c.Machine >= machines {
			fail("calibration on unknown machine %d", c.Machine)
			return r
		}
		cals[c.Machine] = append(cals[c.Machine], c.Start)
	}
	placed := make([]int, inst.N())
	for _, p := range s.Placements {
		if p.Job < 0 || p.Job >= inst.N() {
			fail("placement of unknown job %d", p.Job)
			return r
		}
		if p.Machine < 0 || p.Machine >= machines {
			fail("job %d on unknown machine %d", p.Job, p.Machine)
			return r
		}
		j := inst.Jobs[p.Job]
		if j.Processing%s.Speed != 0 {
			fail("job %d processing %d not divisible by speed %d", p.Job, j.Processing, s.Speed)
			return r
		}
		placed[p.Job]++
		runs[p.Machine] = append(runs[p.Machine], seg{p.Start, p.Start + j.Processing/s.Speed, p.Job})
	}
	for id, n := range placed {
		if n != 1 {
			fail("job %d placed %d times", id, n)
			return r
		}
	}

	for m := 0; m < machines; m++ {
		cs, rs := cals[m], runs[m]
		sort.Slice(cs, func(a, b int) bool { return cs[a] < cs[b] })
		sort.Slice(rs, func(a, b int) bool { return rs[a].start < rs[b].start })
		st := &r.PerMachine[m]
		st.Calibrations = len(cs)
		// Calibration spacing.
		for i := range cs {
			// Sorted starts: their gap is exact as a uint64.
			if i > 0 && uint64(cs[i]-cs[i-1]) < uint64(inst.T) {
				fail("machine %d: calibrations at %d and %d overlap", m, cs[i-1], cs[i])
			}
			st.CalibratedTicks += inst.T
			r.Events = append(r.Events, Event{cs[i], m, EvCalibrate, -1})
		}
		// Walk runs: sequential, each inside one calibration, each
		// inside its window.
		ci := 0
		var prevEnd ise.Time
		for i, run := range rs {
			j := inst.Jobs[run.job]
			if i > 0 && run.start < prevEnd {
				fail("machine %d: job %d starts at %d before previous run ends at %d", m, run.job, run.start, prevEnd)
			}
			prevEnd = run.end
			if run.start < j.Release {
				fail("job %d starts at %d before release %d", run.job, run.start, j.Release)
			}
			// run.end may have wrapped for a start past the window, so
			// the deadline check compares the start; once it passes,
			// run.end is exact and end-T cannot wrap either.
			if run.start > j.Deadline-(run.end-run.start) {
				fail("job %d ends at %d after deadline %d", run.job, run.end, j.Deadline)
			} else {
				r.JobsCompleted++
			}
			// Advance to the calibration that could contain this run.
			for ci < len(cs) && cs[ci] < run.end-inst.T {
				ci++
			}
			contained := false
			for k := ci; k < len(cs) && cs[k] <= run.start; k++ {
				if run.end-inst.T <= cs[k] {
					contained = true
					break
				}
			}
			// ci may have advanced past a containing calibration when
			// runs nest oddly; rescan defensively on failure.
			if !contained {
				for _, c := range cs {
					if c <= run.start && run.end-inst.T <= c {
						contained = true
						break
					}
				}
			}
			if !contained {
				fail("machine %d: job %d run [%d,%d) not inside any calibration", m, run.job, run.start, run.end)
			}
			st.BusyTicks += run.end - run.start
			st.Jobs++
			r.Events = append(r.Events, Event{run.start, m, EvStart, run.job})
			r.Events = append(r.Events, Event{run.end, m, EvFinish, run.job})
		}
		r.CalibratedTicks += st.CalibratedTicks
		r.BusyTicks += st.BusyTicks
	}
	sort.SliceStable(r.Events, func(a, b int) bool { return r.Events[a].Time < r.Events[b].Time })
	if r.CalibratedTicks > 0 {
		r.Utilization = float64(r.BusyTicks) / float64(r.CalibratedTicks)
	}
	if !r.Feasible {
		r.JobsCompleted = 0
	}
	return r
}
