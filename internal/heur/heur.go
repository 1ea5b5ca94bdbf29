// Package heur implements a practical greedy heuristic for the
// general ISE problem, beyond the paper's analysis: Lazy generalizes
// the lazy-binning idea of Bender et al. (2013) from unit jobs to
// arbitrary processing times. It carries no approximation guarantee —
// the experiments measure its quality against the exact oracle and
// the paper's algorithm — but it is fast, uses few machines, and is
// the solver a practitioner would reach for first.
package heur

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"calib/internal/ise"
)

// ErrInfeasible reports that the heuristic could not place a job
// within the machine budget. The instance itself may still be
// feasible; Lazy is a heuristic, not a decision procedure.
var ErrInfeasible = errors.New("heur: could not place every job within the machine budget")

// Order selects the job processing order of the greedy loop.
type Order int

// Job orders.
const (
	// DeadlineOrder (EDF) is the default and usually the best.
	DeadlineOrder Order = iota
	// ReleaseOrder processes jobs by release time.
	ReleaseOrder
	// SlackOrder processes the tightest jobs (d - r - p) first.
	SlackOrder
)

func (o Order) String() string {
	switch o {
	case DeadlineOrder:
		return "deadline"
	case ReleaseOrder:
		return "release"
	case SlackOrder:
		return "slack"
	default:
		return fmt.Sprintf("Order(%d)", int(o))
	}
}

// Opening selects where new calibrations are opened.
type Opening int

// Calibration opening policies.
const (
	// LazyOpening (default) opens at d_j - T: as late as useful, so
	// the calibration's tail serves later jobs.
	LazyOpening Opening = iota
	// EagerOpening opens at the job's release — the "calibrate when
	// work shows up" instinct; the ablation (T13) quantifies how much
	// it wastes.
	EagerOpening
)

func (o Opening) String() string {
	switch o {
	case LazyOpening:
		return "lazy"
	case EagerOpening:
		return "eager"
	default:
		return fmt.Sprintf("Opening(%d)", int(o))
	}
}

// Options configures Lazy.
type Options struct {
	// MaxMachines caps the machine count; 0 means grow as needed.
	MaxMachines int
	// Order is the job processing order (default DeadlineOrder).
	Order Order
	// Opening is the calibration opening policy (default LazyOpening).
	Opening Opening
}

// Lazy schedules inst greedily: jobs in the configured order (default
// earliest deadline); each job is first fitted into the free space of
// an existing calibration; failing that, a new calibration is opened
// per the Opening policy (default: start d_j - T, pulled earlier only
// to avoid same-machine conflicts), so that the calibration covers the
// maximal usable span before the deadline and its head remains
// available to other jobs.
func Lazy(inst *ise.Instance, opts Options) (*ise.Schedule, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	order := make([]int, inst.N())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ja, jb := inst.Jobs[order[a]], inst.Jobs[order[b]]
		var ka, kb ise.Time
		switch opts.Order {
		case ReleaseOrder:
			ka, kb = ja.Release, jb.Release
		case SlackOrder:
			ka, kb = ja.Slack(), jb.Slack()
		default:
			ka, kb = ja.Deadline, jb.Deadline
		}
		if ka != kb {
			return ka < kb
		}
		if ja.Deadline != jb.Deadline {
			return ja.Deadline < jb.Deadline
		}
		return ja.ID < jb.ID
	})
	var machines [][]*ise.Bin // per machine, in start order, the order the answer lists them in
	place := make([]ise.Placement, inst.N())

	for _, id := range order {
		j := inst.Jobs[id]
		// 1) Try the free space of existing calibrations; prefer the
		// placement that starts latest (stay lazy, keep early space
		// for nothing — later space serves later jobs anyway, so any
		// fit avoids a new calibration; we pick the tightest fit by
		// latest feasible start).
		var best *ise.Bin
		var bestStart ise.Time
		for _, m := range machines {
			for _, b := range m {
				if s, ok := b.Fit(inst.T, j, b.Start); ok && (best == nil || s > bestStart) {
					best, bestStart = b, s
				}
			}
		}
		if best != nil {
			best.Add(ise.Run{Job: id, Start: bestStart, End: bestStart + j.Processing})
			place[id] = ise.Placement{Job: id, Machine: best.Machine, Start: bestStart}
			continue
		}
		// 2) Open a new calibration. The laziest useful start is
		// d_j - T: the calibration then covers the maximal usable
		// prefix before the deadline, and the job sits at its latest
		// position inside, leaving the head of the calibration free
		// for other jobs. Any start in [r_j + p_j - T, d_j - p_j] can
		// host the job, so starts past d_j - T are kept as a fallback
		// when machine spacing blocks the preferred range.
		lo := j.Release + j.Processing - inst.T
		preferred := j.Deadline - inst.T
		if opts.Opening == EagerOpening {
			preferred = j.Release
		}
		fallbackHi := j.Deadline - j.Processing
		calM, calS := -1, ise.Time(0)
		for _, hi := range []ise.Time{preferred, fallbackHi} {
			for mi, m := range machines {
				if s, ok := latestCalStart(inst.T, m, lo, hi); ok && (calM < 0 || s > calS) {
					calM, calS = mi, s
				}
			}
			if calM >= 0 {
				break
			}
		}
		if calM < 0 {
			if opts.MaxMachines > 0 && len(machines) >= opts.MaxMachines {
				return nil, fmt.Errorf("heur: %v: %w", j, ErrInfeasible)
			}
			machines = append(machines, nil)
			calM, calS = len(machines)-1, preferred
		}
		c := &ise.Bin{Machine: calM, Start: calS}
		m := machines[calM]
		at := sort.Search(len(m), func(i int) bool { return m[i].Start > calS })
		machines[calM] = slices.Insert(m, at, c)
		// Latest feasible position within the calibration and window
		// (earliest under eager opening).
		jobStart := max(calS, j.Release)
		if opts.Opening != EagerOpening {
			jobStart = max(min(calS+inst.T, j.Deadline)-j.Processing, j.Release)
		}
		c.Add(ise.Run{Job: id, Start: jobStart, End: jobStart + j.Processing})
		place[id] = ise.Placement{Job: id, Machine: calM, Start: jobStart}
	}

	out := ise.NewSchedule(max(len(machines), 1))
	for mi, m := range machines {
		for _, c := range m {
			out.Calibrate(mi, c.Start)
		}
	}
	if len(place) > 0 { // an empty instance keeps nil placements
		out.Placements = place
	}
	return out, nil
}

// latestCalStart returns the latest start in [lo, hi] at which a new
// calibration can be opened on m without coming within T of an
// existing calibration.
func latestCalStart(T ise.Time, m []*ise.Bin, lo, hi ise.Time) (ise.Time, bool) {
	// Candidate positions: hi itself, or T before or after an existing
	// calibration; the latest one that may open wins.
	if ise.CanOpen(m, hi, T) {
		return hi, true
	}
	best, ok := ise.Time(0), false
	for _, c := range m {
		for _, s := range []ise.Time{c.Start - T, c.Start + T} {
			if s >= lo && s <= hi && ise.CanOpen(m, s, T) && (!ok || s > best) {
				best, ok = s, true
			}
		}
	}
	return best, ok
}
