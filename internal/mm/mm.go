// Package mm implements the machine-minimization (MM) problem used as
// a black box by the short-window ISE algorithm (Section 4 of Fineman
// & Sheridan, SPAA 2015): given jobs with release times, deadlines and
// processing times, schedule all of them nonpreemptively by their
// deadlines on as few identical machines as possible.
//
// Theorem 1 of the paper is generic over any MM approximation
// algorithm; this package mirrors that with the Solver interface and
// three implementations, the boxes calib.MMBox selects:
//
//   - Greedy: earliest-deadline list scheduling with increasing machine
//     count — fast heuristic, the default black box;
//   - Exact: complete branch-and-bound over active schedules — the
//     alpha = 1 box for small instances;
//   - LPRound: time-indexed LP relaxation plus randomized rounding, in
//     the spirit of Raghavan–Thompson as cited by the paper.
package mm

import (
	"fmt"
	"sort"

	"calib/internal/ise"
)

// Schedule is a machine-minimization schedule: placements on Machines
// machines, no calibrations.
type Schedule struct {
	Machines   int
	Placements []ise.Placement
}

// Solver is the MM black box of Theorem 1.
type Solver interface {
	// Name identifies the solver in experiment tables.
	Name() string
	// Solve returns a feasible nonpreemptive schedule for the jobs of
	// inst (inst.M and calibrations are ignored) using as few machines
	// as the algorithm manages. An error is returned only when the
	// solver cannot produce any feasible schedule (Greedy never fails;
	// Exact fails only on invalid instances).
	Solve(inst *ise.Instance) (*Schedule, error)
}

// Validate checks MM feasibility: every job placed exactly once,
// within its window, and no same-machine overlap.
func Validate(inst *ise.Instance, s *Schedule) error {
	if s.Machines < 1 && len(inst.Jobs) > 0 {
		return fmt.Errorf("mm: schedule has %d machines", s.Machines)
	}
	seen := make([]int, len(inst.Jobs))
	type run struct{ start, end ise.Time }
	byM := map[int][]run{}
	for _, p := range s.Placements {
		if p.Job < 0 || p.Job >= len(inst.Jobs) {
			return fmt.Errorf("mm: unknown job %d", p.Job)
		}
		seen[p.Job]++
		j := inst.Jobs[p.Job]
		end := p.Start + j.Processing
		if p.Start < j.Release || end > j.Deadline {
			return fmt.Errorf("mm: %v runs [%d,%d) outside window", j, p.Start, end)
		}
		if p.Machine < 0 || p.Machine >= s.Machines {
			return fmt.Errorf("mm: %v on machine %d outside [0,%d)", j, p.Machine, s.Machines)
		}
		byM[p.Machine] = append(byM[p.Machine], run{p.Start, end})
	}
	for id, n := range seen {
		if n != 1 {
			return fmt.Errorf("mm: %v placed %d times", inst.Jobs[id], n)
		}
	}
	for m, runs := range byM {
		sort.Slice(runs, func(a, b int) bool { return runs[a].start < runs[b].start })
		for i := 1; i < len(runs); i++ {
			if runs[i].start < runs[i-1].end {
				return fmt.Errorf("mm: overlap on machine %d at %d", m, runs[i].start)
			}
		}
	}
	return nil
}

// LowerBound returns a combinatorial lower bound on the number of
// machines: the maximum, over all event-point intervals [a, b), of
// ceil(work strictly nested in [a, b) / (b - a)).
func LowerBound(inst *ise.Instance) int {
	if inst.N() == 0 {
		return 0
	}
	events := eventPoints(inst)
	lb := 1
	for ai, a := range events {
		for _, b := range events[ai+1:] {
			var work ise.Time
			for _, j := range inst.Jobs {
				if j.Release >= a && j.Deadline <= b {
					work += j.Processing
				}
			}
			if work == 0 {
				continue
			}
			need := int((work + (b - a) - 1) / (b - a))
			if need > lb {
				lb = need
			}
		}
	}
	return lb
}

// eventPoints returns the sorted deduplicated releases and deadlines.
func eventPoints(inst *ise.Instance) []ise.Time {
	set := map[ise.Time]struct{}{}
	for _, j := range inst.Jobs {
		set[j.Release] = struct{}{}
		set[j.Deadline] = struct{}{}
	}
	out := make([]ise.Time, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
