package ise

import "sort"

// Compact recolors a feasible schedule onto the minimum number of
// machines that its calibrations allow, without changing any
// calibration start time, job start time, or the assignment of jobs to
// calibrations. Calibrations are intervals of length T; two
// calibrations can share a machine iff their starts differ by at least
// T, so greedy interval coloring in start order is optimal. Jobs move
// with their containing calibration.
//
// The approximation algorithms in this module allocate their worst-
// case machine budget (e.g. 18m for the long-window pipeline) and
// often leave most of it idle; Compact recovers the difference. The
// returned schedule is feasible whenever the input is (same
// placements, same containment), and uses exactly the clique number of
// the calibration intervals as its machine count.
func Compact(inst *Instance, s *Schedule) (*Schedule, error) {
	bins, err := BinsOf(inst, s)
	if err != nil {
		return nil, err
	}
	sort.Slice(bins, func(a, b int) bool {
		if bins[a].Start != bins[b].Start {
			return bins[a].Start < bins[b].Start
		}
		return bins[a].Machine < bins[b].Machine
	})
	out := &Schedule{Speed: s.Speed}
	var free []Time // per new machine: earliest next calibration start
	for _, b := range bins {
		assigned := -1
		for k := range free {
			if free[k] <= b.Start {
				assigned = k
				break
			}
		}
		if assigned < 0 {
			free = append(free, 0)
			assigned = len(free) - 1
		}
		free[assigned] = b.Start + inst.T
		out.Calibrate(assigned, b.Start)
		for _, r := range b.Runs {
			out.Place(r.Job, assigned, r.Start)
		}
	}
	out.Machines = max(len(free), 1)
	return out, nil
}
