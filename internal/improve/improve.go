// Package improve post-processes feasible ISE schedules with local
// search: it repeatedly tries to empty a calibration by relocating its
// jobs into the free space of the remaining calibrations, dropping the
// calibration when it succeeds. The result is never worse than the
// input, stays feasible by construction (and is re-validated), and in
// practice strips much of the worst-case padding the approximation
// pipeline carries.
package improve

import (
	"fmt"
	"sort"

	"calib/internal/ise"
)

// Result is the outcome of Run.
type Result struct {
	// Schedule is the improved feasible schedule.
	Schedule *ise.Schedule
	// Removed counts eliminated calibrations; Passes counts fixpoint
	// iterations.
	Removed, Passes int
}

// Run improves a feasible unit-speed schedule for inst. It returns an
// error if the input is infeasible (improvement only works from a
// feasible point) or not unit speed.
func Run(inst *ise.Instance, s *ise.Schedule) (*Result, error) {
	if s.Speed != 1 {
		return nil, fmt.Errorf("improve: requires unit speed, got %d", s.Speed)
	}
	if err := ise.Validate(inst, s); err != nil {
		return nil, fmt.Errorf("improve: input schedule infeasible: %w", err)
	}
	cals, err := ise.BinsOf(inst, s)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for {
		res.Passes++
		if !pass(inst, &cals, res) {
			break
		}
	}
	out := ise.NewSchedule(s.Machines)
	out.Speed = 1
	for _, c := range cals {
		out.Calibrate(c.Machine, c.Start)
		for _, r := range c.Runs {
			out.Place(r.Job, c.Machine, r.Start)
		}
	}
	if err := ise.Validate(inst, out); err != nil {
		return nil, fmt.Errorf("improve: internal error, produced infeasible schedule: %w", err)
	}
	res.Schedule = out
	return res, nil
}

// pass attempts to eliminate one calibration (least-loaded first);
// reports whether it removed one.
func pass(inst *ise.Instance, cals *[]*ise.Bin, res *Result) bool {
	order := make([]int, len(*cals))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return (*cals)[order[a]].Load() < (*cals)[order[b]].Load()
	})
	for _, vi := range order {
		victim := (*cals)[vi]
		if tryEvacuate(inst, *cals, victim) {
			next := make([]*ise.Bin, 0, len(*cals)-1)
			for _, c := range *cals {
				if c != victim {
					next = append(next, c)
				}
			}
			*cals = next
			res.Removed++
			return true
		}
	}
	return false
}

// tryEvacuate relocates every run of victim into other calibrations;
// on success the moves are committed and victim is left empty. All-or-
// nothing: failed attempts roll back.
func tryEvacuate(inst *ise.Instance, cals []*ise.Bin, victim *ise.Bin) bool {
	type move struct {
		target *ise.Bin
		r      ise.Run
	}
	var moves []move
	// Relocate the longest jobs first (hardest to place).
	pending := append([]ise.Run(nil), victim.Runs...)
	sort.Slice(pending, func(a, b int) bool {
		return (pending[a].End - pending[a].Start) > (pending[b].End - pending[b].Start)
	})
	rollback := func() {
		for _, mv := range moves {
			mv.target.Remove(mv.r)
		}
	}
	for _, r := range pending {
		j := inst.Jobs[r.Job]
		placed := false
		for _, c := range cals {
			if c == victim {
				continue
			}
			if start, ok := c.Fit(inst.T, j, c.Start); ok {
				nr := ise.Run{Job: r.Job, Start: start, End: start + j.Processing}
				c.Add(nr)
				moves = append(moves, move{target: c, r: nr})
				placed = true
				break
			}
		}
		if !placed {
			rollback()
			return false
		}
	}
	victim.Runs = nil
	return true
}
