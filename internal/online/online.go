// Package online implements an online variant of calibration
// scheduling, an extension beyond the paper (whose algorithms are
// offline): jobs are revealed at their release times, and all
// decisions — when to calibrate, where to place a job — are
// irrevocable and may only use already-revealed information.
// Calibrations can only be started at or after the current time (no
// retroactive calibration).
//
// The implemented policy, Lazy, is the online analogue of the lazy
// heuristic: every revealed job is deferred to its last safe decision
// moment (the latest start among free slots of existing calibrations,
// or d_j - p_j when a new calibration would be needed — opening it
// exactly then is still feasible and maximally lazy). Deferring
// maximizes the information available when the expensive decision is
// made. Experiment T14 measures the price of not knowing the future
// against the offline heuristic and the lower bound.
package online

import (
	"container/heap"
	"fmt"
	"slices"
	"sort"

	"calib/internal/ise"
)

// state is the online scheduler's committed world.
type state struct {
	inst     *ise.Instance
	machines [][]*ise.Bin // per machine
	sched    *ise.Schedule
}

// Lazy runs the online lazy policy over the instance's release
// sequence and returns the resulting feasible schedule. Machines grow
// as needed (the online setting cannot bound them in advance).
func Lazy(inst *ise.Instance) (*ise.Schedule, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	st := &state{inst: inst, sched: ise.NewSchedule(1)}

	// Event queue: job releases, then per-job decision triggers.
	releases := make([]int, inst.N())
	for i := range releases {
		releases[i] = i
	}
	sort.Slice(releases, func(a, b int) bool {
		ja, jb := inst.Jobs[releases[a]], inst.Jobs[releases[b]]
		if ja.Release != jb.Release {
			return ja.Release < jb.Release
		}
		return ja.ID < jb.ID
	})
	next := 0
	pending := &triggerHeap{}
	for next < len(releases) || pending.Len() > 0 {
		// Advance to the next event: a release or a trigger.
		var now ise.Time
		switch {
		case pending.Len() == 0:
			now = inst.Jobs[releases[next]].Release
		case next == len(releases):
			now = (*pending)[0].at
		default:
			now = inst.Jobs[releases[next]].Release
			if t := (*pending)[0].at; t < now {
				now = t
			}
		}
		// Reveal newly released jobs and compute their triggers.
		for next < len(releases) && inst.Jobs[releases[next]].Release <= now {
			id := releases[next]
			next++
			j := inst.Jobs[id]
			heap.Push(pending, trigger{job: id, at: j.Deadline - j.Processing})
		}
		// Fire all triggers due now (they are final: the decision
		// deadline d_j - p_j never moves).
		for pending.Len() > 0 && (*pending)[0].at <= now {
			tg := heap.Pop(pending).(trigger)
			if err := st.place(tg.job, now); err != nil {
				return nil, err
			}
		}
	}
	st.sched.Machines = max(len(st.machines), 1)
	return st.sched, nil
}

// place commits job id at time now: into an existing calibration's
// free space if possible (latest feasible start, but not before now),
// otherwise into a freshly opened calibration starting now.
func (st *state) place(id int, now ise.Time) error {
	j := st.inst.Jobs[id]
	// Try existing calibrations.
	var best *ise.Bin
	var bestStart ise.Time
	for _, mc := range st.machines {
		for _, c := range mc {
			if s, ok := c.Fit(st.inst.T, j, now); ok && (best == nil || s > bestStart) {
				best, bestStart = c, s
			}
		}
	}
	if best != nil {
		best.Add(ise.Run{Job: id, Start: bestStart, End: bestStart + j.Processing})
		st.sched.Place(id, best.Machine, bestStart)
		return nil
	}
	// Open a new calibration at now on the first machine whose
	// calibrations are at least T away, or on a new machine.
	machine := slices.IndexFunc(st.machines, func(mc []*ise.Bin) bool { return ise.CanOpen(mc, now, st.inst.T) })
	if machine < 0 {
		st.machines = append(st.machines, nil)
		machine = len(st.machines) - 1
	}
	c := &ise.Bin{Machine: machine, Start: now}
	st.machines[machine] = append(st.machines[machine], c)
	st.sched.Calibrate(machine, now)
	jobStart := max(now, j.Release)
	if jobStart+j.Processing > j.Deadline || jobStart+j.Processing > now+st.inst.T {
		return fmt.Errorf("online: job %d unschedulable at its decision deadline (t=%d)", id, now)
	}
	c.Add(ise.Run{Job: id, Start: jobStart, End: jobStart + j.Processing})
	st.sched.Place(id, machine, jobStart)
	return nil
}

// trigger is a pending decision deadline.
type trigger struct {
	job int
	at  ise.Time
}

type triggerHeap []trigger

func (h triggerHeap) Len() int { return len(h) }
func (h triggerHeap) Less(a, b int) bool {
	if h[a].at != h[b].at {
		return h[a].at < h[b].at
	}
	return h[a].job < h[b].job
}
func (h triggerHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *triggerHeap) Push(x any)   { *h = append(*h, x.(trigger)) }
func (h *triggerHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}
