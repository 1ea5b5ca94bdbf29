package mm

import (
	"fmt"
	"sort"

	"calib/internal/ise"
	"calib/internal/robust"
)

// Exact is a complete branch-and-bound MM solver: it returns a
// schedule on the true minimum number of machines. Exponential in the
// worst case; intended for small instances (n up to ~12), where it
// serves as the alpha = 1 black box and as the OPT oracle for the
// experiments.
type Exact struct {
	// Control carries the solve's cancellation context and work budget
	// into the search (one node = one work unit). A tripped control
	// aborts the solve with its taxonomy error — unlike the node cap,
	// which degrades to more machines. nil means no limits.
	Control *robust.Control
}

// checkNodes is the dfs check cadence (nodes between Control polls).
const checkNodes = 512

// maxNodes caps each feasibility check's search. When the cap is hit
// the check conservatively reports infeasible and Exact falls back to
// more machines, so the result is always feasible but may stop being
// exactly optimal on adversarial inputs.
const maxNodes = 5_000_000

// Name implements Solver.
func (Exact) Name() string { return "exact-bb" }

// Solve implements Solver.
func (e Exact) Solve(inst *ise.Instance) (*Schedule, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	n := inst.N()
	if n == 0 {
		return &Schedule{Machines: 1}, nil
	}
	check := e.Control.CheckFunc("mm")
	for m := LowerBound(inst); m <= n; m++ {
		s, ok, err := searchFeasible(inst, m, maxNodes, check)
		if err != nil {
			return nil, err
		}
		if ok {
			return s, nil
		}
	}
	return nil, fmt.Errorf("mm: exact search failed with %d machines (unreachable on valid instances)", n)
}

// Feasible reports whether the jobs can be scheduled on m machines,
// using the same complete search as Solve.
func (e Exact) Feasible(inst *ise.Instance, m int) bool {
	_, ok, err := searchFeasible(inst, m, maxNodes, e.Control.CheckFunc("mm"))
	return ok && err == nil
}

// searchFeasible performs depth-first search over active schedules:
// at each step the machine with minimum availability receives one of
// the remaining jobs at start max(avail, release). By a standard
// exchange/dominance argument (identical machines, regular measure),
// this class contains a feasible schedule whenever one exists.
func searchFeasible(inst *ise.Instance, m, nodeCap int, check func(int) error) (*Schedule, bool, error) {
	n := inst.N()
	// Remaining jobs sorted by deadline for branch ordering.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ja, jb := inst.Jobs[order[a]], inst.Jobs[order[b]]
		if ja.Deadline != jb.Deadline {
			return ja.Deadline < jb.Deadline
		}
		return ja.ID < jb.ID
	})
	avail := make([]ise.Time, m)
	assignMachine := make([]int, n)
	assignStart := make([]ise.Time, n)
	used := make([]bool, n)
	nodes := 0
	var stopErr error
	var dfs func(done int) bool
	dfs = func(done int) bool {
		if done == n {
			return true
		}
		nodes++
		if nodes > nodeCap || stopErr != nil {
			return false
		}
		if check != nil && nodes%checkNodes == 0 {
			if err := check(checkNodes); err != nil {
				stopErr = err
				return false
			}
		}
		// Machine with minimum availability; ties by index.
		mi := 0
		for k := 1; k < m; k++ {
			if avail[k] < avail[mi] {
				mi = k
			}
		}
		a := avail[mi]
		// Prune: if any remaining job can no longer meet its deadline
		// even starting now on the freest machine, fail.
		for _, id := range order {
			if used[id] {
				continue
			}
			j := inst.Jobs[id]
			s := a
			if s < j.Release {
				s = j.Release
			}
			if s+j.Processing > j.Deadline {
				return false
			}
		}
		// Branch over the next job on machine mi, deadline order,
		// skipping duplicates (identical remaining jobs).
		type key struct{ r, d, p ise.Time }
		tried := map[key]struct{}{}
		for _, id := range order {
			if used[id] {
				continue
			}
			j := inst.Jobs[id]
			k := key{j.Release, j.Deadline, j.Processing}
			if _, dup := tried[k]; dup {
				continue
			}
			tried[k] = struct{}{}
			s := a
			if s < j.Release {
				s = j.Release
			}
			used[id] = true
			assignMachine[id], assignStart[id] = mi, s
			avail[mi] = s + j.Processing
			if dfs(done + 1) {
				return true
			}
			avail[mi] = a
			used[id] = false
		}
		return false
	}
	if !dfs(0) {
		return nil, false, stopErr
	}
	s := &Schedule{Machines: m}
	for id := 0; id < n; id++ {
		s.Placements = append(s.Placements, ise.Placement{Job: id, Machine: assignMachine[id], Start: assignStart[id]})
	}
	return s, true, nil
}
