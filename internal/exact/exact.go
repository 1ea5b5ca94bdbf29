// Package exact implements an exact branch-and-bound solver for the
// ISE problem: it finds a schedule with the true minimum number of
// calibrations on inst.M machines, or proves infeasibility. It is the
// OPT oracle for the approximation-ratio experiments, a correctness
// reference for the baselines, and the served ladder's first rung:
// core.SolveRobust tries it on every time component of at most 12
// jobs, capped at 500 000 nodes, before the LP pipeline. Expect
// exponential time; Options.MaxNodes is what bounds a call.
//
// Search space: a solution's combinatorial structure is, per machine,
// an ordered list of calibration groups, each an ordered list of jobs.
// Given the structure, the minimal-time placement (jobs left-packed,
// each calibration started as early as its contents and the previous
// calibration allow) is feasible iff any placement is, so feasibility
// of a structure is decided greedily in linear time. The solver
// enumerates structures by inserting jobs one at a time (in deadline
// order) at every possible position, with branch-and-bound on the
// calibration count and monotone infeasibility pruning.
//
// An insertion only delays starts, so a candidate is checked
// incrementally against the machine's placement at node entry: from
// the changed or new group onward, and only until a later group keeps
// its old start, after which the rest of the machine is unchanged and
// still feasible. The work bound is O(1) per node.
package exact

import (
	"errors"
	"fmt"
	"sort"

	"calib/internal/heur"
	"calib/internal/ise"
	"calib/internal/robust"
)

// ErrInfeasible is returned when no feasible schedule exists on inst.M
// machines (proven, if the node cap was not hit).
var ErrInfeasible = errors.New("exact: instance infeasible on the given machines")

// Options configures the solver.
type Options struct {
	// MaxNodes caps the search tree size; 0 means 3e6. If the cap is
	// hit, the best schedule found so far is returned with
	// Proven=false (or ErrInfeasible with Proven=false if none was
	// found).
	MaxNodes int
	// WarmStart seeds the incumbent bound with the lazy heuristic's
	// solution (when it fits inst.M machines), typically shrinking the
	// search tree substantially. The result is still exactly optimal:
	// the incumbent only prunes branches that cannot improve on it.
	WarmStart bool
	// Control carries the solve's cancellation context and work budget
	// into the search (one node = one work unit, charged in batches of
	// checkNodes). When it trips, Solve unwinds and returns the best
	// schedule found so far (Proven=false) alongside the taxonomy
	// error; Result.Stopped carries the same error. nil means no
	// limits.
	Control *robust.Control
}

// checkNodes is the search's check cadence: nodes between Control
// polls. Each of a node's candidates costs at most a feasibility sweep
// over one machine's groups, so 512 nodes still bound cancel latency
// well under the conformance suite's 100ms even with the race detector
// on.
const checkNodes = 512

// Result is the outcome of Solve.
type Result struct {
	// Schedule is an optimal (or, if !Proven, best-found) schedule.
	Schedule *ise.Schedule
	// Calibrations is the schedule's calibration count.
	Calibrations int
	// Proven reports whether the search ran to completion, making
	// Calibrations provably optimal.
	Proven bool
	// Nodes is the number of search nodes expanded.
	Nodes int
	// Stopped is non-nil when the solve's Control tripped (cancellation,
	// deadline, or budget); Schedule then holds the best incumbent found
	// before the stop, if any.
	Stopped error
}

// machine is one machine's ordered calibration groups.
type machine struct {
	groups [][]int // job IDs in execution order per calibration
}

// noStart is the previous calibration start a machine's first group
// sees: far enough in the past that it never binds.
const noStart = ise.Time(-1 << 62)

// level is one search depth's scratch. Depth d inserts the (d+1)-th
// job, so at most d groups of at most d jobs exist and no slice needs
// more than d+1 slots.
type level struct {
	jobs   []int      // one group with the job inserted
	groups [][]int    // one machine's group list with a new group
	work   []ise.Time // each group's work on the machine being tried
	start  []ise.Time // each group's start there, at node entry
}

type searcher struct {
	inst     *ise.Instance
	work     ise.Time // the instance's total work
	order    []int    // job IDs in insertion (deadline) order
	machines []machine
	bestC    int
	best     []machine // deep copy of best structure
	nodes    int
	maxNodes int
	capHit   bool
	// check/stopErr implement cancellation: dfs polls check every
	// checkNodes nodes and unwinds through the capHit machinery when it
	// fails, leaving the cause in stopErr.
	check   func(work int) error
	stopErr error
	levels  []level // levels[d] is depth d's scratch
}

// Solve finds a minimum-calibration schedule on inst.M machines.
func Solve(inst *ise.Instance, opts Options) (*Result, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if inst.N() == 0 {
		return &Result{Schedule: ise.NewSchedule(inst.M), Proven: true}, nil
	}
	s := &searcher{
		inst:     inst,
		work:     inst.TotalWork(),
		machines: make([]machine, inst.M),
		bestC:    inst.N() + 1, // sentinel: any solution beats it
		maxNodes: opts.MaxNodes,
	}
	if s.maxNodes == 0 {
		s.maxNodes = 3_000_000
	}
	s.check = opts.Control.CheckFunc("exact")
	if err := opts.Control.ErrPhase("exact"); err != nil {
		return &Result{Stopped: err}, err
	}
	var warm *ise.Schedule
	if opts.WarmStart {
		if ws, err := heur.Lazy(inst, heur.Options{MaxMachines: inst.M}); err == nil {
			if ise.Validate(inst, ws) == nil {
				warm = ws
				s.bestC = ws.NumCalibrations()
			}
		}
	}
	s.order = make([]int, inst.N())
	for i := range s.order {
		s.order[i] = i
	}
	sort.Slice(s.order, func(a, b int) bool {
		ja, jb := inst.Jobs[s.order[a]], inst.Jobs[s.order[b]]
		if ja.Deadline != jb.Deadline {
			return ja.Deadline < jb.Deadline
		}
		return ja.ID < jb.ID
	})
	n := inst.N()
	jobs, groups := make([]int, n*(n+1)/2), make([][]int, n*(n+1)/2)
	times := make([]ise.Time, n*(n+1))
	s.levels = make([]level, n)
	for d, off := 0, 0; d < n; d, off = d+1, off+d+1 {
		s.levels[d] = level{
			jobs:   jobs[off : off+d+1 : off+d+1],
			groups: groups[off : off+d+1 : off+d+1],
			work:   times[2*off : 2*off+d+1 : 2*off+d+1],
			start:  times[2*off+d+1 : 2*(off+d+1) : 2*(off+d+1)],
		}
	}
	s.dfs(0, 0)
	if s.stopErr != nil {
		res := &Result{Proven: false, Nodes: s.nodes, Stopped: s.stopErr}
		if s.best != nil {
			if sched, err := buildSchedule(inst, s.best); err == nil {
				res.Schedule, res.Calibrations = sched, s.bestC
			}
		} else if warm != nil {
			res.Schedule, res.Calibrations = warm, warm.NumCalibrations()
		}
		return res, s.stopErr
	}
	if s.best == nil {
		if warm != nil {
			// The search could not beat the warm incumbent, so the
			// incumbent is optimal (when the search completed).
			return &Result{Schedule: warm, Calibrations: warm.NumCalibrations(), Proven: !s.capHit, Nodes: s.nodes}, nil
		}
		if s.capHit {
			return &Result{Proven: false, Nodes: s.nodes}, fmt.Errorf("exact: node cap hit without a solution: %w", ErrInfeasible)
		}
		return &Result{Proven: true, Nodes: s.nodes}, ErrInfeasible
	}
	sched, err := buildSchedule(inst, s.best)
	if err != nil {
		return nil, err // cannot happen: best structures are feasible
	}
	return &Result{Schedule: sched, Calibrations: s.bestC, Proven: !s.capHit, Nodes: s.nodes}, nil
}

// dfs inserts the job at position depth of the insertion order into
// every feasible position.
func (s *searcher) dfs(depth, cals int) {
	if cals >= s.bestC {
		return
	}
	if depth == len(s.order) {
		s.bestC = cals
		s.best = deepCopy(s.machines)
		return
	}
	s.nodes++
	if s.nodes > s.maxNodes {
		s.capHit = true
		return
	}
	if s.check != nil && s.nodes%checkNodes == 0 {
		if err := s.check(checkNodes); err != nil {
			s.stopErr = err
			s.capHit = true // reuse the cap's unwinding path
			return
		}
	}
	// Bound: remaining work needs at least this many extra
	// calibrations beyond the free capacity of existing groups. Every
	// group is one calibration, so that capacity is cals*T minus the
	// placed work, and the remaining work beyond it is W - cals*T.
	T := s.inst.T
	if extra := s.work - ise.Time(cals)*T; extra > 0 {
		need := int((extra + T - 1) / T)
		if cals+need >= s.bestC {
			return
		}
	}

	id := s.order[depth]
	p := s.inst.Jobs[id].Processing
	lv := &s.levels[depth]
	usedEmpty := false
	for mi := range s.machines {
		m := &s.machines[mi]
		if len(m.groups) == 0 {
			// Symmetry break: identical machines — only the first
			// empty machine may receive its first group.
			if usedEmpty {
				continue
			}
			usedEmpty = true
		}
		work, start := lv.work[:len(m.groups)], lv.start[:len(m.groups)]
		s.place(m.groups, work, start)
		// Insert into an existing group at every position: place the
		// job at slot 0 of this depth's buffer, then swap it one slot
		// right per position. Deeper levels only read the buffer.
		for gi := range m.groups {
			w := work[gi] + p
			if w > T {
				continue // too much work at every position
			}
			prev := noStart
			if gi > 0 {
				prev = start[gi-1]
			}
			g := m.groups[gi]
			ng := lv.jobs[:len(g)+1]
			ng[0] = id
			copy(ng[1:], g)
			m.groups[gi] = ng
			for pos := 0; pos <= len(g) && !s.capHit; pos++ {
				if pos > 0 {
					ng[pos-1], ng[pos] = ng[pos], ng[pos-1]
				}
				if s.feasibleAfter(m.groups, gi, w, prev, start[gi+1:]) {
					s.dfs(depth+1, cals)
				}
			}
			m.groups[gi] = g
			if s.capHit {
				return
			}
		}
		// New group at every position in the machine's group order,
		// moved through this depth's group-list buffer the same way.
		if cals+1 < s.bestC {
			gs := m.groups
			ng := lv.groups[:len(gs)+1]
			ng[0] = s.order[depth : depth+1 : depth+1]
			copy(ng[1:], gs)
			m.groups = ng
			for pos := 0; pos <= len(gs) && !s.capHit; pos++ {
				prev := noStart
				if pos > 0 {
					ng[pos-1], ng[pos] = ng[pos], ng[pos-1]
					prev = start[pos-1]
				}
				if s.feasibleAfter(ng, pos, p, prev, start[pos:]) {
					s.dfs(depth+1, cals+1)
				}
			}
			m.groups = gs
			if s.capHit {
				return
			}
		}
	}
}

// place fills work and start with each group's work and start under
// the machine's minimal-time placement.
func (s *searcher) place(groups [][]int, work, start []ise.Time) {
	prev := noStart
	for gi, g := range groups {
		w := groupWork(s.inst, g)
		prev = groupStart(s.inst, g, w, prev)
		work[gi], start[gi] = w, prev
	}
}

// feasibleAfter reports whether a machine that was feasible stays so
// after one insertion: groups is its new group list, in which group
// gi, of work w <= T, is new or has gained a job. The groups before gi
// are unchanged, prev is the start of the one right before it, and
// later holds the old starts of the groups after it. An unchanged
// group's release bound is at most its old start, and an insertion
// never moves a start earlier, so a later group moves, to exactly the
// previous start plus T, only while that passes its old start. Once
// one keeps its start, it and every group after it keep their old,
// feasible placement.
func (s *searcher) feasibleAfter(groups [][]int, gi int, w, prev ise.Time, later []ise.Time) bool {
	t := groupStart(s.inst, groups[gi], w, prev)
	if !meetsDeadlines(s.inst, groups[gi], t) {
		return false
	}
	for k, old := range later {
		if t += s.inst.T; t <= old {
			return true
		}
		if !meetsDeadlines(s.inst, groups[gi+1+k], t) {
			return false
		}
	}
	return true
}

// groupWork is the group's total processing time.
func groupWork(inst *ise.Instance, g []int) ise.Time {
	var w ise.Time
	for _, id := range g {
		w += inst.Jobs[id].Processing
	}
	return w
}

// groupStart is the minimal calibration start of the ordered group g,
// of work w <= T, after a calibration at prevStart:
//
//	t_g = max(prevStart + T, max_i (r_i + suffixWork_i) - T)
//
// The second term is the group's release bound: the latest release
// with the work from that job on still to fit before t_g + T.
func groupStart(inst *ise.Instance, g []int, w, prevStart ise.Time) ise.Time {
	t := prevStart + inst.T
	suffix := w
	for _, id := range g {
		j := inst.Jobs[id]
		if v := j.Release + suffix - inst.T; v > t {
			t = v
		}
		suffix -= j.Processing
	}
	// The i=0 suffix constraint keeps t finite (>= r_0 + w - T) even
	// on a machine's first group, where prevStart is noStart.
	return t
}

// meetsDeadlines left-packs the group's jobs from calibration start t
// and reports whether every one meets its deadline.
func meetsDeadlines(inst *ise.Instance, g []int, t ise.Time) bool {
	for _, id := range g {
		j := inst.Jobs[id]
		t = max(t, j.Release) + j.Processing
		if t > j.Deadline {
			return false
		}
	}
	return true
}

func deepCopy(ms []machine) []machine {
	out := make([]machine, len(ms))
	for i, m := range ms {
		out[i].groups = make([][]int, len(m.groups))
		for gi, g := range m.groups {
			out[i].groups[gi] = append([]int(nil), g...)
		}
	}
	return out
}

// buildSchedule materializes the minimal-time placement of a feasible
// structure.
func buildSchedule(inst *ise.Instance, ms []machine) (*ise.Schedule, error) {
	s := ise.NewSchedule(len(ms))
	for mi, m := range ms {
		prev := noStart
		for _, g := range m.groups {
			w := groupWork(inst, g)
			if w > inst.T {
				return nil, fmt.Errorf("exact: internal error: infeasible best structure")
			}
			t := groupStart(inst, g, w, prev)
			s.Calibrate(mi, t)
			cur := t
			for _, id := range g {
				j := inst.Jobs[id]
				if cur < j.Release {
					cur = j.Release
				}
				s.Place(id, mi, cur)
				cur += j.Processing
			}
			prev = t
		}
	}
	return s, nil
}
