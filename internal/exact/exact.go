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
// order) at every possible position, with monotone infeasibility
// pruning and branch-and-bound on the calibration count: a node is cut
// when the calibrations it has opened, plus those its remaining work
// still needs beyond the free capacity of the groups that a remaining
// job can still join, reach the incumbent's (see openRoom).
//
// An insertion only delays starts, so a candidate is checked
// incrementally against the machine's placement at node entry: from
// the changed or new group onward, and only until a later group keeps
// its old start, after which the rest of the machine is unchanged and
// still feasible. The bound costs O(1) per node when the remaining
// work alone cannot reach the incumbent, and otherwise one pass over
// the placed jobs.
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
	// error. nil means no limits.
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
}

// machine is one machine's ordered calibration groups.
type machine struct {
	groups [][]int // job IDs in execution order per calibration
}

// noStart is the previous calibration start a machine's first group
// sees: far enough in the past that it never binds. noLimit is its
// mirror, a bound on a start or an end that never binds.
const (
	noStart = ise.Time(-1 << 62)
	noLimit = -noStart
)

// level is one search depth's scratch. Depth d inserts the (d+1)-th
// job, so at most d groups of at most d jobs exist and no slice needs
// more than d+1 slots.
type level struct {
	jobs   []int      // one group with the job inserted
	groups [][]int    // one machine's group list with a new group
	work   []ise.Time // each group's work on the machine being tried
	start  []ise.Time // each group's start there, at node entry
}

// rest summarizes the jobs still to insert at one depth, order[d:].
type rest struct {
	work   ise.Time // their total processing time, W_R
	minP   ise.Time // their smallest p_j
	minEnd ise.Time // their smallest r_j + p_j
}

type searcher struct {
	inst     *ise.Instance
	warm     *ise.Schedule // the warm-start incumbent, if any
	order    []int         // job IDs in insertion (deadline) order
	rest     []rest        // rest[d] sums up order[d:]
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
	s, res, err := newSearcher(inst, opts)
	if s == nil {
		return res, err
	}
	s.dfs(0, 0)
	return s.result()
}

// newSearcher sets up the search: the warm incumbent, the insertion
// order, its suffix sums and the per-depth scratch. When the instance
// needs no search (invalid, empty, or stopped before the search
// starts) it returns a nil searcher with Solve's answer.
func newSearcher(inst *ise.Instance, opts Options) (*searcher, *Result, error) {
	if err := inst.Validate(); err != nil {
		return nil, nil, err
	}
	if inst.N() == 0 {
		return nil, &Result{Schedule: ise.NewSchedule(inst.M), Proven: true}, nil
	}
	s := &searcher{
		inst:     inst,
		machines: make([]machine, inst.M),
		bestC:    inst.N() + 1, // sentinel: any solution beats it
		maxNodes: opts.MaxNodes,
	}
	if s.maxNodes == 0 {
		s.maxNodes = 3_000_000
	}
	s.check = opts.Control.CheckFunc("exact")
	if err := opts.Control.ErrPhase("exact"); err != nil {
		return nil, &Result{}, err
	}
	if opts.WarmStart {
		if ws, err := heur.Lazy(inst, heur.Options{MaxMachines: inst.M}); err == nil {
			if ise.Validate(inst, ws) == nil {
				s.warm = ws
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
	s.rest = make([]rest, n)
	next := rest{minP: noLimit, minEnd: noLimit}
	for d := n - 1; d >= 0; d-- {
		j := inst.Jobs[s.order[d]]
		next = rest{
			work:   next.work + j.Processing,
			minP:   min(next.minP, j.Processing),
			minEnd: min(next.minEnd, j.Release+j.Processing),
		}
		s.rest[d] = next
	}
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
	return s, nil, nil
}

// result turns the finished (or stopped) search into Solve's answer.
func (s *searcher) result() (*Result, error) {
	inst, warm := s.inst, s.warm
	if s.stopErr != nil {
		res := &Result{Proven: false, Nodes: s.nodes}
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
	// Bound: the remaining work W_R fits only into the free capacity
	// of the groups that some remaining job can still join (openRoom,
	// which also argues why the bound is valid and keeps the answers)
	// and into new calibrations of T each, so at least
	// ceil((W_R - openRoom) / T) more must open. The subtree can beat
	// the incumbent only if W_R - openRoom <= (bestC - 1 - cals) * T;
	// when W_R alone passes that test, no group needs a look. The node
	// was counted above, so the cap still counts every node entered.
	T := s.inst.T
	if excess := s.rest[depth].work - ise.Time(s.bestC-1-cals)*T; excess > 0 && s.openRoom(depth, excess) < excess {
		return
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

// openRoom is the free capacity, T - w_g summed, of the groups that a
// job of order[depth:] can still join, summed no further than enough.
//
// Walking a machine's groups from last to first, L_g, the smaller of
// L_{g+1} - T and d_k minus the group's work up to and including k
// over its jobs k in order, bounds group g's start from above: its
// jobs run left-packed from the start and meet their deadlines, and
// the next calibration starts at least T later. Group g is open when
// the remaining jobs' smallest p_j fits its free capacity and their
// smallest r_j + p_j is at most L_g + T (two suffix minima that may
// come from different jobs, so this can only count too many groups).
//
// The bound is valid because a closed group's capacity is never
// used. An insertion never moves a start earlier (see feasibleAfter),
// and groupStart's release bound keeps every job of a group inside
// [t_g, t_g + T). Inserting a job anywhere only raises w_g and lowers
// L_g. So a job that later joins g ends no earlier than r_j + p_j and
// no later than t_g + T <= L_g + T, and needs p_j <= T - w_g: a group
// that no remaining job passes both tests for stays as it is. Counting
// every group as open gives the plain work-volume bound,
// ceil((W - cals*T) / T).
//
// The bound keeps the answers: dfs visits the candidates in the same
// order, a pruned subtree holds no leaf below the incumbent at the
// prune, and the incumbent only falls, so the search meets the same
// incumbents in the same order and returns the same schedule. It
// expands no more nodes, so a search that finished within the node cap
// still does, and one that hit the cap may now finish.
func (s *searcher) openRoom(depth int, enough ise.Time) ise.Time {
	T, r := s.inst.T, s.rest[depth]
	var room ise.Time
	for mi := range s.machines {
		gs := s.machines[mi].groups
		limit := noLimit
		for gi := len(gs) - 1; gi >= 0; gi-- {
			limit -= T
			var w ise.Time
			for _, id := range gs[gi] {
				j := s.inst.Jobs[id]
				w += j.Processing
				limit = min(limit, j.Deadline-w)
			}
			if w+r.minP <= T && r.minEnd <= limit+T {
				if room += T - w; room >= enough {
					return room
				}
			}
		}
	}
	return room
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
