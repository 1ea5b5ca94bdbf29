package exact

import (
	"testing"

	"calib/internal/ise"
)

// feasibleMachine is the search's original feasibility check, kept
// here as the oracle for feasibleAfter: it places the machine's whole
// structure under minimal-time placement, calibration g starting at
//
//	t_g = max(t_{g-1} + T, max_i (r_i + suffixWork_i) - T)
//
// with jobs left-packed; feasible iff every group's work fits in T and
// every job meets its deadline.
func (s *searcher) feasibleMachine(m *machine) bool {
	prev := noStart
	for _, g := range m.groups {
		w := groupWork(s.inst, g)
		if w > s.inst.T {
			return false
		}
		t := groupStart(s.inst, g, w, prev)
		// Left-pack and check deadlines.
		cur := t
		for _, id := range g {
			j := s.inst.Jobs[id]
			if cur < j.Release {
				cur = j.Release
			}
			cur += j.Processing
			if cur > j.Deadline {
				return false
			}
		}
		prev = t
	}
	return true
}

// FuzzFeasibleAfterMatchesFullCheck checks the search's incremental
// candidate check against the full re-check it replaced. The bytes
// give a small instance (at most 8 jobs, T from 2 to 10) and grow one
// machine by inserting its jobs in turn, each at one of the candidates
// the oracle accepts. Before each insertion, every candidate, the job
// in each existing group at each position and in a new group at each
// position, is judged both ways, with the arguments dfs derives: the
// new check (a group whose work would exceed T is skipped, as dfs
// skips it) must equal the oracle.
func FuzzFeasibleAfterMatchesFullCheck(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 5, 3, 0, 9, 2, 4, 3, 5, 6, 1, 2, 0, 1, 0, 3, 2, 7, 2, 1, 1, 0, 5, 0, 2, 1, 3})
	f.Add([]byte{2, 7, 1, 0, 0, 1, 0, 0, 1, 2, 1, 1, 3, 0, 2, 0, 0, 1, 4, 2, 3, 0, 1, 2, 0, 3})
	f.Add([]byte{0, 3, 0, 0, 4, 1, 1, 3, 0, 0, 2, 1, 5, 1, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		T := ise.Time(2 + next()%9)
		inst := ise.NewInstance(T, 1)
		for n := 1 + next()%8; n > 0; n-- {
			p := ise.Time(1 + next()%int(T))
			r := ise.Time(next() % 24)
			inst.AddJob(r, r+p+ise.Time(next()%16), p)
		}
		s := &searcher{inst: inst}
		var groups [][]int
		for id, j := range inst.Jobs {
			work := make([]ise.Time, len(groups))
			start := make([]ise.Time, len(groups))
			s.place(groups, work, start)
			var accepted [][][]int
			judge := func(cand [][]int, got bool, what string) {
				want := s.feasibleMachine(&machine{groups: cand})
				if got != want {
					t.Fatalf("job %d %s: structure %v: incremental check %v, full check %v (instance %+v)",
						id, what, cand, got, want, inst.Jobs)
				}
				if want {
					accepted = append(accepted, cand)
				}
			}
			for gi, g := range groups {
				w := work[gi] + j.Processing
				prev := noStart
				if gi > 0 {
					prev = start[gi-1]
				}
				for pos := 0; pos <= len(g); pos++ {
					ng := append(append(append([]int(nil), g[:pos]...), id), g[pos:]...)
					cand := append([][]int(nil), groups...)
					cand[gi] = ng
					got := w <= T && s.feasibleAfter(cand, gi, w, prev, start[gi+1:])
					judge(cand, got, "in existing group")
				}
			}
			for pos := 0; pos <= len(groups); pos++ {
				prev := noStart
				if pos > 0 {
					prev = start[pos-1]
				}
				cand := append(append(append([][]int(nil), groups[:pos]...), []int{id}), groups[pos:]...)
				judge(cand, s.feasibleAfter(cand, pos, j.Processing, prev, start[pos:]), "in new group")
			}
			if len(accepted) > 0 {
				groups = accepted[next()%len(accepted)]
			}
		}
	})
}
