package exact

import (
	"errors"
	"reflect"
	"testing"

	"calib/internal/ise"
)

// dfsUnpruned is the search before the open-capacity bound, kept here
// as the oracle for dfs: the same candidates in the same order, pruned
// only by the incumbent and the plain work-volume bound,
// ceil((W - cals*T) / T) more calibrations.
func (s *searcher) dfsUnpruned(depth, cals int) {
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
			s.capHit = true
			return
		}
	}
	T := s.inst.T
	if extra := s.rest[0].work - ise.Time(cals)*T; extra > 0 {
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
			if usedEmpty {
				continue
			}
			usedEmpty = true
		}
		work, start := lv.work[:len(m.groups)], lv.start[:len(m.groups)]
		s.place(m.groups, work, start)
		for gi := range m.groups {
			w := work[gi] + p
			if w > T {
				continue
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
					s.dfsUnpruned(depth+1, cals)
				}
			}
			m.groups[gi] = g
			if s.capHit {
				return
			}
		}
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
					s.dfsUnpruned(depth+1, cals+1)
				}
			}
			m.groups = gs
			if s.capHit {
				return
			}
		}
	}
}

// solveUnpruned is Solve with the oracle search.
func solveUnpruned(inst *ise.Instance, opts Options) (*Result, error) {
	s, res, err := newSearcher(inst, opts)
	if s == nil {
		return res, err
	}
	s.dfsUnpruned(0, 0)
	return s.result()
}

// FuzzPruneKeepsAnswer checks the open-capacity bound against the
// search without it. The bytes give a small instance (at most 8 jobs,
// m from 1 to 2, T from 2 to 10), solved without the ladder's node cap
// (under Solve's default of 3e6), cold and warm-started, by both
// searches: the pruned search may expand no more nodes than the
// oracle, and wherever the oracle finishes the answers must agree in
// schedule, calibration count, proof and infeasibility.
func FuzzPruneKeepsAnswer(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 1, 7, 4, 0, 9, 1, 6, 3, 2, 4, 3, 5, 8, 1, 2, 9, 0, 3, 6, 2, 7, 1, 5, 3, 2, 4})
	f.Add([]byte{8, 0, 7, 0, 0, 1, 0, 0, 1, 2, 1, 1, 3, 0, 2, 0, 0, 1, 4, 2, 3, 0, 1, 2, 0, 3})
	f.Add([]byte{2, 1, 3, 1, 3, 0, 1, 3, 0, 1, 0, 2})
	f.Add([]byte{8, 1, 7, 3, 0, 17, 1, 6, 6, 0, 9, 9, 3, 7, 8, 6, 9, 0, 3, 8, 15, 2, 9, 0, 2, 0, 12})
	// Each of these fails a bound that drops groups that are still open:
	// one that counts every group as closed, one that wants a job to
	// fit strictly inside a group's free capacity, and one that steps
	// L_g down by 2T per group.
	f.Add([]byte("00080107"))
	f.Add([]byte("208Y77107"))
	f.Add([]byte("Y12081077210829"))
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
		inst := ise.NewInstance(T, 1+next()%2)
		for n := next() % 9; n > 0; n-- {
			p := ise.Time(1 + next()%int(T))
			r := ise.Time(next() % 24)
			inst.AddJob(r, r+p+ise.Time(next()%16), p)
		}
		for _, warm := range []bool{false, true} {
			opts := Options{WarmStart: warm}
			want, wantErr := solveUnpruned(inst, opts)
			got, gotErr := Solve(inst, opts)
			if want == nil || got == nil {
				t.Fatalf("warm=%v: no result: %v, oracle %v (instance %+v)", warm, gotErr, wantErr, inst.Jobs)
			}
			if got.Nodes > want.Nodes {
				t.Fatalf("warm=%v: %d nodes, oracle %d (instance %+v)", warm, got.Nodes, want.Nodes, inst.Jobs)
			}
			if !want.Proven {
				continue // the oracle hit the cap; the pruned search may finish
			}
			if (gotErr == nil) != (wantErr == nil) || errors.Is(gotErr, ErrInfeasible) != errors.Is(wantErr, ErrInfeasible) {
				t.Fatalf("warm=%v: error %v, oracle %v (instance %+v)", warm, gotErr, wantErr, inst.Jobs)
			}
			if got.Proven != want.Proven || got.Calibrations != want.Calibrations || !reflect.DeepEqual(got.Schedule, want.Schedule) {
				t.Fatalf("warm=%v: proven=%v calibrations=%d schedule %+v, oracle proven=%v calibrations=%d schedule %+v (instance %+v)",
					warm, got.Proven, got.Calibrations, got.Schedule, want.Proven, want.Calibrations, want.Schedule, inst.Jobs)
			}
		}
	})
}
