package mm

import (
	"math/rand"
	"testing"

	"calib/internal/ise"
	"calib/internal/workload"
)

func TestLowerBound(t *testing.T) {
	in := ise.NewInstance(10, 1)
	// Three jobs of work 4 nested in [0, 6): density 12/6 = 2.
	in.AddJob(0, 6, 4)
	in.AddJob(0, 6, 4)
	in.AddJob(0, 6, 4)
	if lb := LowerBound(in); lb != 2 {
		t.Errorf("LowerBound = %d, want 2", lb)
	}
	empty := ise.NewInstance(10, 1)
	if lb := LowerBound(empty); lb != 0 {
		t.Errorf("LowerBound(empty) = %d, want 0", lb)
	}
}

func TestValidateMM(t *testing.T) {
	in := ise.NewInstance(10, 1)
	in.AddJob(0, 10, 5)
	in.AddJob(0, 10, 5)
	good := &Schedule{Machines: 1, Placements: []ise.Placement{
		{Job: 0, Machine: 0, Start: 0},
		{Job: 1, Machine: 0, Start: 5},
	}}
	if err := Validate(in, good); err != nil {
		t.Fatalf("good schedule rejected: %v", err)
	}
	bad := &Schedule{Machines: 1, Placements: []ise.Placement{
		{Job: 0, Machine: 0, Start: 0},
		{Job: 1, Machine: 0, Start: 4},
	}}
	if err := Validate(in, bad); err == nil {
		t.Error("overlapping schedule accepted")
	}
	missing := &Schedule{Machines: 1, Placements: good.Placements[:1]}
	if err := Validate(in, missing); err == nil {
		t.Error("missing placement accepted")
	}
	late := &Schedule{Machines: 2, Placements: []ise.Placement{
		{Job: 0, Machine: 0, Start: 6},
		{Job: 1, Machine: 1, Start: 0},
	}}
	if err := Validate(in, late); err == nil {
		t.Error("deadline miss accepted")
	}
}

// TestExactNeedsNonEDDOrder uses the classic case where the earliest-
// deadline-first sequence is infeasible on one machine but a feasible
// one-machine schedule exists — Exact must find it.
func TestExactNeedsNonEDDOrder(t *testing.T) {
	in := ise.NewInstance(10, 1)
	in.AddJob(3, 5, 2) // must run exactly [3,5)
	in.AddJob(0, 6, 3) // must run [0,3)
	s, err := Exact{}.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if s.Machines != 1 {
		t.Errorf("machines = %d, want 1", s.Machines)
	}
	if err := Validate(in, s); err != nil {
		t.Errorf("exact schedule invalid: %v", err)
	}
}

func TestSolversOnPlanted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	solvers := []Solver{Greedy{}, Exact{}, LPRound{}}
	for trial := 0; trial < 12; trial++ {
		m := 1 + rng.Intn(3)
		inst, _ := workload.Planted(rng, workload.PlantedConfig{
			Machines:               m,
			T:                      8,
			CalibrationsPerMachine: 1,
			Window:                 workload.ShortWindow,
		})
		if inst.N() > 9 {
			continue // keep Exact cheap
		}
		var exactM int
		for _, sv := range solvers {
			s, err := sv.Solve(inst)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, sv.Name(), err)
			}
			if err := Validate(inst, s); err != nil {
				t.Fatalf("trial %d %s: invalid schedule: %v", trial, sv.Name(), err)
			}
			switch sv.(type) {
			case Exact:
				exactM = s.Machines
				// Planted on m machines => OPT <= m.
				if s.Machines > m {
					t.Errorf("trial %d: exact machines = %d > planted %d", trial, s.Machines, m)
				}
				if lb := LowerBound(inst); s.Machines < lb {
					t.Errorf("trial %d: exact machines = %d < lower bound %d", trial, s.Machines, lb)
				}
			}
		}
		// Heuristics can't beat Exact.
		for _, sv := range []Solver{Greedy{}, LPRound{}} {
			s, _ := sv.Solve(inst)
			if s.Machines < exactM {
				t.Errorf("trial %d: %s used %d machines, below optimum %d", trial, sv.Name(), s.Machines, exactM)
			}
		}
	}
}

func TestLPRoundLowerBoundConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	inst, _ := workload.Planted(rng, workload.PlantedConfig{
		Machines:               2,
		T:                      6,
		CalibrationsPerMachine: 1,
		Window:                 workload.ShortWindow,
	})
	if inst.N() == 0 {
		t.Skip("empty instance")
	}
	s, st, err := (LPRound{}).SolveStats(inst)
	if err != nil {
		t.Fatal(err)
	}
	if st.LPObjective > float64(s.Machines)+1e-6 {
		t.Errorf("LP value %v exceeds rounded machines %d", st.LPObjective, s.Machines)
	}
	if err := Validate(inst, s); err != nil {
		t.Errorf("schedule invalid: %v", err)
	}
}

func TestEmptyInstances(t *testing.T) {
	in := ise.NewInstance(10, 1)
	for _, sv := range []Solver{Greedy{}, Exact{}, LPRound{}} {
		s, err := sv.Solve(in)
		if err != nil {
			t.Errorf("%s on empty: %v", sv.Name(), err)
			continue
		}
		if len(s.Placements) != 0 {
			t.Errorf("%s produced placements for empty instance", sv.Name())
		}
	}
}

func TestSolverNames(t *testing.T) {
	names := map[string]bool{}
	for _, sv := range []Solver{Greedy{}, Exact{}, LPRound{}} {
		n := sv.Name()
		if n == "" || names[n] {
			t.Errorf("bad or duplicate solver name %q", n)
		}
		names[n] = true
	}
}
