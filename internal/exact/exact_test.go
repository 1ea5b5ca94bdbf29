package exact

import (
	"errors"
	"math/rand"
	"testing"

	"calib/internal/ise"
	"calib/internal/workload"
)

func TestSingleJob(t *testing.T) {
	in := ise.NewInstance(10, 1)
	in.AddJob(0, 20, 5)
	res, err := Solve(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Calibrations != 1 || !res.Proven {
		t.Errorf("result %+v, want 1 proven calibration", res)
	}
	if err := ise.Validate(in, res.Schedule); err != nil {
		t.Errorf("schedule infeasible: %v", err)
	}
}

func TestSharedCalibration(t *testing.T) {
	// Three jobs fit in one calibration.
	in := ise.NewInstance(10, 1)
	in.AddJob(0, 30, 3)
	in.AddJob(0, 30, 3)
	in.AddJob(0, 30, 4)
	res, err := Solve(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Calibrations != 1 {
		t.Errorf("calibrations = %d, want 1", res.Calibrations)
	}
}

func TestDelayedCalibrationIsFound(t *testing.T) {
	// The hallmark of ISE: delaying the calibration lets both jobs
	// share it. Job 0 can run anywhere in [0, 100); job 1 only in
	// [90, 100). A calibration at 90 serves both; greedy-early
	// calibration at 0 would need two.
	in := ise.NewInstance(10, 1)
	in.AddJob(0, 100, 5)
	in.AddJob(90, 100, 5)
	res, err := Solve(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Calibrations != 1 {
		t.Errorf("calibrations = %d, want 1 (delay the calibration)", res.Calibrations)
	}
	if err := ise.Validate(in, res.Schedule); err != nil {
		t.Errorf("schedule infeasible: %v", err)
	}
}

func TestNonEDDOrderWithinCalibration(t *testing.T) {
	// Within a single calibration the EDD order is infeasible but the
	// reversed order works (cf. mm exact test).
	in := ise.NewInstance(6, 1)
	in.AddJob(3, 5, 2) // earliest deadline
	in.AddJob(0, 6, 3)
	res, err := Solve(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Calibrations != 1 {
		t.Errorf("calibrations = %d, want 1", res.Calibrations)
	}
}

func TestInfeasibleDetected(t *testing.T) {
	// Two full-length jobs with the same tight window on one machine.
	in := ise.NewInstance(10, 1)
	in.AddJob(0, 10, 10)
	in.AddJob(0, 10, 10)
	_, err := Solve(in, Options{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("error = %v, want ErrInfeasible", err)
	}
}

func TestPartitionInstance(t *testing.T) {
	// The NP-hardness gadget: jobs with window [0, T) summing to 2T on
	// 2 machines — feasible with exactly 2 calibrations iff a perfect
	// split exists.
	in := ise.NewInstance(10, 2)
	for _, p := range []ise.Time{3, 7, 4, 6} { // splits as 3+7, 4+6
		in.AddJob(0, 10, p)
	}
	res, err := Solve(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Calibrations != 2 {
		t.Errorf("calibrations = %d, want 2", res.Calibrations)
	}
	if err := ise.Validate(in, res.Schedule); err != nil {
		t.Errorf("schedule infeasible: %v", err)
	}
}

func TestPartitionInfeasibleSplit(t *testing.T) {
	// Weights 5,5,5,3,2 sum to 20 = 2T and a perfect split exists
	// (5+5 / 5+3+2): feasible. Then 9,9,1 sums to 19 < 2T but cannot
	// split into two <=10 halves? 9+1 / 9 works. Use 6,6,6 (sum 18):
	// needs a 6+6=12 > 10 on one side — infeasible on 2 machines with
	// window [0,10).
	in := ise.NewInstance(10, 2)
	for _, p := range []ise.Time{6, 6, 6} {
		in.AddJob(0, 10, p)
	}
	_, err := Solve(in, Options{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("error = %v, want ErrInfeasible", err)
	}
}

// TestOptimalAtMostWitness checks OPT <= planted witness calibrations
// on random feasible instances, and that the returned schedule is
// feasible.
func TestOptimalAtMostWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		inst, witness := workload.Planted(rng, workload.PlantedConfig{
			Machines:               1 + rng.Intn(2),
			T:                      8,
			CalibrationsPerMachine: 1 + rng.Intn(2),
			Window:                 workload.AnyWindow,
		})
		if inst.N() > 7 {
			inst.Jobs = inst.Jobs[:7]
			witness = nil // witness no longer matches
		}
		res, err := Solve(inst, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := ise.Validate(inst, res.Schedule); err != nil {
			t.Fatalf("trial %d: schedule infeasible: %v", trial, err)
		}
		if witness != nil && res.Calibrations > witness.NumCalibrations() {
			t.Errorf("trial %d: OPT = %d > witness %d", trial, res.Calibrations, witness.NumCalibrations())
		}
		// Work lower bound.
		lb := int((inst.TotalWork() + inst.T - 1) / inst.T)
		if inst.N() > 0 && res.Calibrations < lb {
			t.Errorf("trial %d: OPT = %d below work bound %d", trial, res.Calibrations, lb)
		}
	}
}

func TestEmptyInstance(t *testing.T) {
	in := ise.NewInstance(10, 1)
	res, err := Solve(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Calibrations != 0 || !res.Proven {
		t.Errorf("empty: %+v", res)
	}
}

func TestNodeCap(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	inst, _ := workload.Planted(rng, workload.PlantedConfig{
		Machines:               2,
		T:                      10,
		CalibrationsPerMachine: 3,
		Window:                 workload.AnyWindow,
	})
	res, err := Solve(inst, Options{MaxNodes: 50})
	if err != nil {
		// Cap hit without any solution is acceptable.
		return
	}
	if res.Proven && res.Nodes > 50 {
		t.Errorf("claimed proven after exceeding node cap: %+v", res)
	}
}

// TestSearchAllocationsDoNotScaleWithNodes pins the search on fixture
// A, which expands 333 879 nodes: its result, and an allocation count
// that stays flat as the tree grows. Candidate groups are built in
// per-depth buffers, so only the setup, the warm start and each new
// incumbent's copy allocate; one allocation per candidate would be
// millions.
func TestSearchAllocationsDoNotScaleWithNodes(t *testing.T) {
	inst := fixtureA()
	res, err := Solve(inst, ladderOptions)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != 333879 || !res.Proven || res.Calibrations != 4 {
		t.Fatalf("got nodes=%d proven=%v calibrations=%d, want 333879 true 4", res.Nodes, res.Proven, res.Calibrations)
	}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Solve(inst, ladderOptions); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Errorf("a solve made %.0f allocations, want at most 1000", allocs)
	}
}
