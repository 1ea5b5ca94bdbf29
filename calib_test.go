package calib_test

import (
	"math/rand"
	"testing"

	"calib"
	"calib/internal/workload"
)

func TestQuickstart(t *testing.T) {
	inst := calib.NewInstance(10, 1)
	inst.AddJob(0, 40, 5)
	inst.AddJob(30, 40, 8)
	sol, err := calib.Solve(inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := calib.Validate(inst, sol.Schedule); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	if sol.Calibrations < 1 {
		t.Error("no calibrations in a non-empty solution")
	}
	if sol.LowerBound > sol.Calibrations {
		t.Errorf("lower bound %d exceeds solution %d", sol.LowerBound, sol.Calibrations)
	}
}

func TestAllBoxesAndOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	inst, _ := workload.Mixed(rng, 10, 1, 10, 0.5)
	for _, opts := range []*calib.Options{
		nil,
		{MMBox: calib.MMExact},
		{MMBox: calib.MMLPRound},
		{TrimIdleCalibrations: true},
	} {
		sol, err := calib.Solve(inst, opts)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if err := calib.Validate(inst, sol.Schedule); err != nil {
			t.Fatalf("opts %+v: infeasible: %v", opts, err)
		}
	}
}

func TestSolveWithSpeedFacade(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inst, _ := workload.Long(rng, 6, 1, 10)
	sol, err := calib.SolveWithSpeed(inst)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Schedule.Speed != 36 {
		t.Errorf("speed = %d, want 36", sol.Schedule.Speed)
	}
	if err := calib.Validate(sol.Scaled, sol.Schedule); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	if used := sol.Schedule.MachinesUsed(); used > inst.M {
		t.Errorf("machines used %d > M = %d", used, inst.M)
	}
}

func TestSolveExactFacade(t *testing.T) {
	inst := calib.NewInstance(10, 1)
	inst.AddJob(0, 100, 5)
	inst.AddJob(90, 100, 5)
	sched, cals, err := calib.SolveExact(inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cals != 1 {
		t.Errorf("OPT = %d, want 1", cals)
	}
	if err := calib.Validate(inst, sched); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
}

func TestBaselinesFacade(t *testing.T) {
	inst := calib.NewInstance(10, 1)
	inst.AddJob(0, 100, 1)
	inst.AddJob(95, 100, 1)
	lazy, err := calib.LazyBinning(inst)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := calib.NaiveGrid(inst)
	if err != nil {
		t.Fatal(err)
	}
	if lazy.NumCalibrations() >= naive.NumCalibrations() {
		t.Errorf("lazy binning (%d) should beat the naive grid (%d)",
			lazy.NumCalibrations(), naive.NumCalibrations())
	}
}

func TestMMBoxStrings(t *testing.T) {
	for _, b := range []calib.MMBox{calib.MMGreedy, calib.MMExact, calib.MMLPRound, calib.MMBox(9)} {
		if b.String() == "" {
			t.Errorf("empty string for box %d", int(b))
		}
	}
}
