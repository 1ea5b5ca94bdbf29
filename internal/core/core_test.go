package core

import (
	"math/rand"
	"testing"

	"calib/internal/bounds"
	"calib/internal/exact"
	"calib/internal/ise"
	"calib/internal/mm"
	"calib/internal/workload"
)

func TestSolveMixedEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 12; trial++ {
		m := 1 + rng.Intn(2)
		inst, witness := workload.Planted(rng, workload.PlantedConfig{
			Machines:               m,
			T:                      10,
			CalibrationsPerMachine: 1 + rng.Intn(3),
			Window:                 workload.AnyWindow,
		})
		res, err := Solve(inst, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := ise.Validate(inst, res.Schedule); err != nil {
			t.Fatalf("trial %d: infeasible: %v", trial, err)
		}
		if res.LongJobs+res.ShortJobs != inst.N() {
			t.Errorf("trial %d: partition %d+%d != %d", trial, res.LongJobs, res.ShortJobs, inst.N())
		}
		// Sanity: lower bound never exceeds what we produced.
		if lb := bounds.Calibrations(inst); lb > res.Schedule.NumCalibrations() {
			t.Errorf("trial %d: LB %d > produced %d", trial, lb, res.Schedule.NumCalibrations())
		}
		_ = witness
	}
}

func TestSolveLongOnlyAndShortOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	long, _ := workload.Long(rng, 8, 1, 10)
	lr, err := Solve(long, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lr.Short != nil || lr.Long == nil {
		t.Error("long-only instance should produce only a long sub-result")
	}
	if err := ise.Validate(long, lr.Schedule); err != nil {
		t.Fatalf("long-only infeasible: %v", err)
	}

	short, _ := workload.Short(rng, 8, 1, 10)
	sr, err := Solve(short, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Long != nil || sr.Short == nil {
		t.Error("short-only instance should produce only a short sub-result")
	}
	if err := ise.Validate(short, sr.Schedule); err != nil {
		t.Fatalf("short-only infeasible: %v", err)
	}
}

func TestSolveEmpty(t *testing.T) {
	in := ise.NewInstance(10, 1)
	res, err := Solve(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.NumCalibrations() != 0 {
		t.Errorf("empty instance: %d calibrations", res.Schedule.NumCalibrations())
	}
}

func TestSolveAgainstExactRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	worst := 0.0
	trials := 0
	for trials < 10 {
		inst, _ := workload.Planted(rng, workload.PlantedConfig{
			Machines:               1,
			T:                      10,
			CalibrationsPerMachine: 1 + rng.Intn(2),
			Window:                 workload.AnyWindow,
		})
		if inst.N() == 0 || inst.N() > 7 {
			continue
		}
		trials++
		res, err := Solve(inst, Options{MM: mm.Exact{}})
		if err != nil {
			t.Fatalf("%v", err)
		}
		if err := ise.Validate(inst, res.Schedule); err != nil {
			t.Fatalf("infeasible: %v", err)
		}
		opt, err := exact.Solve(inst, exact.Options{})
		if err != nil {
			t.Fatalf("exact: %v", err)
		}
		ratio := float64(res.Schedule.NumCalibrations()) / float64(opt.Calibrations)
		if ratio > worst {
			worst = ratio
		}
		// Theorem 1 with alpha = 1 and the paper's constants: the
		// combined bound is far below 28 = 12 + 16*gamma/2; use the
		// loosest published constant as a hard ceiling.
		if ratio > 64 {
			t.Errorf("ratio %v implausibly high (alg %d, opt %d)", ratio, res.Schedule.NumCalibrations(), opt.Calibrations)
		}
	}
	t.Logf("worst observed end-to-end ratio over %d trials: %.2f", trials, worst)
}

func TestSolveInvalidInstance(t *testing.T) {
	in := ise.NewInstance(1, 1) // T too small
	in.AddJob(0, 5, 1)
	if _, err := Solve(in, Options{}); err == nil {
		t.Error("invalid instance accepted")
	}
}
