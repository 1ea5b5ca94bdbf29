package tise

import (
	"errors"
	"math/rand"
	"testing"

	"calib/internal/ise"
	"calib/internal/workload"
)

// TestSolveMinimalT exercises the smallest legal calibration length.
func TestSolveMinimalT(t *testing.T) {
	in := ise.NewInstance(2, 1)
	in.AddJob(0, 4, 1) // window exactly 2T
	in.AddJob(0, 5, 2)
	res, err := Solve(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ise.ValidateTISE(in, res.Schedule); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
}

// TestSolveFullLengthJobs: p_j = T jobs leave zero slack inside their
// calibrations.
func TestSolveFullLengthJobs(t *testing.T) {
	in := ise.NewInstance(10, 2)
	in.AddJob(0, 20, 10)
	in.AddJob(0, 20, 10)
	in.AddJob(5, 40, 10)
	res, err := Solve(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ise.ValidateTISE(in, res.Schedule); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
}

// TestSolveNegativeReleases: the model allows negative times.
func TestSolveNegativeReleases(t *testing.T) {
	in := ise.NewInstance(10, 1)
	in.AddJob(-30, -5, 4)
	in.AddJob(-10, 20, 6)
	res, err := Solve(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ise.ValidateTISE(in, res.Schedule); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
}

// TestSolveIdenticalJobs: many copies of one job stress the LP's
// degenerate structure and the EDF tie-breaks.
func TestSolveIdenticalJobs(t *testing.T) {
	in := ise.NewInstance(10, 2)
	for i := 0; i < 8; i++ {
		in.AddJob(0, 50, 5)
	}
	res, err := Solve(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ise.ValidateTISE(in, res.Schedule); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	// 8 jobs x 5 work = 40 = 4 calibrations at best; 12*OPT bound.
	if res.Schedule.NumCalibrations() > 48 {
		t.Errorf("calibrations = %d, way above 12*OPT", res.Schedule.NumCalibrations())
	}
}

// TestSolveRationalEngineEndToEnd runs the whole long-window pipeline on
// the rational engine: it must produce a feasible schedule and match
// the dense engine's LP optimum.
func TestSolveRationalEngineEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 6; trial++ {
		inst, _ := workload.Long(rng, 8, 1, 10)
		dense, err := Solve(inst, Options{Engine: Float64})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Solve(inst, Options{Engine: Rational})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := ise.ValidateTISE(inst, res.Schedule); err != nil {
			t.Fatalf("trial %d: infeasible: %v", trial, err)
		}
		if d := res.LP.Objective - dense.LP.Objective; d > 1e-6 || d < -1e-6 {
			t.Errorf("trial %d: LP objectives differ: rational %v, dense %v",
				trial, res.LP.Objective, dense.LP.Objective)
		}
	}
}

// TestStrategyString covers the strategy printer: Direct is the only
// value the type admits.
func TestStrategyString(t *testing.T) {
	if got := Direct.String(); got != "direct" {
		t.Errorf("Direct.String() = %q, want direct", got)
	}
	if got := (Options{}).Strategy; got != Direct {
		t.Errorf("zero Options.Strategy = %v, want Direct", got)
	}
}

// TestNumericalErrorDistinct checks the error taxonomy: infeasibility
// and numerical failure are distinguishable via errors.As.
func TestNumericalErrorDistinct(t *testing.T) {
	in := ise.NewInstance(10, 1)
	in.AddJob(0, 20, 8)
	in.AddJob(0, 20, 8)
	in.AddJob(0, 20, 8)
	_, err := SolveLP(in, 1, Float64)
	var inf *InfeasibleError
	if !errors.As(err, &inf) {
		t.Fatalf("expected *InfeasibleError, got %v", err)
	}
	var num *NumericalError
	if errors.As(err, &num) {
		t.Fatal("InfeasibleError must not satisfy *NumericalError")
	}
	ne := &NumericalError{MPrime: 3}
	if ne.Error() == "" {
		t.Fatal("empty NumericalError message")
	}
}
