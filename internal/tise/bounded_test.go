package tise

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"calib/internal/ise"
	"calib/internal/workload"
)

// TestBoundedMatchesDirect: the Bounded strategy (implied variable
// bounds + lazy pair cuts + warm restarts) must converge to the exact
// Direct optimum on both the revised and dense engines.
func TestBoundedMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for trial := 0; trial < 4; trial++ {
		inst, _ := workload.Long(rng, 8, 1, 10)
		direct, err := SolveLPWith(inst, 3, Float64, Direct)
		if err != nil {
			t.Fatalf("trial %d direct: %v", trial, err)
		}
		for _, engine := range []Engine{Revised, RevisedDense, Float64} {
			bounded, err := SolveLPWith(inst, 3, engine, Bounded)
			if err != nil {
				t.Fatalf("trial %d bounded/%v: %v", trial, engine, err)
			}
			if d := math.Abs(direct.Objective - bounded.Objective); d > 1e-6 {
				t.Fatalf("trial %d: bounded/%v objective %v != direct %v",
					trial, engine, bounded.Objective, direct.Objective)
			}
			// The converged solution satisfies every constraint (2) row
			// even though almost none were materialized.
			for j := range bounded.X {
				for i := range bounded.Points {
					if bounded.X[j][i] > bounded.C[i]+1e-6 {
						t.Fatalf("trial %d: X[%d][%d]=%v > C=%v", trial, j, i,
							bounded.X[j][i], bounded.C[i])
					}
				}
			}
		}
	}
}

// TestBoundedExactAgainstRational cross-checks the bounded revised
// path against the exact rational optimum of the full formulation.
func TestBoundedExactAgainstRational(t *testing.T) {
	in := ise.NewInstance(10, 2)
	in.AddJob(0, 30, 6)
	in.AddJob(2, 35, 4)
	in.AddJob(5, 40, 7)
	in.AddJob(8, 50, 3)
	bounded, err := SolveLPWith(in, 2, Revised, Bounded)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := SolveLPWith(in, 2, Rational, Direct)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(bounded.Objective - exact.Objective); d > 1e-7 {
		t.Fatalf("bounded %v != rational %v (diff %g)", bounded.Objective, exact.Objective, d)
	}
}

// TestSolveLPBoundedWarmChain sweeps machine counts in a mixed order,
// carrying one LPWarm through, and checks every result against a cold
// Direct solve.
func TestSolveLPBoundedWarmChain(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	inst, _ := workload.Long(rng, 10, 1, 12)
	warm := &LPWarm{}
	for _, mPrime := range []int{4, 2, 3, 1, 5, 3} {
		got, gotErr := SolveLPBounded(inst, mPrime, warm)
		want, wantErr := SolveLP(inst, mPrime, Float64)
		var gi, wi *InfeasibleError
		if errors.As(gotErr, &gi) != errors.As(wantErr, &wi) {
			t.Fatalf("m'=%d: feasibility disagrees: warm err %v, direct err %v", mPrime, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if d := math.Abs(got.Objective - want.Objective); d > 1e-6 {
			t.Fatalf("m'=%d: warm-chained objective %v != direct %v", mPrime, got.Objective, want.Objective)
		}
	}
	if warm.Basis == nil {
		t.Fatal("warm state carried no basis after a feasible solve")
	}
}

// TestNumericalErrorDistinct checks the error taxonomy: infeasibility
// and numerical failure are distinguishable via errors.As.
func TestNumericalErrorDistinct(t *testing.T) {
	in := ise.NewInstance(10, 1)
	in.AddJob(0, 20, 8)
	in.AddJob(0, 20, 8)
	in.AddJob(0, 20, 8)
	_, err := SolveLPWith(in, 1, Revised, Bounded)
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
