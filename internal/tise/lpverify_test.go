package tise

import (
	"math"
	"math/rand"
	"testing"

	"calib/internal/ise"
	"calib/internal/workload"
)

// TestLPSolutionSatisfiesPaperConstraints re-checks the solved
// relaxation against the paper's constraints (1)-(6) directly — not
// through the LP machinery, but by evaluating each inequality on the
// returned Fractional. This guards the *encoding* (BuildLP) as well as
// the solver.
func TestLPSolutionSatisfiesPaperConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(2025))
	const tol = 1e-6
	for trial := 0; trial < 10; trial++ {
		m := 1 + rng.Intn(2)
		inst, _ := workload.Planted(rng, workload.PlantedConfig{
			Machines: m, T: 10, CalibrationsPerMachine: 1 + rng.Intn(2),
			Window: workload.LongWindow,
		})
		if inst.N() == 0 {
			continue
		}
		mPrime := 3 * m
		frac, err := SolveLP(inst, mPrime, Float64)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// (6) nonnegativity.
		for i, c := range frac.C {
			if c < -tol {
				t.Fatalf("trial %d: C[%d] = %v < 0", trial, i, c)
			}
		}
		// (1) at most m' calibration mass in any (t-T, t] window.
		for i, ti := range frac.Points {
			sum := 0.0
			for k, tk := range frac.Points {
				if tk > ti-inst.T && tk <= ti {
					sum += frac.C[k]
				}
			}
			if sum > float64(mPrime)+tol {
				t.Fatalf("trial %d: constraint (1) violated at point %d: %v > %d", trial, i, sum, mPrime)
			}
		}
		for j, row := range frac.X {
			total := 0.0
			for i, x := range row {
				if x < -tol {
					t.Fatalf("trial %d: X[%d][%d] = %v < 0", trial, j, i, x)
				}
				// (2) X_jt <= C_t.
				if x > frac.C[i]+tol {
					t.Fatalf("trial %d: constraint (2) violated: X[%d][%d]=%v > C=%v", trial, j, i, x, frac.C[i])
				}
				// (5) only TISE-feasible assignments.
				if x > tol && !Feasible(inst.T, inst.Jobs[j], frac.Points[i]) {
					t.Fatalf("trial %d: constraint (5) violated: job %d at infeasible point %d", trial, j, frac.Points[i])
				}
				total += x
			}
			// (4) full assignment.
			if math.Abs(total-1) > tol {
				t.Fatalf("trial %d: constraint (4) violated for job %d: sum=%v", trial, j, total)
			}
		}
		// (3) work capacity per point.
		for i := range frac.Points {
			work := 0.0
			for j := range frac.X {
				work += frac.X[j][i] * float64(inst.Jobs[j].Processing)
			}
			if work > frac.C[i]*float64(inst.T)+tol*float64(inst.T) {
				t.Fatalf("trial %d: constraint (3) violated at point %d: work %v > C*T %v",
					trial, i, work, frac.C[i]*float64(inst.T))
			}
		}
	}
}

// TestLPObjectiveLowerBoundsWitness: LP(3m) <= 3 * witness calibrations
// (Lemma 2 + LP relaxation), i.e. ceil(LP/3) is a valid OPT lower
// bound on m machines.
func TestLPObjectiveLowerBoundsWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 10; trial++ {
		m := 1 + rng.Intn(2)
		inst, witness := workload.Planted(rng, workload.PlantedConfig{
			Machines: m, T: 10, CalibrationsPerMachine: 1 + rng.Intn(2),
			Window: workload.LongWindow,
		})
		if err := ise.Validate(inst, witness); err != nil {
			t.Fatal(err)
		}
		frac, err := SolveLP(inst, 3*m, Float64)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if frac.Objective > 3*float64(witness.NumCalibrations())+1e-6 {
			t.Errorf("trial %d: LP(3m) = %v > 3*witness = %d — Lemma 2 chain broken",
				trial, frac.Objective, 3*witness.NumCalibrations())
		}
	}
}
