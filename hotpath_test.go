package calib_test

import (
	"math/rand"
	"testing"

	"calib"
	"calib/internal/workload"
)

// TestParallelismOption: clustered instances decompose; the result
// stays feasible, deterministic across worker counts, and reports the
// summed LP objective.
func TestParallelismOption(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	inst, _ := workload.Clustered(rng, 3, 6, 2, 10)
	mono, err := calib.Solve(inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		sol, err := calib.Solve(inst, &calib.Options{Parallelism: par})
		if err != nil {
			t.Fatalf("par %d: %v", par, err)
		}
		if err := calib.Validate(inst, sol.Schedule); err != nil {
			t.Fatalf("par %d: infeasible: %v", par, err)
		}
		if d := mono.LPObjective - sol.LPObjective; d > 1e-6 || d < -1e-6 {
			t.Fatalf("par %d: LP objective %v != monolithic %v", par, sol.LPObjective, mono.LPObjective)
		}
	}
}
