package core

import (
	"math/rand"
	"testing"

	"calib/internal/ise"
	"calib/internal/replay"
	"calib/internal/workload"
)

// TestParallelDecomposedFeasible: the decomposed concurrent path must
// produce validator- and simulator-feasible schedules on clustered
// workloads, at several parallelism levels.
func TestParallelDecomposedFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 5; trial++ {
		inst, witness := workload.Clustered(rng, 3, 6, 2, 10)
		for _, par := range []int{1, 2, 8} {
			res, err := Solve(inst, Options{Parallelism: par})
			if err != nil {
				t.Fatalf("trial %d par %d: %v", trial, par, err)
			}
			if err := ise.Validate(inst, res.Schedule); err != nil {
				t.Fatalf("trial %d par %d: %v", trial, par, err)
			}
			if rep := replay.Replay(inst, res.Schedule); !rep.Feasible {
				t.Fatalf("trial %d par %d: simulator rejected: %s", trial, par, rep.Violation)
			}
			if res.Components < 2 {
				t.Fatalf("trial %d par %d: components = %d, expected a split", trial, par, res.Components)
			}
			if witness != nil && res.LPObjective > float64(witness.NumCalibrations())+1e-6 {
				t.Fatalf("trial %d: summed LP objective %v exceeds witness %d",
					trial, res.LPObjective, witness.NumCalibrations())
			}
		}
	}
}

// TestParallelDeterministic: the merged schedule must not depend on
// worker count or scheduling interleavings.
func TestParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	inst, _ := workload.Clustered(rng, 4, 5, 2, 10)
	var want *ise.Schedule
	for _, par := range []int{1, 2, 3, 16} {
		for rep := 0; rep < 3; rep++ {
			res, err := Solve(inst, Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			got := res.Schedule.Clone()
			got.SortCanonical()
			if want == nil {
				want = got
				continue
			}
			if len(got.Calibrations) != len(want.Calibrations) || len(got.Placements) != len(want.Placements) {
				t.Fatalf("par %d: schedule shape changed", par)
			}
			for i := range got.Calibrations {
				if got.Calibrations[i] != want.Calibrations[i] {
					t.Fatalf("par %d: calibration %d differs: %v vs %v",
						par, i, got.Calibrations[i], want.Calibrations[i])
				}
			}
			for i := range got.Placements {
				if got.Placements[i] != want.Placements[i] {
					t.Fatalf("par %d: placement %d differs: %v vs %v",
						par, i, got.Placements[i], want.Placements[i])
				}
			}
		}
	}
}

// TestParallelMatchesMonolithicObjective: on clustered instances the
// summed component LP objective must equal the monolithic LP objective
// (no calibration spans a gap, so the LP decomposes exactly).
func TestParallelMatchesMonolithicObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 3; trial++ {
		inst, _ := workload.Clustered(rng, 3, 4, 1, 10)
		mono, err := Solve(inst, Options{})
		if err != nil {
			t.Fatalf("trial %d mono: %v", trial, err)
		}
		par, err := Solve(inst, Options{Parallelism: 4})
		if err != nil {
			t.Fatalf("trial %d par: %v", trial, err)
		}
		if mono.Components != 1 || par.Components < 2 {
			t.Fatalf("trial %d: components mono=%d par=%d", trial, mono.Components, par.Components)
		}
		if d := mono.LPObjective - par.LPObjective; d > 1e-6 || d < -1e-6 {
			t.Fatalf("trial %d: LP objective mono %v != decomposed sum %v",
				trial, mono.LPObjective, par.LPObjective)
		}
	}
}

// TestParallelNoGapFallsBack: an instance with no decomposition gap
// must take the monolithic path even with Parallelism set.
func TestParallelNoGapFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	inst, _ := workload.Mixed(rng, 8, 2, 10, 0.5)
	res, err := Solve(inst, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Components != 1 {
		t.Fatalf("expected monolithic fallback, got %d components", res.Components)
	}
}
