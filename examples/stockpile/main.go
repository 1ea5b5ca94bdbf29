// Stockpile: the motivating Integrated Stockpile Evaluation scenario.
//
// A weapons lab must run periodic integrity tests: every maintenance
// period, a batch of devices arrives, each needing a test of a known
// duration before the period ends. Test equipment must have been
// calibrated within the last T time units to produce valid results,
// and calibrations are the expensive resource to minimize.
//
// The example compares three policies on the same campaign:
//
//  1. the always-calibrated naive grid (the "keep everything hot"
//     straw man),
//  2. this paper's calibration-aware solver, and
//  3. the combinatorial lower bound on any policy.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"calib"
)

func main() {
	const (
		T         = 12 // calibration validity
		period    = 60 // maintenance period between batches
		batches   = 6
		batchSize = 4
		machines  = 3
	)
	rng := rand.New(rand.NewSource(2015))

	inst := calib.NewInstance(T, machines)
	for b := 0; b < batches; b++ {
		release := calib.Time(b * period)
		for i := 0; i < batchSize; i++ {
			dur := calib.Time(2 + rng.Intn(T-2)) // test duration in [2, T)
			inst.AddJob(release, release+period, dur)
		}
	}
	fmt.Printf("campaign: %d batches x %d tests, period %d, calibration validity T=%d, %d machines\n\n",
		batches, batchSize, period, T, machines)

	naive, err := calib.NaiveGrid(inst)
	if err != nil {
		log.Fatal(err)
	}
	if err := calib.Validate(inst, naive); err != nil {
		log.Fatalf("naive schedule invalid: %v", err)
	}

	sol, err := calib.Solve(inst, nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := calib.Validate(inst, sol.Schedule); err != nil {
		log.Fatalf("solver bug: %v", err)
	}

	// Every window here spans a full period >= 2T, so the whole
	// campaign is long-window and Theorem 14 applies: fold the
	// machine-augmented schedule onto the 3 machines the lab actually
	// owns, run 36x faster, with no extra calibrations.
	fast, err := calib.SolveWithSpeed(inst)
	if err != nil {
		log.Fatal(err)
	}
	if err := calib.Validate(fast.Scaled, fast.Schedule); err != nil {
		log.Fatalf("solver bug (speed): %v", err)
	}

	lb := calib.LowerBound(inst)
	fmt.Printf("%-34s %10s %10s %8s\n", "policy", "calibr.", "machines", "speed")
	fmt.Printf("%-34s %10d %10d %8d\n", "always-calibrated grid", naive.NumCalibrations(), naive.MachinesUsed(), 1)
	fmt.Printf("%-34s %10d %10d %8d\n", "calibration-aware (Thm 12)", sol.Calibrations, sol.MachinesUsed, 1)
	fmt.Printf("%-34s %10d %10d %8d\n", "calibration-aware (Thm 14)", fast.Calibrations, fast.Schedule.MachinesUsed(), fast.Schedule.Speed)
	fmt.Printf("%-34s %10d %10s %8s\n", "lower bound (any policy)", lb, "-", "-")
	fmt.Printf("\nthe calibration-aware schedules save %.0f%% of calibrations vs the grid\n",
		100*(1-float64(fast.Calibrations)/float64(naive.NumCalibrations())))
}
