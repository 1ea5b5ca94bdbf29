// Tradeoff: machine augmentation vs speed augmentation (Theorem 14).
//
// The long-window algorithm normally buys its guarantee with extra
// machines (up to 18m at unit speed). When machines are the scarce
// resource — say the lab owns exactly m testing devices but can run
// them in a faster mode — the paper's Lemma 13 transformation folds
// the 18m-machine schedule onto the original m machines running 36x
// faster, without increasing calibrations. This example runs both
// forms on the same long-window fleet and compares.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"calib"
)

func main() {
	const (
		T        = 10
		machines = 2
	)
	rng := rand.New(rand.NewSource(7))

	// Long-window jobs only (d - r >= 2T): relaxed review windows.
	inst := calib.NewInstance(T, machines)
	for i := 0; i < 10; i++ {
		r := calib.Time(rng.Intn(60))
		p := calib.Time(1 + rng.Intn(T))
		w := calib.Time(2*T + rng.Intn(3*int(T)))
		inst.AddJob(r, r+w, p)
	}

	// Form 1: machine augmentation (Theorem 12).
	sol, err := calib.Solve(inst, nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := calib.Validate(inst, sol.Schedule); err != nil {
		log.Fatalf("solver bug: %v", err)
	}

	// Form 2: speed augmentation (Theorem 14).
	fast, err := calib.SolveWithSpeed(inst)
	if err != nil {
		log.Fatal(err)
	}
	if err := calib.Validate(fast.Scaled, fast.Schedule); err != nil {
		log.Fatalf("speed solver bug: %v", err)
	}

	fmt.Printf("long-window fleet: n=%d jobs, T=%d, m=%d machines\n\n", inst.N(), T, machines)
	fmt.Printf("%-34s %12s %10s %8s\n", "form", "calibrations", "machines", "speed")
	fmt.Printf("%-34s %12d %10d %8d\n", "machine augmentation (Thm 12)",
		sol.Calibrations, sol.MachinesUsed, 1)
	fmt.Printf("%-34s %12d %10d %8d\n", "speed augmentation (Thm 14)",
		fast.Calibrations, fast.Schedule.MachinesUsed(), fast.Schedule.Speed)
	fmt.Printf("\nboth stay within 12x the optimal calibration count; the speed form\n")
	fmt.Printf("never uses more than the %d machines the lab actually owns.\n", machines)
}
