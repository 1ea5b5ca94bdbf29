package exact_test

import (
	"fmt"

	"calib/internal/exact"
	"calib/internal/ise"
)

// Example finds the provably optimal schedule for the canonical
// "delay the calibration" instance.
func Example() {
	inst := ise.NewInstance(10, 1)
	inst.AddJob(0, 100, 5)  // flexible
	inst.AddJob(90, 100, 5) // forced late
	res, err := exact.Solve(inst, exact.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println("optimal calibrations:", res.Calibrations)
	fmt.Println("proven:", res.Proven)
	// Output:
	// optimal calibrations: 1
	// proven: true
}
