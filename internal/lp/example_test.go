package lp_test

import (
	"fmt"

	"calib/internal/lp"
)

// Example solves a tiny diet-style LP with both engines.
func Example() {
	p := lp.NewProblem()
	x := p.AddVar("x", 2) // cost per unit of x
	y := p.AddVar("y", 3)
	p.AddConstraint(lp.GE, 10, lp.Term{Var: x, Coeff: 1}, lp.Term{Var: y, Coeff: 2}) // nutrition
	p.AddConstraint(lp.LE, 8, lp.Term{Var: x, Coeff: 1})                             // supply

	dense, _ := lp.Solve(p)
	rational, _ := lp.SolveRational(p)
	fmt.Printf("dense:    %.1f\n", dense.Objective)
	fmt.Printf("rational: %.1f\n", rational.ObjectiveFloat())
	// Both agree: x=8, y=1 -> 2*8 + 3*1 = 19.
	// Output:
	// dense:    19.0
	// rational: 19.0
}
