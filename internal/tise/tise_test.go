package tise

import (
	"math"
	"math/rand"
	"testing"

	"calib/internal/ise"
	"calib/internal/workload"
)

func TestCalibrationPoints(t *testing.T) {
	in := ise.NewInstance(10, 1)
	in.AddJob(0, 25, 5) // feasible points in [0, 15]
	in.AddJob(7, 30, 3) // feasible points in [7, 20]
	pts := CalibrationPoints(in)
	if len(pts) == 0 {
		t.Fatal("no calibration points")
	}
	// Sorted, deduplicated, and every point usable by some job.
	for i := 1; i < len(pts); i++ {
		if pts[i] <= pts[i-1] {
			t.Fatalf("points not strictly increasing: %v", pts)
		}
	}
	for _, p := range pts {
		if !usable(in, p) {
			t.Errorf("unusable point %d survived pruning", p)
		}
	}
	// The grid r_j + kT must be present where usable: 0, 10 from job 0;
	// 7, 17 from job 1.
	want := map[ise.Time]bool{0: true, 10: true, 7: true, 17: true}
	got := map[ise.Time]bool{}
	for _, p := range pts {
		got[p] = true
	}
	for w := range want {
		if !got[w] {
			t.Errorf("expected point %d missing from %v", w, pts)
		}
	}
	// 27 = 7 + 2*10 is on the grid but usable by no job (> 20 and > 15).
	if got[27] {
		t.Errorf("point 27 should have been pruned: %v", pts)
	}
}

func TestFeasiblePredicate(t *testing.T) {
	j := ise.Job{Release: 5, Deadline: 30, Processing: 4}
	const T = 10
	if !Feasible(T, j, 5) || !Feasible(T, j, 20) || !Feasible(T, j, 12) {
		t.Error("boundary/inner points should be feasible")
	}
	if Feasible(T, j, 4) || Feasible(T, j, 21) {
		t.Error("points outside [r, d-T] should be infeasible")
	}
}

func TestSolveLPSingleJob(t *testing.T) {
	in := ise.NewInstance(10, 1)
	in.AddJob(0, 20, 6)
	for _, eng := range []Engine{Float64, Rational} {
		frac, err := SolveLP(in, 3, eng)
		if err != nil {
			t.Fatalf("%v: %v", eng, err)
		}
		// Any solution must have total C >= total X = 1, and C = 1 at a
		// feasible point is optimal.
		if math.Abs(frac.Objective-1) > 1e-6 {
			t.Errorf("%v: objective = %v, want 1", eng, frac.Objective)
		}
	}
}

func TestSolveLPSharedCalibration(t *testing.T) {
	// Three jobs, same window, total work <= T: still only one
	// calibration of LP mass needed.
	in := ise.NewInstance(10, 1)
	in.AddJob(0, 20, 3)
	in.AddJob(0, 20, 3)
	in.AddJob(0, 20, 4)
	frac, err := SolveLP(in, 3, Float64)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(frac.Objective-1) > 1e-6 {
		t.Errorf("objective = %v, want 1", frac.Objective)
	}
}

func TestSolveLPWorkBound(t *testing.T) {
	// Two jobs of work 7 with one shared window: total work 14 > T=10,
	// so C >= 14/10. The optimum is exactly 1.4 (fractional!).
	in := ise.NewInstance(10, 2)
	in.AddJob(0, 20, 7)
	in.AddJob(0, 20, 7)
	frac, err := SolveLP(in, 6, Float64)
	if err != nil {
		t.Fatal(err)
	}
	if frac.Objective < 1.4-1e-6 {
		t.Errorf("objective = %v, want >= 1.4", frac.Objective)
	}
}

func TestSolveLPInfeasible(t *testing.T) {
	// m' = 1 machine and three jobs with p = T in [0, 20): each fits
	// only calibrations starting in [0, 10], and constraints (3)-(4)
	// need C mass 3 there, while constraint (1) allows 1 at point 0
	// plus 1 in (0, 10]. (Two such jobs are LP-feasible.) Both engines
	// must reach the phase-1 infeasible verdict.
	in := ise.NewInstance(10, 1)
	in.AddJob(0, 20, 10)
	in.AddJob(0, 20, 10)
	in.AddJob(0, 20, 10)
	for _, eng := range []Engine{Float64, Rational} {
		_, err := SolveLP(in, 1, eng)
		if _, ok := err.(*InfeasibleError); !ok {
			t.Errorf("%v: error = %v, want *InfeasibleError", eng, err)
		}
	}
}

func TestRoundCalibrationsFigure2(t *testing.T) {
	points := []ise.Time{0, 1, 2, 3, 4}
	c := []float64{0.3, 0.4, 0.1, 0.9, 0}
	got := RoundCalibrations(points, c)
	want := []ise.Time{1, 3, 3}
	if len(got) != len(want) {
		t.Fatalf("rounded = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rounded = %v, want %v", got, want)
		}
	}
}

func TestRoundCalibrationsExactHalves(t *testing.T) {
	points := []ise.Time{0, 5, 10}
	c := []float64{0.5, 0.5, 1.0}
	got := RoundCalibrations(points, c)
	want := []ise.Time{0, 5, 10, 10}
	if len(got) != len(want) {
		t.Fatalf("rounded = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rounded = %v, want %v", got, want)
		}
	}
}

func TestAssignRoundRobin(t *testing.T) {
	times := []ise.Time{0, 0, 0, 10, 10, 10}
	s, err := AssignRoundRobin(times, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumCalibrations() != 6 || s.Machines != 3 {
		t.Fatalf("schedule %+v", s)
	}
	// Overlap when machines are too few.
	if _, err := AssignRoundRobin([]ise.Time{0, 3}, 1, 10); err == nil {
		t.Error("expected overlap error")
	}
}

func TestAssignJobsEDFSimple(t *testing.T) {
	in := ise.NewInstance(10, 1)
	in.AddJob(0, 20, 4)
	in.AddJob(0, 20, 4)
	in.AddJob(0, 25, 4)
	cal := ise.NewSchedule(1)
	cal.Calibrate(0, 0)
	cal.Calibrate(0, 10)
	out, err := AssignJobsEDF(in, cal)
	if err != nil {
		t.Fatal(err)
	}
	if err := ise.ValidateTISE(in, out); err != nil {
		t.Fatalf("EDF output not TISE-feasible: %v", err)
	}
	if out.Machines != 2 {
		t.Errorf("machines = %d, want 2 (mirrored)", out.Machines)
	}
}

func TestAssignJobsEDFUnschedulable(t *testing.T) {
	in := ise.NewInstance(10, 1)
	in.AddJob(0, 20, 10)
	in.AddJob(0, 20, 10)
	in.AddJob(0, 20, 10)
	in.AddJob(0, 20, 10)
	in.AddJob(0, 20, 10)
	cal := ise.NewSchedule(1) // mirrors to 2 machines x 1 calibration
	cal.Calibrate(0, 0)
	_, err := AssignJobsEDF(in, cal)
	ue, ok := err.(*UnscheduledError)
	if !ok {
		t.Fatalf("error = %v, want UnscheduledError", err)
	}
	if len(ue.Jobs) != 3 {
		t.Errorf("unscheduled = %v, want 3 jobs", ue.Jobs)
	}
}

func TestTransformToTISE(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		inst, witness := workload.Planted(rng, workload.PlantedConfig{
			Machines:               1 + rng.Intn(3),
			T:                      10,
			CalibrationsPerMachine: 1 + rng.Intn(4),
			Window:                 workload.LongWindow,
		})
		if err := ise.Validate(inst, witness); err != nil {
			t.Fatalf("witness infeasible: %v", err)
		}
		out, err := TransformToTISE(inst, witness)
		if err != nil {
			t.Fatal(err)
		}
		if err := ise.ValidateTISE(inst, out); err != nil {
			t.Fatalf("transformed schedule not TISE-feasible: %v", err)
		}
		if got, want := out.NumCalibrations(), 3*witness.NumCalibrations(); got != want {
			t.Errorf("calibrations = %d, want exactly %d (Lemma 2)", got, want)
		}
		if out.Machines != 3*witness.Machines {
			t.Errorf("machines = %d, want %d", out.Machines, 3*witness.Machines)
		}
	}
}

func TestTransformToTISERejectsShort(t *testing.T) {
	in := ise.NewInstance(10, 1)
	in.AddJob(0, 15, 5) // short window
	s := ise.NewSchedule(1)
	s.Calibrate(0, 0)
	s.Place(0, 0, 0)
	if _, err := TransformToTISE(in, s); err == nil {
		t.Error("short-window job accepted")
	}
}

// TestSolveEndToEnd is the core property test of the long-window
// algorithm: on planted long-window instances, Solve must produce a
// TISE-feasible schedule within Theorem 12's bounds (<= 12x the
// witness calibrations — the witness upper-bounds OPT — and <= 18m
// machines).
func TestSolveEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		m := 1 + rng.Intn(2)
		inst, witness := workload.Planted(rng, workload.PlantedConfig{
			Machines:               m,
			T:                      10,
			CalibrationsPerMachine: 1 + rng.Intn(3),
			Window:                 workload.LongWindow,
		})
		res, err := Solve(inst, Options{})
		if err != nil {
			t.Fatalf("trial %d (n=%d, m=%d): %v", trial, inst.N(), m, err)
		}
		if err := ise.ValidateTISE(inst, res.Schedule); err != nil {
			t.Fatalf("trial %d: schedule not TISE-feasible: %v", trial, err)
		}
		if got, bound := res.Schedule.NumCalibrations(), 12*witness.NumCalibrations(); got > bound {
			t.Errorf("trial %d: calibrations = %d > 12*witness = %d", trial, got, bound)
		}
		if res.Schedule.Machines > 18*m {
			t.Errorf("trial %d: machines = %d > 18m = %d", trial, res.Schedule.Machines, 18*m)
		}
		// The LP objective lower-bounds TISE-OPT(3m) and the rounding
		// at most doubles it.
		if float64(len(res.RoundedTimes)) > 2*res.LP.Objective+1e-6 {
			t.Errorf("trial %d: rounded %d calibrations from LP mass %v", trial, len(res.RoundedTimes), res.LP.Objective)
		}
	}
}

func TestSolveRationalEngineAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst, _ := workload.Planted(rng, workload.PlantedConfig{
		Machines:               1,
		T:                      8,
		CalibrationsPerMachine: 2,
		Window:                 workload.LongWindow,
	})
	f, err := SolveLP(inst, 3, Float64)
	if err != nil {
		t.Fatal(err)
	}
	r, err := SolveLP(inst, 3, Rational)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Objective-r.Objective) > 1e-6*(1+r.Objective) {
		t.Errorf("engines disagree: float %v, rational %v", f.Objective, r.Objective)
	}
}

// TestAugmentedRoundInvariants property-tests Lemma 5 and Corollary 6
// on random planted instances: y_j <= carryover, sum y_j p_j <=
// carryover*T, every job's fractional coverage >= 1, and per-
// calibration work <= T.
func TestAugmentedRoundInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 15; trial++ {
		inst, _ := workload.Planted(rng, workload.PlantedConfig{
			Machines:               1 + rng.Intn(2),
			T:                      10,
			CalibrationsPerMachine: 1 + rng.Intn(3),
			Window:                 workload.LongWindow,
		})
		frac, err := SolveLP(inst, 3*inst.M, Float64)
		if err != nil {
			t.Fatal(err)
		}
		aug, err := AugmentedRound(inst, frac)
		if err != nil {
			t.Fatal(err)
		}
		const tol = 1e-5
		if aug.MaxYMinusCarry > tol {
			t.Errorf("trial %d: Lemma 5 violated: max(y_j - carryover) = %v", trial, aug.MaxYMinusCarry)
		}
		if aug.MaxWorkMinusCarry > tol*float64(inst.T) {
			t.Errorf("trial %d: Lemma 5 work bound violated: %v", trial, aug.MaxWorkMinusCarry)
		}
		for j, cov := range aug.Coverage {
			if cov < 1-tol {
				t.Errorf("trial %d: Corollary 6 violated: job %d covered %v < 1", trial, j, cov)
			}
		}
		if aug.MaxCalWork > float64(inst.T)+tol {
			t.Errorf("trial %d: Corollary 6 work bound violated: %v > T", trial, aug.MaxCalWork)
		}
		// Algorithm 3 must emit the same calibration schedule as
		// Algorithm 1.
		times := RoundCalibrations(frac.Points, frac.C)
		if len(times) != len(aug.Calibrations) {
			t.Fatalf("trial %d: Algorithm 3 emitted %d calibrations, Algorithm 1 emitted %d",
				trial, len(aug.Calibrations), len(times))
		}
		for i := range times {
			if times[i] != aug.Calibrations[i].Time {
				t.Errorf("trial %d: calibration %d at %d vs %d", trial, i, aug.Calibrations[i].Time, times[i])
			}
		}
	}
}

// TestSolveWithSpeed verifies Theorem 14: at most m machines at speed
// 36 with at most as many calibrations as the intermediate TISE
// schedule.
func TestSolveWithSpeed(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 8; trial++ {
		m := 1 + rng.Intn(2)
		inst, witness := workload.Planted(rng, workload.PlantedConfig{
			Machines:               m,
			T:                      10,
			CalibrationsPerMachine: 1 + rng.Intn(2),
			Window:                 workload.LongWindow,
		})
		res, err := SolveWithSpeed(inst, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := ise.Validate(res.Scaled, res.Schedule); err != nil {
			t.Fatalf("trial %d: speed schedule infeasible: %v", trial, err)
		}
		if res.Schedule.Speed != 36 {
			t.Errorf("trial %d: speed = %d, want 36", trial, res.Schedule.Speed)
		}
		if used := res.Schedule.MachinesUsed(); used > m {
			t.Errorf("trial %d: uses %d machines, want <= %d", trial, used, m)
		}
		if got, mid := res.Schedule.NumCalibrations(), res.Long.Schedule.NumCalibrations(); got > mid {
			t.Errorf("trial %d: %d calibrations after transform > %d before (Lemma 13)", trial, got, mid)
		}
		if got, bound := res.Schedule.NumCalibrations(), 12*witness.NumCalibrations(); got > bound {
			t.Errorf("trial %d: calibrations = %d > 12*witness = %d", trial, got, bound)
		}
	}
}

func TestEngineString(t *testing.T) {
	if Float64.String() == "" || Rational.String() == "" || Engine(9).String() == "" {
		t.Error("empty Engine string")
	}
}
