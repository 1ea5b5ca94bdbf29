package replay

import (
	"math/rand"
	"testing"

	"calib/internal/core"
	"calib/internal/ise"
	"calib/internal/workload"
)

func TestReplayFeasible(t *testing.T) {
	in := ise.NewInstance(10, 2)
	in.AddJob(0, 20, 5)
	in.AddJob(0, 20, 5)
	s := ise.NewSchedule(2)
	s.Calibrate(0, 0)
	s.Place(0, 0, 0)
	s.Place(1, 0, 5)
	r := Replay(in, s)
	if !r.Feasible {
		t.Fatalf("feasible schedule rejected: %s", r.Violation)
	}
	if r.JobsCompleted != 2 {
		t.Errorf("completed = %d, want 2", r.JobsCompleted)
	}
	if r.CalibratedTicks != 10 || r.BusyTicks != 10 {
		t.Errorf("ticks = %d/%d, want 10/10", r.BusyTicks, r.CalibratedTicks)
	}
	if r.Utilization != 1.0 {
		t.Errorf("utilization = %v, want 1.0", r.Utilization)
	}
	if len(r.Events) != 5 { // 1 calibrate + 2 starts + 2 finishes
		t.Errorf("events = %d, want 5", len(r.Events))
	}
}

func TestReplayDetectsViolations(t *testing.T) {
	build := func() (*ise.Instance, *ise.Schedule) {
		in := ise.NewInstance(10, 1)
		in.AddJob(2, 20, 5)
		s := ise.NewSchedule(1)
		s.Calibrate(0, 0)
		s.Place(0, 0, 2)
		return in, s
	}
	cases := []struct {
		name   string
		mutate func(in *ise.Instance, s *ise.Schedule)
	}{
		{"early start", func(in *ise.Instance, s *ise.Schedule) { s.Placements[0].Start = 1 }},
		{"late finish", func(in *ise.Instance, s *ise.Schedule) { in.Jobs[0].Deadline = 6 }},
		{"no calibration", func(in *ise.Instance, s *ise.Schedule) { s.Calibrations = nil }},
		{"leaks out of calibration", func(in *ise.Instance, s *ise.Schedule) { s.Placements[0].Start = 6 }},
		{"double placement", func(in *ise.Instance, s *ise.Schedule) { s.Place(0, 0, 2) }},
		{"overlapping calibrations", func(in *ise.Instance, s *ise.Schedule) { s.Calibrate(0, 5) }},
		{"bad machine", func(in *ise.Instance, s *ise.Schedule) { s.Placements[0].Machine = 7 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in, s := build()
			tc.mutate(in, s)
			if r := Replay(in, s); r.Feasible {
				t.Error("violation not detected")
			}
		})
	}
}

// TestReplayAgreesWithValidator is the differential property test: on
// random schedules — feasible witnesses, solver outputs, and randomly
// mutated corruptions of both — the replay simulator and ise.Validate
// must agree on feasibility.
func TestReplayAgreesWithValidator(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	checked, corrupted := 0, 0
	for trial := 0; trial < 60; trial++ {
		inst, witness := workload.Planted(rng, workload.PlantedConfig{
			Machines:               1 + rng.Intn(2),
			T:                      8,
			CalibrationsPerMachine: 1 + rng.Intn(3),
			Window:                 workload.AnyWindow,
		})
		var sched *ise.Schedule
		if rng.Intn(2) == 0 {
			sched = witness
		} else {
			res, err := core.Solve(inst, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sched = res.Schedule
		}
		// Randomly corrupt half of the schedules.
		if rng.Intn(2) == 0 && len(sched.Placements) > 0 {
			corrupted++
			switch rng.Intn(4) {
			case 0:
				i := rng.Intn(len(sched.Placements))
				sched.Placements[i].Start += ise.Time(rng.Intn(7) - 3)
			case 1:
				i := rng.Intn(len(sched.Placements))
				sched.Placements[i].Machine = rng.Intn(sched.Machines + 1)
			case 2:
				if len(sched.Calibrations) > 0 {
					i := rng.Intn(len(sched.Calibrations))
					sched.Calibrations[i].Start += ise.Time(rng.Intn(9) - 4)
				}
			case 3:
				i := rng.Intn(len(sched.Placements))
				sched.Placements = append(sched.Placements, sched.Placements[i])
			}
		}
		checked++
		vErr := ise.Validate(inst, sched)
		rep := Replay(inst, sched)
		if (vErr == nil) != rep.Feasible {
			t.Fatalf("trial %d: validator says %v, simulator says feasible=%v (%s)",
				trial, vErr, rep.Feasible, rep.Violation)
		}
	}
	if corrupted == 0 {
		t.Error("no corrupted schedules generated; test too weak")
	}
	t.Logf("checked %d schedules (%d corrupted)", checked, corrupted)
}

func TestReplayUtilizationOfSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst, _ := workload.Mixed(rng, 12, 1, 10, 0.5)
	res, err := core.Solve(inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := Replay(inst, res.Schedule)
	if !r.Feasible {
		t.Fatalf("solver schedule rejected: %s", r.Violation)
	}
	if r.Utilization <= 0 || r.Utilization > 1 {
		t.Errorf("utilization = %v, want in (0, 1]", r.Utilization)
	}
	if r.JobsCompleted != inst.N() {
		t.Errorf("completed %d of %d jobs", r.JobsCompleted, inst.N())
	}
}

func TestEventKindString(t *testing.T) {
	for _, k := range []EventKind{EvCalibrate, EvStart, EvFinish, EventKind(9)} {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", int(k))
		}
	}
}

// TestReplayNoWrapNearMaxInt64 replays a job with window [0, 20)
// placed at 2^63-2 inside a calibration at 2^63-4. Both ends wrap
// around int64; a wrapped comparison would call the run on time and
// calibrated.
func TestReplayNoWrapNearMaxInt64(t *testing.T) {
	const top = ise.Time(1<<63 - 1)
	in := ise.NewInstance(10, 1)
	in.AddJob(0, 20, 5)
	s := ise.NewSchedule(1)
	s.Calibrate(0, top-3)
	s.Place(0, 0, top-1)
	if r := Replay(in, s); r.Feasible {
		t.Fatal("run at 2^63-2 replayed as feasible")
	}
	s.Placements[0].Start = 10
	if r := Replay(in, s); r.Feasible {
		t.Fatal("run under a calibration at 2^63-4 replayed as feasible")
	}
	s.Calibrate(0, -top-1)
	s.Calibrate(0, 5)
	if r := Replay(in, s); !r.Feasible {
		t.Fatalf("calibrations at -2^63, 5 and 2^63-4: %s", r.Violation)
	}
}
