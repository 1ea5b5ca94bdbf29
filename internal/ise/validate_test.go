package ise

import "testing"

// feasibleFixture returns a small instance and a hand-built feasible
// schedule for it: two machines, three jobs.
func feasibleFixture() (*Instance, *Schedule) {
	in := NewInstance(10, 2)
	in.AddJob(0, 20, 5)  // job 0
	in.AddJob(0, 20, 5)  // job 1
	in.AddJob(8, 30, 10) // job 2
	s := NewSchedule(2)
	s.Calibrate(0, 0)
	s.Calibrate(1, 10)
	s.Place(0, 0, 0)
	s.Place(1, 0, 5)
	s.Place(2, 1, 10)
	return in, s
}

func TestValidateFeasible(t *testing.T) {
	in, s := feasibleFixture()
	if err := Validate(in, s); err != nil {
		t.Fatalf("feasible schedule rejected: %v", err)
	}
}

func TestValidateViolations(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(in *Instance, s *Schedule)
		kind   ViolationKind
	}{
		{"job before release", func(in *Instance, s *Schedule) {
			s.Placements[2].Start = 7 // release is 8
		}, ViolationWindow},
		{"job past deadline", func(in *Instance, s *Schedule) {
			in.Jobs[2].Deadline = 19
		}, ViolationWindow},
		{"missing placement", func(in *Instance, s *Schedule) {
			s.Placements = s.Placements[:2]
		}, ViolationMissing},
		{"duplicate placement", func(in *Instance, s *Schedule) {
			s.Place(0, 1, 10)
		}, ViolationMissing},
		{"unknown job", func(in *Instance, s *Schedule) {
			s.Placements[0].Job = 99
		}, ViolationMissing},
		{"job overlap", func(in *Instance, s *Schedule) {
			s.Placements[1].Start = 3 // overlaps job 0 on machine 0
		}, ViolationJobOverlap},
		{"uncalibrated run", func(in *Instance, s *Schedule) {
			s.Placements[2].Machine = 0 // machine 0 calibrated only at 0
			s.Placements[2].Start = 10
			s.Machines = 2
		}, ViolationUncalibrated},
		{"run crosses calibration end", func(in *Instance, s *Schedule) {
			s.Placements[1].Start = 8 // runs [8,13) but calibration is [0,10)
			in.Jobs[1].Deadline = 30
		}, ViolationUncalibrated},
		{"calibrations too close", func(in *Instance, s *Schedule) {
			s.Calibrate(0, 5)
		}, ViolationCalibrationOverlap},
		{"machine out of range", func(in *Instance, s *Schedule) {
			s.Placements[0].Machine = 5
		}, ViolationMachineRange},
		{"calibration machine out of range", func(in *Instance, s *Schedule) {
			s.Calibrations[0].Machine = -1
		}, ViolationMachineRange},
		{"bad speed", func(in *Instance, s *Schedule) {
			s.Speed = 0
		}, ViolationSpeed},
		{"speed does not divide processing", func(in *Instance, s *Schedule) {
			s.Speed = 3
		}, ViolationSpeed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in, s := feasibleFixture()
			tc.mutate(in, s)
			err := Validate(in, s)
			if err == nil {
				t.Fatal("violation not detected")
			}
			kind, ok := KindOf(err)
			if !ok {
				t.Fatalf("error is not a ValidationError: %v", err)
			}
			if kind != tc.kind {
				t.Errorf("violation kind = %v, want %v (err: %v)", kind, tc.kind, err)
			}
		})
	}
}

func TestValidateSpeedAugmented(t *testing.T) {
	in := NewInstance(10, 1)
	in.AddJob(0, 20, 6)
	in.AddJob(0, 20, 4)
	s := NewSchedule(1)
	s.Speed = 2
	s.Calibrate(0, 0)
	s.Place(0, 0, 0) // runs [0,3) at speed 2
	s.Place(1, 0, 3) // runs [3,5)
	if err := Validate(in, s); err != nil {
		t.Fatalf("speed-2 schedule rejected: %v", err)
	}
}

func TestValidateTISE(t *testing.T) {
	in := NewInstance(10, 1)
	in.AddJob(5, 30, 5) // TISE-feasible calibrations start in [5, 20]
	s := NewSchedule(1)
	s.Calibrate(0, 4)
	s.Place(0, 0, 5) // valid ISE: runs [5,10) inside calibration [4,14)
	if err := Validate(in, s); err != nil {
		t.Fatalf("ISE validation failed: %v", err)
	}
	err := ValidateTISE(in, s)
	if err == nil {
		t.Fatal("TISE violation not detected: calibration starts before release")
	}
	if kind, _ := KindOf(err); kind != ViolationTISE {
		t.Errorf("kind = %v, want %v", kind, ViolationTISE)
	}

	// Move the calibration inside the window: now TISE-feasible.
	s2 := NewSchedule(1)
	s2.Calibrate(0, 5)
	s2.Place(0, 0, 5)
	if err := ValidateTISE(in, s2); err != nil {
		t.Errorf("TISE-feasible schedule rejected: %v", err)
	}

	// Calibration ending after the deadline violates TISE even though
	// the job itself completes in time.
	s3 := NewSchedule(1)
	s3.Calibrate(0, 21) // [21,31) but deadline is 30
	s3.Place(0, 0, 21)
	if err := Validate(in, s3); err != nil {
		t.Fatalf("ISE validation failed: %v", err)
	}
	if err := ValidateTISE(in, s3); err == nil {
		t.Error("TISE violation not detected: calibration ends past deadline")
	}
}

func TestValidateBackToBackCalibrations(t *testing.T) {
	// Calibrations exactly T apart are legal (the machine is usable on
	// [0,T) and [T,2T) with no gap).
	in := NewInstance(10, 1)
	in.AddJob(0, 10, 10)
	in.AddJob(10, 20, 10)
	s := NewSchedule(1)
	s.Calibrate(0, 0)
	s.Calibrate(0, 10)
	s.Place(0, 0, 0)
	s.Place(1, 0, 10)
	if err := Validate(in, s); err != nil {
		t.Fatalf("back-to-back calibrations rejected: %v", err)
	}
}

func TestValidateJobTouchingCalibrationEnd(t *testing.T) {
	// A job ending exactly at calibration end is contained.
	in := NewInstance(10, 1)
	in.AddJob(0, 20, 4)
	s := NewSchedule(1)
	s.Calibrate(0, 2)
	s.Place(0, 0, 8) // runs [8,12), calibration [2,12)
	if err := Validate(in, s); err != nil {
		t.Fatalf("job touching calibration end rejected: %v", err)
	}
	// One tick later it leaks out.
	s.Placements[0].Start = 9
	if err := Validate(in, s); err == nil {
		t.Error("job leaking past calibration end accepted")
	}
}

func TestScheduleHelpers(t *testing.T) {
	in, s := feasibleFixture()
	if got := s.NumCalibrations(); got != 2 {
		t.Errorf("NumCalibrations = %d, want 2", got)
	}
	if got := s.MachinesUsed(); got != 2 {
		t.Errorf("MachinesUsed = %d, want 2", got)
	}
	st := s.Stat(in)
	if st.Calibrations != 2 || st.Machines != 2 || st.Speed != 1 || st.MaxBusy != 20 {
		t.Errorf("Stat = %+v", st)
	}
	clone := s.Clone()
	clone.Calibrate(0, 100)
	if s.NumCalibrations() != 2 {
		t.Error("Clone shares calibration storage with original")
	}
}

func TestMergeAndRenumber(t *testing.T) {
	// Two single-machine schedules for a partitioned instance.
	parent := NewInstance(10, 2)
	parent.AddJob(0, 20, 5) // long
	parent.AddJob(0, 12, 5) // short
	long, short, longIDs, shortIDs := parent.Partition()

	ls := NewSchedule(1)
	ls.Calibrate(0, 0)
	ls.Place(0, 0, 0)
	ls.RenumberJobs(longIDs)

	ss := NewSchedule(1)
	ss.Calibrate(0, 2)
	ss.Place(0, 0, 2)
	ss.RenumberJobs(shortIDs)

	merged := NewSchedule(0)
	merged.Merge(ls, 0)
	merged.Merge(ss, long.N()*0+1) // short machines start after long's 1 machine
	if err := Validate(parent, merged); err != nil {
		t.Fatalf("merged schedule infeasible: %v", err)
	}
	if merged.Machines != 2 {
		t.Errorf("merged machines = %d, want 2", merged.Machines)
	}
	_ = short
}

func TestMergeSpeedMismatchPanics(t *testing.T) {
	a := NewSchedule(1)
	b := NewSchedule(1)
	b.Speed = 2
	defer func() {
		if recover() == nil {
			t.Error("Merge with mismatched speeds did not panic")
		}
	}()
	a.Merge(b, 1)
}

func TestSortCanonicalDeterminism(t *testing.T) {
	s := NewSchedule(2)
	s.Calibrate(1, 5)
	s.Calibrate(0, 7)
	s.Calibrate(0, 1)
	s.Place(3, 1, 9)
	s.Place(1, 0, 2)
	s.Place(2, 0, 2)
	s.SortCanonical()
	if s.Calibrations[0] != (Calibration{Machine: 0, Start: 1}) {
		t.Errorf("first calibration = %+v", s.Calibrations[0])
	}
	if s.Placements[0] != (Placement{Job: 1, Machine: 0, Start: 2}) {
		t.Errorf("first placement = %+v", s.Placements[0])
	}
	if s.Placements[1] != (Placement{Job: 2, Machine: 0, Start: 2}) {
		t.Errorf("second placement = %+v", s.Placements[1])
	}
}

func TestDurationPanicsOnIndivisible(t *testing.T) {
	s := NewSchedule(1)
	s.Speed = 2
	defer func() {
		if recover() == nil {
			t.Error("Duration did not panic on indivisible processing time")
		}
	}()
	s.Duration(5)
}

func TestViolationKindString(t *testing.T) {
	kinds := []ViolationKind{
		ViolationWindow, ViolationJobOverlap, ViolationUncalibrated,
		ViolationCalibrationOverlap, ViolationMissing,
		ViolationMachineRange, ViolationSpeed, ViolationTISE,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has empty or duplicate string %q", int(k), s)
		}
		seen[s] = true
	}
	if got := ViolationKind(99).String(); got != "ViolationKind(99)" {
		t.Errorf("unknown kind string = %q", got)
	}
}

// TestValidateNoWrapNearMaxInt64 places a job with window [0, 20) at
// 2^63-2, inside a calibration at 2^63-4: start+p and the calibration's
// end both wrap around int64, and a wrapped comparison would accept
// the schedule. The run lies outside the window, and an uncalibrated
// run must be caught the same way.
func TestValidateNoWrapNearMaxInt64(t *testing.T) {
	const top = Time(1<<63 - 1)
	in := NewInstance(10, 1)
	in.AddJob(0, 20, 5)
	s := NewSchedule(1)
	s.Calibrate(0, top-3)
	s.Place(0, 0, top-1)
	if kind, ok := KindOf(Validate(in, s)); !ok || kind != ViolationWindow {
		t.Fatalf("start 2^63-2: got %v, want a %v violation", Validate(in, s), ViolationWindow)
	}
	// In the window, but the only calibration starts near 2^63 and
	// so ends (wrapped) below the run's end.
	s.Placements[0].Start = 10
	if kind, ok := KindOf(Validate(in, s)); !ok || kind != ViolationUncalibrated {
		t.Fatalf("calibration at 2^63-4: got %v, want a %v violation", Validate(in, s), ViolationUncalibrated)
	}
	// Calibrations at both ends of int64 are far apart, not
	// overlapping: their difference wraps as an int64.
	s.Calibrate(0, -top-1)
	s.Calibrate(0, 5)
	if err := Validate(in, s); err != nil {
		t.Fatalf("calibrations at -2^63, 5 and 2^63-4: %v", err)
	}
}
