package ise

import (
	"bytes"
	"testing"
)

func TestJobClassification(t *testing.T) {
	const T = 10
	cases := []struct {
		name string
		job  Job
		long bool
	}{
		{"window exactly 2T is long", Job{Release: 0, Deadline: 20, Processing: 5}, true},
		{"window just under 2T is short", Job{Release: 0, Deadline: 19, Processing: 5}, false},
		{"tight window is short", Job{Release: 3, Deadline: 8, Processing: 5}, false},
		{"huge window is long", Job{Release: 0, Deadline: 1000, Processing: 10}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.job.IsLong(T); got != tc.long {
				t.Errorf("IsLong(%d) = %v, want %v for %v", int64(T), got, tc.long, tc.job)
			}
		})
	}
}

func TestJobAccessors(t *testing.T) {
	j := Job{ID: 2, Release: 3, Deadline: 17, Processing: 5}
	if got := j.WindowLength(); got != 14 {
		t.Errorf("WindowLength = %d, want 14", got)
	}
	if got := j.Slack(); got != 9 {
		t.Errorf("Slack = %d, want 9", got)
	}
	if got := j.String(); got != "job 2 [r=3,d=17,p=5)" {
		t.Errorf("String = %q", got)
	}
}

func TestInstanceValidate(t *testing.T) {
	valid := NewInstance(10, 2)
	valid.AddJob(0, 20, 5)
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	edge := NewInstance(MaxTime/3, 1)
	edge.AddJob(0, MaxTime, 5)
	edge.AddJob(0, 10, 5)
	if err := edge.Validate(); err != nil {
		t.Fatalf("instance at the MaxTime bounds rejected: %v", err)
	}

	cases := []struct {
		name  string
		build func() *Instance
	}{
		{"T too small", func() *Instance {
			in := NewInstance(1, 1)
			in.AddJob(0, 5, 1)
			return in
		}},
		{"no machines", func() *Instance {
			in := NewInstance(5, 0)
			in.AddJob(0, 5, 1)
			return in
		}},
		{"zero processing", func() *Instance {
			in := NewInstance(5, 1)
			in.AddJob(0, 5, 0)
			return in
		}},
		{"processing exceeds T", func() *Instance {
			in := NewInstance(5, 1)
			in.AddJob(0, 20, 6)
			return in
		}},
		{"window too short", func() *Instance {
			in := NewInstance(5, 1)
			in.AddJob(0, 3, 4)
			return in
		}},
		{"bad job ID", func() *Instance {
			in := NewInstance(5, 1)
			in.AddJob(0, 5, 1)
			in.Jobs[0].ID = 7
			return in
		}},
		// r + p wraps around int64 and would pass d >= r + p.
		{"window near 2^63", func() *Instance {
			in := NewInstance(10, 1)
			in.AddJob(1<<63-3, 1<<63-1, 5)
			return in
		}},
		{"release below -MaxTime", func() *Instance {
			in := NewInstance(10, 1)
			in.AddJob(-MaxTime-1, 0, 5)
			return in
		}},
		{"deadline above MaxTime", func() *Instance {
			in := NewInstance(10, 1)
			in.AddJob(0, MaxTime+1, 5)
			return in
		}},
		{"span above MaxTime", func() *Instance {
			in := NewInstance(10, 1)
			in.AddJob(-MaxTime, -MaxTime+20, 5)
			in.AddJob(10, 30, 5)
			return in
		}},
		{"T*(n+1) above MaxTime", func() *Instance {
			in := NewInstance(MaxTime/2, 1)
			in.AddJob(0, 10, 5)
			in.AddJob(0, 10, 5)
			return in
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.build().Validate(); err == nil {
				t.Error("invalid instance accepted")
			}
		})
	}
}

func TestPartition(t *testing.T) {
	in := NewInstance(10, 3)
	in.AddJob(0, 20, 5)  // long (window = 2T)
	in.AddJob(0, 15, 5)  // short
	in.AddJob(5, 40, 10) // long
	in.AddJob(2, 12, 3)  // short

	long, short, longIDs, shortIDs := in.Partition()
	if long.N() != 2 || short.N() != 2 {
		t.Fatalf("partition sizes = %d,%d, want 2,2", long.N(), short.N())
	}
	wantLong := []int{0, 2}
	wantShort := []int{1, 3}
	for i, id := range longIDs {
		if id != wantLong[i] {
			t.Errorf("longIDs[%d] = %d, want %d", i, id, wantLong[i])
		}
	}
	for i, id := range shortIDs {
		if id != wantShort[i] {
			t.Errorf("shortIDs[%d] = %d, want %d", i, id, wantShort[i])
		}
	}
	// Sub-instance jobs are renumbered contiguously and valid.
	if err := long.Validate(); err != nil {
		t.Errorf("long sub-instance invalid: %v", err)
	}
	if err := short.Validate(); err != nil {
		t.Errorf("short sub-instance invalid: %v", err)
	}
	if long.Jobs[1].Release != 5 || long.Jobs[1].Deadline != 40 {
		t.Errorf("long job 1 window = [%d,%d), want [5,40)", long.Jobs[1].Release, long.Jobs[1].Deadline)
	}
	if long.T != in.T || long.M != in.M {
		t.Errorf("partition must preserve T and M")
	}
}

func TestScale(t *testing.T) {
	in := NewInstance(4, 2)
	in.AddJob(1, 9, 3)
	out := in.Scale(3)
	if out.T != 12 {
		t.Errorf("scaled T = %d, want 12", out.T)
	}
	j := out.Jobs[0]
	if j.Release != 3 || j.Deadline != 27 || j.Processing != 9 {
		t.Errorf("scaled job = %v, want [r=3,d=27,p=9)", j)
	}
	if err := out.Validate(); err != nil {
		t.Errorf("scaled instance invalid: %v", err)
	}
	// Original unchanged.
	if in.Jobs[0].Release != 1 || in.T != 4 {
		t.Error("Scale mutated the original instance")
	}
}

func TestScalePanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Scale(0) did not panic")
		}
	}()
	NewInstance(4, 1).Scale(0)
}

func TestSpanAndWork(t *testing.T) {
	in := NewInstance(10, 1)
	if lo, hi := in.Span(); lo != 0 || hi != 0 {
		t.Errorf("empty span = [%d,%d), want [0,0)", lo, hi)
	}
	in.AddJob(5, 30, 4)
	in.AddJob(2, 25, 6)
	lo, hi := in.Span()
	if lo != 2 || hi != 30 {
		t.Errorf("span = [%d,%d), want [2,30)", lo, hi)
	}
	if w := in.TotalWork(); w != 10 {
		t.Errorf("TotalWork = %d, want 10", w)
	}
}

func TestReleaseTimes(t *testing.T) {
	in := NewInstance(10, 1)
	in.AddJob(5, 30, 4)
	in.AddJob(2, 25, 6)
	in.AddJob(5, 40, 1)
	got := in.ReleaseTimes()
	want := []Time{2, 5}
	if len(got) != len(want) {
		t.Fatalf("ReleaseTimes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ReleaseTimes = %v, want %v", got, want)
		}
	}
}

func TestInstanceJSONRoundTrip(t *testing.T) {
	in := NewInstance(10, 2)
	in.AddJob(0, 20, 5)
	in.AddJob(3, 14, 4)
	var buf bytes.Buffer
	if err := WriteInstance(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := ReadInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.T != in.T || got.M != in.M || got.N() != in.N() {
		t.Fatalf("round trip mismatch: got %+v", got)
	}
	for i := range in.Jobs {
		if got.Jobs[i] != in.Jobs[i] {
			t.Errorf("job %d: got %v, want %v", i, got.Jobs[i], in.Jobs[i])
		}
	}
}

func TestReadInstanceRejectsInvalid(t *testing.T) {
	bad := `{"t": 1, "m": 1, "jobs": []}`
	if _, err := ReadInstance(bytes.NewReader([]byte(bad))); err == nil {
		t.Error("ReadInstance accepted T=1")
	}
	if _, err := ReadInstance(bytes.NewReader([]byte("not json"))); err == nil {
		t.Error("ReadInstance accepted garbage")
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	s := NewSchedule(2)
	s.Calibrate(0, 5)
	s.Place(0, 0, 6)
	var buf bytes.Buffer
	if err := WriteSchedule(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSchedule(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Machines != 2 || got.Speed != 1 || len(got.Calibrations) != 1 || len(got.Placements) != 1 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestInstanceStats(t *testing.T) {
	in := NewInstance(10, 2)
	in.AddJob(0, 30, 5)  // long
	in.AddJob(5, 20, 3)  // short
	in.AddJob(10, 45, 8) // long
	st := in.Stats()
	if st.N != 3 || st.LongJobs != 2 || st.ShortJobs != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.TotalWork != 16 || st.MinProc != 3 || st.MaxProc != 8 {
		t.Errorf("work stats = %+v", st)
	}
	if st.UnitJobs {
		t.Error("non-unit instance reported as unit")
	}
	if st.SpanLo != 0 || st.SpanHi != 45 {
		t.Errorf("span = [%d, %d)", st.SpanLo, st.SpanHi)
	}
	if st.String() == "" {
		t.Error("empty String()")
	}
	empty := NewInstance(10, 1).Stats()
	if empty.N != 0 || empty.UnitJobs {
		t.Errorf("empty stats = %+v", empty)
	}
	unit := NewInstance(10, 1)
	unit.AddJob(0, 5, 1)
	if !unit.Stats().UnitJobs {
		t.Error("unit instance not detected")
	}
}
