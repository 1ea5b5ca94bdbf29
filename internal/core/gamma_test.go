package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"calib/internal/ise"
	"calib/internal/obs"
	"calib/internal/workload"
)

func TestGammaRouting(t *testing.T) {
	in := ise.NewInstance(10, 1)
	in.AddJob(0, 25, 5) // window 2.5T
	in.AddJob(0, 45, 5) // window 4.5T

	// gamma=2: both long.
	r2, err := Solve(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r2.LongJobs != 2 || r2.ShortJobs != 0 {
		t.Errorf("gamma=2 partition = %d/%d, want 2/0", r2.LongJobs, r2.ShortJobs)
	}
	// gamma=3: the 2.5T window becomes short.
	r3, err := Solve(in, Options{Gamma: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r3.LongJobs != 1 || r3.ShortJobs != 1 {
		t.Errorf("gamma=3 partition = %d/%d, want 1/1", r3.LongJobs, r3.ShortJobs)
	}
	for _, r := range []*Result{r2, r3} {
		if err := ise.Validate(in, r.Schedule); err != nil {
			t.Fatalf("infeasible: %v", err)
		}
	}
}

func TestGammaInvalid(t *testing.T) {
	in := ise.NewInstance(10, 1)
	in.AddJob(0, 25, 5)
	if _, err := Solve(in, Options{Gamma: 1}); err == nil {
		t.Error("gamma=1 accepted")
	}
}

func TestGammaSweepEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	inst, _ := workload.Mixed(rng, 14, 1, 10, 0.5)
	for _, gamma := range []int{2, 3, 4} {
		res, err := Solve(inst, Options{Gamma: gamma})
		if err != nil {
			t.Fatalf("gamma=%d: %v", gamma, err)
		}
		if err := ise.Validate(inst, res.Schedule); err != nil {
			t.Fatalf("gamma=%d: infeasible: %v", gamma, err)
		}
		if res.LongJobs+res.ShortJobs != inst.N() {
			t.Errorf("gamma=%d: partition %d+%d != %d", gamma, res.LongJobs, res.ShortJobs, inst.N())
		}
	}
}

// TestTimingsPopulated: the stage spans time the long and short
// sub-pipelines and the LP.
func TestTimingsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	inst, _ := workload.Mixed(rng, 12, 1, 10, 0.5)
	tr := obs.NewTrace("solve")
	res, err := Solve(inst, Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	var js bytes.Buffer
	if err := tr.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	type span struct {
		Name     string
		US       int64
		Children []span
	}
	var root span
	if err := json.Unmarshal(js.Bytes(), &root); err != nil {
		t.Fatal(err)
	}
	us := map[string]int64{}
	var walk func(s span)
	walk = func(s span) {
		us[s.Name] += s.US
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(root)
	for stage, ran := range map[string]bool{"long": res.LongJobs > 0, "lp": res.LongJobs > 0, "short": res.ShortJobs > 0} {
		if ran && us[stage] <= 0 {
			t.Errorf("%s stage not timed:\n%s", stage, js.String())
		}
	}
}
