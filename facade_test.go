package calib_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"calib"
	"calib/internal/workload"
)

func TestCompactMachinesOption(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	inst, _ := workload.Mixed(rng, 14, 1, 10, 0.5)
	plain, err := calib.Solve(inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	compact, err := calib.Compact(inst, plain.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if err := calib.Validate(inst, compact); err != nil {
		t.Fatalf("compacted schedule infeasible: %v", err)
	}
	if compact.NumCalibrations() != plain.Calibrations {
		t.Errorf("compaction changed calibrations: %d vs %d", compact.NumCalibrations(), plain.Calibrations)
	}
	if compact.MachinesUsed() > plain.MachinesUsed {
		t.Errorf("compaction increased machines: %d vs %d", compact.MachinesUsed(), plain.MachinesUsed)
	}
}

func TestCompactStandalone(t *testing.T) {
	inst := calib.NewInstance(10, 1)
	inst.AddJob(0, 25, 4)
	inst.AddJob(30, 55, 4)
	sol, err := calib.Solve(inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := calib.Compact(inst, sol.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if err := calib.Validate(inst, c); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	if c.MachinesUsed() > sol.MachinesUsed {
		t.Errorf("compaction used more machines (%d > %d)", c.MachinesUsed(), sol.MachinesUsed)
	}
}

func TestLocalSearchOption(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	inst, _ := workload.Mixed(rng, 14, 1, 10, 0.5)
	plain, err := calib.Solve(inst, nil)
	if err != nil {
		t.Fatal(err)
	}
	improved, err := calib.Improve(inst, plain.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if improved.NumCalibrations() > plain.Calibrations {
		t.Errorf("local search made it worse: %d > %d", improved.NumCalibrations(), plain.Calibrations)
	}
	// The recipe T9 and isebatch run: Improve, then Compact.
	compact, err := calib.Compact(inst, improved)
	if err != nil {
		t.Fatal(err)
	}
	if err := calib.Validate(inst, compact); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	if compact.NumCalibrations() != improved.NumCalibrations() {
		t.Errorf("compaction changed calibrations: %d vs %d", compact.NumCalibrations(), improved.NumCalibrations())
	}
}

func TestSolveLazyFacade(t *testing.T) {
	inst := calib.NewInstance(10, 1)
	inst.AddJob(0, 100, 5)
	inst.AddJob(90, 100, 5)
	s, err := calib.SolveLazy(inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := calib.Validate(inst, s); err != nil {
		t.Fatalf("infeasible: %v", err)
	}
	if s.NumCalibrations() != 1 {
		t.Errorf("lazy calibrations = %d, want 1", s.NumCalibrations())
	}
	// Budget too small for an instance needing two machines.
	inst2 := calib.NewInstance(10, 1)
	inst2.AddJob(0, 10, 10)
	inst2.AddJob(0, 10, 10)
	if _, err := calib.SolveLazy(inst2, 1); err == nil {
		t.Error("budget violation not reported")
	}
}

// TestLazyVsPipelineQuality documents the practical ranking: the lazy
// heuristic should rarely lose to the worst-case pipeline on random
// mixed workloads (and must never produce an infeasible schedule).
func TestLazyVsPipelineQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	lazyWins := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		inst, _ := workload.Mixed(rng, 16, 1, 10, 0.5)
		sol, err := calib.Solve(inst, nil)
		if err != nil {
			t.Fatal(err)
		}
		lz, err := calib.SolveLazy(inst, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := calib.Validate(inst, lz); err != nil {
			t.Fatalf("lazy infeasible: %v", err)
		}
		if lz.NumCalibrations() <= sol.Calibrations {
			lazyWins++
		}
	}
	if lazyWins < trials/2 {
		t.Errorf("lazy heuristic won only %d/%d — regression in heuristic quality?", lazyWins, trials)
	}
}

// TestProductionLPPath pins the one LP path production runs: on a
// gap-free long-window instance too large for the exact rung, the LP
// rung answers, and every lp span it traces is the float64 dense
// tableau with all pair rows built directly.
func TestProductionLPPath(t *testing.T) {
	inst := calib.NewInstance(10, 2)
	for j := 0; j < 16; j++ {
		r := calib.Time(3 * j)
		inst.AddJob(r, r+40, calib.Time(3+j%4))
	}
	tr := calib.NewTrace("solve")
	sol, err := calib.SolveRobust(inst, &calib.Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	if err := calib.Validate(inst, sol.Schedule); err != nil {
		t.Fatal(err)
	}
	if sol.Components != 1 || sol.RungSummary() != "lp" {
		t.Fatalf("components %d answered by %q, want one component answered by lp", sol.Components, sol.RungSummary())
	}
	var js bytes.Buffer
	if err := tr.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	type span struct {
		Name     string         `json:"name"`
		Attrs    map[string]any `json:"attrs"`
		Children []span         `json:"children"`
	}
	var root span
	if err := json.Unmarshal(js.Bytes(), &root); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, js.String())
	}
	var lps []map[string]any
	var walk func(s span)
	walk = func(s span) {
		if s.Name == "lp" {
			lps = append(lps, s.Attrs)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(root)
	if len(lps) == 0 {
		t.Fatalf("no lp span in the trace:\n%s", js.String())
	}
	for i, a := range lps {
		if a["engine"] != "float64" || a["strategy"] != "direct" {
			t.Errorf("lp span %d: engine=%v strategy=%v, want engine=float64 strategy=direct", i, a["engine"], a["strategy"])
		}
	}
}
