package main

import (
	"bytes"
	"strings"
	"testing"

	"calib/internal/ise"
)

const fixture = `{"t": 10, "m": 1, "jobs": [
  {"id": 0, "release": 0, "deadline": 100, "processing": 5},
  {"id": 1, "release": 90, "deadline": 100, "processing": 5},
  {"id": 2, "release": 5, "deadline": 22, "processing": 6}
]}`

func solveWith(t *testing.T, args ...string) (*ise.Schedule, string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	if err := run(args, strings.NewReader(fixture), &out, &errBuf); err != nil {
		t.Fatalf("run(%v): %v (stderr: %s)", args, err, errBuf.String())
	}
	sched, err := ise.ReadSchedule(&out)
	if err != nil {
		t.Fatalf("invalid schedule JSON: %v", err)
	}
	return sched, errBuf.String()
}

func TestRunDefaultPipeline(t *testing.T) {
	sched, msg := solveWith(t)
	if len(sched.Placements) != 3 {
		t.Errorf("placements = %d, want 3", len(sched.Placements))
	}
	if !strings.Contains(msg, "lower-bound") {
		t.Errorf("summary missing: %q", msg)
	}
}

func TestRunModes(t *testing.T) {
	optS, msg := solveWith(t, "-opt")
	if !strings.Contains(msg, "exact optimum") {
		t.Errorf("missing exact summary: %q", msg)
	}
	lazyS, msg := solveWith(t, "-lazy", "-v")
	if !strings.Contains(msg, "lazy heuristic") || !strings.Contains(msg, "replay") {
		t.Errorf("missing lazy/replay summary: %q", msg)
	}
	// Exact <= lazy <= pipeline calibrations.
	pipeS, _ := solveWith(t, "-compact")
	if optS.NumCalibrations() > lazyS.NumCalibrations() || lazyS.NumCalibrations() > pipeS.NumCalibrations() {
		t.Errorf("count ordering violated: opt %d, lazy %d, pipeline %d",
			optS.NumCalibrations(), lazyS.NumCalibrations(), pipeS.NumCalibrations())
	}
}

func TestRunBoxes(t *testing.T) {
	for _, box := range []string{"greedy", "exact", "lp-round"} {
		solveWith(t, "-box", box)
	}
	for _, box := range []string{"bogus", "lp-search"} {
		var out, errBuf bytes.Buffer
		if err := run([]string{"-box", box}, strings.NewReader(fixture), &out, &errBuf); err == nil {
			t.Errorf("box %q accepted", box)
		}
	}
}

func TestRunConflictingFlags(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-opt", "-lazy"}, strings.NewReader(fixture), &out, &errBuf); err == nil {
		t.Error("-opt -lazy accepted")
	}
}

func TestRunCrossCheck(t *testing.T) {
	_, msg := solveWith(t, "-check")
	if !strings.Contains(msg, "cross-check OK") {
		t.Errorf("missing cross-check summary: %q", msg)
	}
}

func TestRunBadInput(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run(nil, strings.NewReader("not json"), &out, &errBuf); err == nil {
		t.Error("garbage input accepted")
	}
}
