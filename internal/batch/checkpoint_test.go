package batch

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"calib/internal/heur"
	"calib/internal/ise"
)

func ckItems(n int) []Item {
	items := make([]Item, n)
	for i := range items {
		inst := ise.NewInstance(10, 1)
		inst.AddJob(ise.Time(i), ise.Time(i)+40, 5)
		inst.AddJob(ise.Time(i)+30, ise.Time(i)+70, 8)
		items[i] = Item{Name: fmt.Sprintf("inst-%02d", i), Instance: inst}
	}
	return items
}

// countingPolicies returns two policies that count invocations, so
// tests can assert exactly which rows were re-solved on resume.
func countingPolicies(calls *atomic.Int64) []Policy {
	solve := func(inst *ise.Instance) (*ise.Schedule, error) {
		calls.Add(1)
		return heur.Lazy(inst, heur.Options{})
	}
	return []Policy{{Name: "a", Solve: solve}, {Name: "b", Solve: solve}}
}

// zeroMillis strips the one nondeterministic column so reports can be
// compared row-for-row.
func zeroMillis(rows []Row) []Row {
	out := append([]Row(nil), rows...)
	for i := range out {
		out[i].Millis = 0
	}
	return out
}

func TestCheckpointResumeSkipsCompletedRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	items := ckItems(6)
	var calls1 atomic.Int64
	pols := countingPolicies(&calls1)

	// First run: interrupt after 7 of 12 rows by checkpointing a prefix
	// manually (simulating the rows that had finished when the process
	// was killed).
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunCheckpoint(items, pols, 3, ck)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	if got := calls1.Load(); got != 12 {
		t.Fatalf("first run solved %d rows, want 12", got)
	}

	// Resume with everything checkpointed: zero solves, and the report
	// is byte-identical to the first run — Millis included, because
	// checkpointed rows replay verbatim.
	ck2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if ck2.Len() != 12 || ck2.Skipped != 0 {
		t.Fatalf("reopened checkpoint: len %d, skipped %d", ck2.Len(), ck2.Skipped)
	}
	var calls2 atomic.Int64
	resumed, err := RunCheckpoint(items, countingPolicies(&calls2), 3, ck2)
	if err != nil {
		t.Fatal(err)
	}
	if calls2.Load() != 0 {
		t.Fatalf("resume re-solved %d rows, want 0", calls2.Load())
	}
	if !reflect.DeepEqual(full.Rows, resumed.Rows) {
		t.Fatal("resumed report differs from original")
	}
}

func TestCheckpointPartialResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	items := ckItems(4)
	var calls atomic.Int64
	pols := countingPolicies(&calls)

	// Checkpoint only the first 3 rows, as a killed run would have.
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	baseline := Run(items, pols, 1)
	for _, row := range baseline.Rows[:3] {
		if err := ck.Record(row); err != nil {
			t.Fatal(err)
		}
	}
	ck.Close()
	calls.Store(0)

	ck2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	resumed, err := RunCheckpoint(items, pols, 2, ck2)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 5 {
		t.Fatalf("resume solved %d rows, want the 5 missing ones", got)
	}
	// Row-for-row identical once the nondeterministic timing column is
	// ignored; the 3 resumed rows keep even their original Millis.
	if !reflect.DeepEqual(zeroMillis(baseline.Rows), zeroMillis(resumed.Rows)) {
		t.Fatal("resumed rows differ from an uninterrupted run")
	}
	for i, row := range resumed.Rows[:3] {
		if row.Millis != baseline.Rows[i].Millis {
			t.Fatalf("row %d lost its checkpointed timing", i)
		}
	}
	// After the resume the checkpoint is complete.
	if ck2.Len() != len(items)*len(pols) {
		t.Fatalf("checkpoint has %d rows after resume", ck2.Len())
	}
}

// TestCheckpointTornTail: a kill mid-Record leaves a torn last line;
// reopening keeps every intact row and counts the damage.
func TestCheckpointTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	items := ckItems(3)
	var calls atomic.Int64
	pols := countingPolicies(&calls)
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCheckpoint(items, pols, 1, ck); err != nil {
		t.Fatal(err)
	}
	ck.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last line in half — the classic SIGKILL-mid-write shape.
	torn := raw[:len(raw)-20]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	ck2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Len() != 5 || ck2.Skipped != 1 {
		t.Fatalf("torn checkpoint: len %d skipped %d, want 5/1", ck2.Len(), ck2.Skipped)
	}
	// Resume re-solves only the torn row.
	calls.Store(0)
	if _, err := RunCheckpoint(items, pols, 1, ck2); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("resume after torn tail solved %d rows, want 1", calls.Load())
	}
	// The row recorded after the tear starts a line of its own, so it
	// survives the next reopen.
	if err := ck2.Close(); err != nil {
		t.Fatal(err)
	}
	ck3, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck3.Close()
	if ck3.Len() != 6 || ck3.Skipped != 1 {
		t.Fatalf("reopened after resume: len %d skipped %d, want 6/1", ck3.Len(), ck3.Skipped)
	}
}

// TestCheckpointCorruptLine: a line whose payload was damaged in place
// fails its CRC and is re-solved, never trusted.
func TestCheckpointCorruptLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	items := ckItems(2)
	var calls atomic.Int64
	pols := countingPolicies(&calls)
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCheckpoint(items, pols, 1, ck); err != nil {
		t.Fatal(err)
	}
	ck.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first line's row payload (past the CRC
	// field) without breaking the JSON framing.
	idx := 40
	switch raw[idx] {
	case '"', '\\', '{', '}':
		idx++
	}
	raw[idx] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ck2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if ck2.Skipped == 0 {
		t.Fatal("damaged line loaded without tripping the CRC")
	}
}

func TestRunCheckpointNilFallsBackToRun(t *testing.T) {
	items := ckItems(2)
	var calls atomic.Int64
	rep, err := RunCheckpoint(items, countingPolicies(&calls), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 || calls.Load() != 4 {
		t.Fatalf("nil-checkpoint run: %d rows, %d calls", len(rep.Rows), calls.Load())
	}
}

// TestCheckpointRecordErrors: error rows checkpoint and resume like
// any other — a failed solve is a completed evaluation.
func TestCheckpointRecordErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	items := ckItems(1)
	var calls atomic.Int64
	pols := []Policy{{Name: "boom", Solve: func(*ise.Instance) (*ise.Schedule, error) {
		calls.Add(1)
		return nil, errors.New("engine exploded")
	}}}
	ck, _ := OpenCheckpoint(path)
	rep, err := RunCheckpoint(items, pols, 1, ck)
	if err != nil {
		t.Fatal(err)
	}
	ck.Close()
	if rep.Rows[0].Err == "" {
		t.Fatal("error row lost its error")
	}
	ck2, _ := OpenCheckpoint(path)
	defer ck2.Close()
	calls.Store(0)
	rep2, err := RunCheckpoint(items, pols, 1, ck2)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 || rep2.Rows[0].Err != rep.Rows[0].Err {
		t.Fatalf("error row was re-solved (%d calls) or changed: %+v", calls.Load(), rep2.Rows[0])
	}
}
