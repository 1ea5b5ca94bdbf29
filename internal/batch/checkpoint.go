package batch

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// Checkpointing: the batch layer's crash-safe resume path. Every
// completed (instance, policy) row is appended to a JSONL checkpoint
// file — each line CRC-stamped and fsynced — as soon as it finishes,
// so a killed run loses at most the rows that were still solving.
// Reopening the same file resumes the batch: checkpointed rows are
// replayed verbatim (including their original timings) and only the
// missing work is solved, making the resumed report row-for-row
// identical to an uninterrupted run up to the nondeterministic Millis
// of the freshly solved rows.
//
// File format: one JSON object per line,
//
//	{"crc": <IEEE CRC-32 of the row bytes>, "row": <Row JSON>}
//
// A torn tail (the line being written when the process died) fails
// JSON parsing or the CRC and is skipped; everything before it loads,
// and reopening ends the torn line so the rows appended after it stay
// readable.

// ckLine is one checkpoint record on the wire.
type ckLine struct {
	CRC uint32          `json:"crc"`
	Row json.RawMessage `json:"row"`
}

// Checkpoint is an append-only row journal; create with
// OpenCheckpoint. Safe for concurrent Record calls.
type Checkpoint struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	seen map[string]Row
	// Skipped counts damaged lines discarded while loading (torn tail,
	// bad CRC, malformed JSON).
	Skipped int
}

func ckKey(item, policy string) string { return item + "\x00" + policy }

// OpenCheckpoint opens (creating if needed) the checkpoint at path and
// loads every intact row already in it. Damaged lines are counted in
// Skipped and ignored — a checkpoint is an accelerant, never a way to
// fail a batch.
func OpenCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	ck := &Checkpoint{f: f, seen: map[string]Row{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		var line ckLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			ck.Skipped++
			continue
		}
		if crc32.ChecksumIEEE(line.Row) != line.CRC {
			ck.Skipped++
			continue
		}
		var row Row
		if err := json.Unmarshal(line.Row, &row); err != nil {
			ck.Skipped++
			continue
		}
		ck.seen[ckKey(row.Item, row.Policy)] = row
	}
	if err := sc.Err(); err != nil {
		// An unterminated giant line or read error: treat like a torn
		// tail — keep what loaded.
		ck.Skipped++
	}
	// Append after whatever we just read. A torn tail is terminated
	// first, so the next row starts a line of its own instead of being
	// glued onto the torn bytes.
	if err := endLine(f); err != nil {
		f.Close()
		return nil, err
	}
	ck.w = bufio.NewWriter(f)
	return ck, nil
}

// endLine seeks f to its end and writes a newline there when the file
// ends mid-line.
func endLine(f *os.File) error {
	end, err := f.Seek(0, io.SeekEnd)
	if err != nil || end == 0 {
		return err
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, end-1); err != nil {
		return err
	}
	if last[0] == '\n' {
		return nil
	}
	_, err = f.Write([]byte{'\n'})
	return err
}

// Len returns the number of rows loaded from the file plus those
// recorded since.
func (ck *Checkpoint) Len() int {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	return len(ck.seen)
}

// Done returns the checkpointed row for (item, policy), if present.
func (ck *Checkpoint) Done(item, policy string) (Row, bool) {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	row, ok := ck.seen[ckKey(item, policy)]
	return row, ok
}

// Record appends row to the journal and syncs it to disk before
// returning, so a row that Record accepted survives any later kill.
func (ck *Checkpoint) Record(row Row) error {
	raw, err := json.Marshal(row)
	if err != nil {
		return err
	}
	line, err := json.Marshal(ckLine{CRC: crc32.ChecksumIEEE(raw), Row: raw})
	if err != nil {
		return err
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if _, err := ck.w.Write(append(line, '\n')); err != nil {
		return err
	}
	if err := ck.w.Flush(); err != nil {
		return err
	}
	if err := ck.f.Sync(); err != nil {
		return err
	}
	ck.seen[ckKey(row.Item, row.Policy)] = row
	return nil
}

// Close flushes and closes the journal file.
func (ck *Checkpoint) Close() error {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if err := ck.w.Flush(); err != nil {
		ck.f.Close()
		return err
	}
	return ck.f.Close()
}

// RunCheckpoint is Run with crash-safe resume: rows already in ck are
// replayed verbatim (their original result and timing, no re-solve)
// and every freshly solved row is recorded — and fsynced — the moment
// it completes. ck == nil degrades to plain Run. Row order and
// content match an uninterrupted Run exactly, except that Millis of
// re-solved rows reflects this run's clock.
func RunCheckpoint(items []Item, policies []Policy, workers int, ck *Checkpoint) (*Report, error) {
	if ck == nil {
		return Run(items, policies, workers), nil
	}
	if workers < 1 {
		workers = 1
	}
	type task struct{ item, pol int }
	rows := make([]Row, len(items)*len(policies))
	var pending []task
	for i := range items {
		for p := range policies {
			if row, ok := ck.Done(items[i].Name, policies[p].Name); ok {
				rows[i*len(policies)+p] = row
				continue
			}
			pending = append(pending, task{i, p})
		}
	}
	if len(pending) == 0 {
		return &Report{Rows: rows}, nil
	}
	tasks := make(chan task, len(pending))
	for _, tk := range pending {
		tasks <- tk
	}
	close(tasks)
	var (
		wg       sync.WaitGroup
		recErrMu sync.Mutex
		recErr   error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tk := range tasks {
				row := solveRow(items[tk.item], policies[tk.pol])
				rows[tk.item*len(policies)+tk.pol] = row
				if err := ck.Record(row); err != nil {
					recErrMu.Lock()
					if recErr == nil {
						recErr = fmt.Errorf("checkpointing %s/%s: %w", row.Item, row.Policy, err)
					}
					recErrMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return &Report{Rows: rows}, recErr
}
