package server

import (
	"bufio"
	"encoding/json"
	"hash/crc32"
	"os"
	"sync"
	"time"

	"calib/internal/obs"
)

// TraceLog is the ised -trace-log sink: every request's decision
// Record appended as one CRC-stamped JSONL line, the durable twin of
// the in-memory flight recorder and the input format of the planned
// trace-replay harness.
//
// File format (the batch checkpoint's, with a Record payload):
//
//	{"crc": <IEEE CRC-32 of the record bytes>, "rec": <Record JSON>}
//
// Writes go through a buffer flushed by a background ticker (and on
// rotation/Close), trading a bounded tail loss on SIGKILL for not
// paying an fsync per request; a torn tail fails the CRC at read time
// and is skipped, exactly like the batch journal. When the file
// exceeds MaxBytes it is rotated once to path+".1" (the previous ".1"
// is dropped), bounding disk use at ~2x MaxBytes.
type TraceLog struct {
	path string
	max  int64

	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	size int64

	records, rotations, errs *obs.Counter

	stop chan struct{}
	done chan struct{}
}

// traceLine is one trace-log record on the wire.
type traceLine struct {
	CRC uint32          `json:"crc"`
	Rec json.RawMessage `json:"rec"`
}

// flushEvery is the background flush cadence: short enough that an
// operator tailing the file (or the smoke test) sees traffic promptly.
const flushEvery = 200 * time.Millisecond

// OpenTraceLog opens (appending) the trace log at path. maxBytes <= 0
// disables rotation. met receives the trace_log_* series. A file that
// ends mid-line (a torn tail) is terminated first, so the next record
// starts a line of its own.
func OpenTraceLog(path string, maxBytes int64, met *obs.Registry) (*TraceLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	size, err := endLine(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	t := &TraceLog{
		path:      path,
		max:       maxBytes,
		f:         f,
		w:         bufio.NewWriterSize(f, 64*1024),
		size:      size,
		records:   met.Counter(obs.MTraceLogRecords),
		rotations: met.Counter(obs.MTraceLogRotations),
		errs:      met.Counter(obs.MTraceLogErrors),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	go t.flushLoop()
	return t, nil
}

// endLine writes a newline at the end of f, opened for appending, when
// the file ends mid-line, and returns the file's size after it.
func endLine(f *os.File) (int64, error) {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return 0, err
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, st.Size()-1); err != nil {
		return 0, err
	}
	if last[0] == '\n' {
		return st.Size(), nil
	}
	if _, err := f.Write([]byte{'\n'}); err != nil {
		return 0, err
	}
	return st.Size() + 1, nil
}

func (t *TraceLog) flushLoop() {
	defer close(t.done)
	tick := time.NewTicker(flushEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			t.mu.Lock()
			if t.w.Buffered() > 0 && t.w.Flush() != nil {
				t.errs.Inc()
			}
			t.mu.Unlock()
		case <-t.stop:
			return
		}
	}
}

// Append writes one record. Failures are counted (trace_log_errors_
// total) and dropped — the trace log must never fail a request.
// Nil-safe: a nil TraceLog is the disabled sink.
func (t *TraceLog) Append(rec *Record) {
	if t == nil {
		return
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		t.errs.Inc()
		return
	}
	line, err := json.Marshal(traceLine{CRC: crc32.ChecksumIEEE(raw), Rec: raw})
	if err != nil {
		t.errs.Inc()
		return
	}
	line = append(line, '\n')
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.max > 0 && t.size+int64(len(line)) > t.max && t.size > 0 {
		if err := t.rotate(); err != nil {
			t.errs.Inc()
			return
		}
	}
	n, err := t.w.Write(line)
	t.size += int64(n)
	if err != nil {
		t.errs.Inc()
		return
	}
	t.records.Inc()
}

// rotate moves the live file to path+".1" and starts a fresh one.
// Caller holds t.mu.
func (t *TraceLog) rotate() error {
	if err := t.w.Flush(); err != nil {
		return err
	}
	if err := t.f.Close(); err != nil {
		return err
	}
	if err := os.Rename(t.path, t.path+".1"); err != nil {
		return err
	}
	f, err := os.OpenFile(t.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	t.f = f
	t.w.Reset(f)
	t.size = 0
	t.rotations.Inc()
	return nil
}

// Flush forces buffered records to the file (tests, pre-shutdown).
func (t *TraceLog) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.w.Flush()
}

// Close stops the flusher, flushes, and closes the file. Nil-safe.
func (t *TraceLog) Close() error {
	if t == nil {
		return nil
	}
	close(t.stop)
	<-t.done
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.w.Flush(); err != nil {
		t.f.Close()
		return err
	}
	return t.f.Close()
}

// ReadTraceLog loads every intact record from a trace-log file,
// skipping damaged lines (torn tail, bad CRC, malformed JSON) and
// reporting how many were skipped.
func ReadTraceLog(path string) (recs []Record, skipped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		var line traceLine
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			skipped++
			continue
		}
		if crc32.ChecksumIEEE(line.Rec) != line.CRC {
			skipped++
			continue
		}
		var rec Record
		if json.Unmarshal(line.Rec, &rec) != nil {
			skipped++
			continue
		}
		recs = append(recs, rec)
	}
	if sc.Err() != nil {
		skipped++ // unterminated giant line: treat as a torn tail
	}
	return recs, skipped, nil
}
