package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"calib/api"
	"calib/client"
	"calib/internal/fault"
	"calib/internal/ise"
	"calib/internal/obs"
)

// postJSONWithID is postJSON with a client-supplied X-Request-ID.
func postJSONWithID(t *testing.T, url, id string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestRequestIDPropagation(t *testing.T) {
	var calls atomic.Int64
	srv := New(Config{Solve: countingSolver(&calls)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// A well-formed client ID is accepted and echoed: header and body.
	resp := postJSONWithID(t, ts.URL+"/v1/solve", "my-req.01", api.SolveRequest{Instance: testInstance(0)})
	if got := resp.Header.Get("X-Request-Id"); got != "my-req.01" {
		t.Errorf("header echo = %q, want my-req.01", got)
	}
	out := decode[api.SolveResponse](t, resp)
	if out.RequestID != "my-req.01" {
		t.Errorf("body echo = %q, want my-req.01", out.RequestID)
	}

	// A malformed ID (embedded space) is replaced by a minted one.
	resp = postJSONWithID(t, ts.URL+"/v1/solve", "", api.SolveRequest{Instance: testInstance(1)})
	minted := resp.Header.Get("X-Request-Id")
	if minted == "" || !api.ValidRequestID(minted) {
		t.Errorf("minted ID %q not valid", minted)
	}
	if got := decode[api.SolveResponse](t, resp).RequestID; got != minted {
		t.Errorf("body %q != header %q", got, minted)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", strings.NewReader("{}"))
	req.Header.Set("X-Request-Id", "bad id with spaces")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp2.Header.Get("X-Request-Id"); got == "bad id with spaces" || got == "" {
		t.Errorf("malformed client ID handled wrong: echoed %q", got)
	}
	resp2.Body.Close()

	// A 400 carries the ID in header and error body.
	resp = postJSONWithID(t, ts.URL+"/v1/solve", "err-req", api.SolveRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "err-req" {
		t.Errorf("400 header echo = %q", got)
	}
	if got := decode[api.Error](t, resp).RequestID; got != "err-req" {
		t.Errorf("400 body request_id = %q, want err-req", got)
	}

	// Batch: same contract.
	resp = postJSONWithID(t, ts.URL+"/v1/batch", "batch-req",
		api.BatchRequest{Instances: []*ise.Instance{testInstance(2)}})
	if got := decode[api.BatchResponse](t, resp).RequestID; got != "batch-req" {
		t.Errorf("batch body echo = %q, want batch-req", got)
	}
}

// TestShedCarriesRequestID pins satellite contract: a 429 response
// echoes the request ID in header and body, and the decision record
// logs the shed with its admission verdict.
func TestShedCarriesRequestID(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	blocker := func(_ context.Context, inst *ise.Instance, _ time.Duration, _ int64) (*Result, error) {
		entered <- struct{}{}
		<-release
		var calls atomic.Int64
		return countingSolver(&calls)(context.Background(), inst, 0, 0)
	}
	srv := New(Config{MaxInFlight: 1, MaxQueue: -1, Solve: blocker})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// Release the holder before ts.Close (and before wg.Wait below),
	// also on early t.Fatal exits, or the held request deadlocks both.
	var relOnce sync.Once
	releaseAll := func() { relOnce.Do(func() { close(release) }) }
	defer releaseAll()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp := postJSONWithID(t, ts.URL+"/v1/solve", "holder", api.SolveRequest{Instance: testInstance(0)})
		resp.Body.Close()
	}()
	<-entered // the slot is taken and held

	resp := postJSONWithID(t, ts.URL+"/v1/solve", "shed-me", api.SolveRequest{Instance: testInstance(100)})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "shed-me" {
		t.Errorf("429 header echo = %q", got)
	}
	body := decode[api.Error](t, resp)
	if body.RequestID != "shed-me" {
		t.Errorf("429 body request_id = %q", body.RequestID)
	}
	if body.RetryAfterSeconds <= 0 {
		t.Error("429 lost its Retry-After hint")
	}

	rec, ok := srv.flight.Get("shed-me")
	if !ok {
		t.Fatal("shed request not in the flight recorder")
	}
	if rec.Outcome != "shed" || rec.Admission != "shed" || rec.Status != 429 {
		t.Errorf("shed record = outcome %q admission %q status %d", rec.Outcome, rec.Admission, rec.Status)
	}
	releaseAll()
	wg.Wait()
}

// TestFaultInjectedRequestIsLocatable is the acceptance path: a
// fault-injected request sent through the client package is locatable
// in /debug/requests/{id} with its admission verdict, cache outcome,
// ladder rung, and injected faults — and the same record appears in
// the -trace-log file, decode → re-encode byte-identical.
func TestFaultInjectedRequestIsLocatable(t *testing.T) {
	reg := obs.NewRegistry()
	obs.Declare(reg)
	inj := fault.New(7, reg).ArmDuration(fault.SolveLatency, 1, time.Millisecond)
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	tlog, err := OpenTraceLog(path, 0, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer tlog.Close()
	srv := New(Config{Metrics: reg, Fault: inj, TraceLog: tlog})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Too many jobs for the exact rung (at most 12 jobs): the ladder
	// descends to the LP rung, whose solveMono entry is where the
	// solver-phase fault points fire.
	inst := ise.NewInstance(10, 1)
	for i := 0; i < 16; i++ {
		inst.AddJob(ise.Time(3*i), ise.Time(3*i+40), 5)
	}
	cl := client.New(ts.URL)
	out, err := cl.Solve(context.Background(), &api.SolveRequest{Instance: inst})
	if err != nil {
		t.Fatal(err)
	}
	if out.RequestID == "" {
		t.Fatal("response missing request_id")
	}

	// Locate the request at /debug/requests/{id}.
	resp, err := http.Get(ts.URL + "/debug/requests/" + out.RequestID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug detail status = %d", resp.StatusCode)
	}
	detail := decode[debugRequestDetail](t, resp)
	rec := detail.Record
	if rec.ID != out.RequestID || rec.Route != "solve" {
		t.Fatalf("wrong record: %+v", rec)
	}
	if rec.Admission != "admitted" {
		t.Errorf("admission = %q, want admitted", rec.Admission)
	}
	if rec.Cache != "leader" {
		t.Errorf("cache = %q, want leader", rec.Cache)
	}
	if rec.Rung == "" {
		t.Error("record missing ladder rung")
	}
	if rec.Key == "" || rec.Key != out.Key {
		t.Errorf("record key %q != response key %q", rec.Key, out.Key)
	}
	found := false
	for _, f := range rec.Faults {
		if strings.HasPrefix(f, string(fault.SolveLatency)+":") {
			found = true
		}
	}
	if !found {
		t.Errorf("faults %v missing %s", rec.Faults, fault.SolveLatency)
	}
	if len(detail.Spans) == 0 || detail.Spans[0].Name != "request" {
		t.Errorf("span tree missing request root: %+v", detail.Spans)
	}

	// The same record is in the trace log, byte-identical on re-encode.
	if err := tlog.Flush(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var matched bool
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var tl traceLine
		if err := json.Unmarshal(line, &tl); err != nil {
			t.Fatalf("bad trace line %s: %v", line, err)
		}
		if crc32.ChecksumIEEE(tl.Rec) != tl.CRC {
			t.Fatalf("CRC mismatch on %s", line)
		}
		var fileRec Record
		if err := json.Unmarshal(tl.Rec, &fileRec); err != nil {
			t.Fatal(err)
		}
		reenc, err := json.Marshal(fileRec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reenc, []byte(tl.Rec)) {
			t.Errorf("round-trip not byte-identical:\n got %s\nwant %s", reenc, tl.Rec)
		}
		if fileRec.ID == out.RequestID {
			matched = true
			if fileRec.Admission != rec.Admission || fileRec.Cache != rec.Cache {
				t.Errorf("trace-log record diverges from flight record: %+v vs %+v", fileRec, rec)
			}
		}
	}
	if !matched {
		t.Fatalf("request %s not found in trace log", out.RequestID)
	}
}

// TestCacheHitRecordBypassesAdmission pins the load-bearing invariant:
// cache hits never consume admission capacity, and the decision log
// proves it — a hit's record says Admission "bypass" with zero queue
// time, not "admitted".
func TestCacheHitRecordBypassesAdmission(t *testing.T) {
	var calls atomic.Int64
	srv := New(Config{Solve: countingSolver(&calls)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	first := decode[api.SolveResponse](t, postJSONWithID(t, ts.URL+"/v1/solve", "miss-1", api.SolveRequest{Instance: testInstance(0)}))
	second := decode[api.SolveResponse](t, postJSONWithID(t, ts.URL+"/v1/solve", "hit-1", api.SolveRequest{Instance: testInstance(0)}))
	if first.Cached || !second.Cached {
		t.Fatalf("cached flags: first %v second %v", first.Cached, second.Cached)
	}

	miss, ok := srv.flight.Get("miss-1")
	if !ok {
		t.Fatal("miss record not retained")
	}
	if miss.Admission != "admitted" || miss.Cache != "leader" {
		t.Errorf("miss record = admission %q cache %q, want admitted/leader", miss.Admission, miss.Cache)
	}

	hit, ok := srv.flight.Get("hit-1")
	if !ok {
		t.Fatal("hit record not retained")
	}
	if hit.Admission != "bypass" {
		t.Errorf("hit admission = %q, want bypass (cache hits must not touch admission)", hit.Admission)
	}
	if hit.Cache != "hit" {
		t.Errorf("hit record cache = %q, want hit", hit.Cache)
	}
	if hit.QueueNS != 0 {
		t.Errorf("hit queued for %dns; hits must not wait for admission", hit.QueueNS)
	}
	if hit.Key != miss.Key {
		t.Errorf("keys differ: %q vs %q", hit.Key, miss.Key)
	}
}

// TestRecorderConcurrent hammers one Recorder from 512 goroutines
// mixing Add, Get, and List under -race, then leak-checks like
// leak_test.go.
func TestRecorderConcurrent(t *testing.T) {
	const workers = 512
	before := goroutineCount()
	rec := NewRecorder(256, obs.NewRegistry())

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			id := fmt.Sprintf("req-%d", w)
			for i := 0; i < 50; i++ {
				r := Record{
					ID:        id,
					Route:     "solve",
					ArrivalNS: int64(w*1000 + i),
					TotalNS:   int64(i),
					Status:    200,
					Outcome:   "ok",
				}
				if i%7 == 0 {
					r.Outcome, r.Status = "error", 500
				}
				rec.Add(&r)
				if got, ok := rec.Get(id); ok && got.ID != id {
					t.Errorf("Get(%s) returned %s", id, got.ID)
				}
				if i%10 == 0 {
					rec.List(RecordFilter{Outcome: "error", Limit: 5})
					rec.List(RecordFilter{Slow: true})
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()

	if got := rec.List(RecordFilter{Limit: 10}); len(got) != 10 {
		t.Errorf("List returned %d records, want 10", len(got))
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		if after := goroutineCount(); after <= before+4 {
			return
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, after)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestRecorderRetention proves the side retentions survive main-ring
// churn: after thousands of healthy requests wrap the ring, the errors
// and the slowest requests are still addressable.
func TestRecorderRetention(t *testing.T) {
	rec := NewRecorder(64, obs.NewRegistry())
	rec.Add(&Record{ID: "early-error", ArrivalNS: 1, Status: 500, Outcome: "error"})
	rec.Add(&Record{ID: "early-slow", ArrivalNS: 2, Status: 200, Outcome: "ok", TotalNS: int64(time.Hour)})
	for i := 0; i < 5000; i++ {
		rec.Add(&Record{ID: fmt.Sprintf("ok-%d", i), ArrivalNS: int64(10 + i), Status: 200, Outcome: "ok", TotalNS: 1})
	}
	if _, ok := rec.Get("early-error"); !ok {
		t.Error("error record evicted by healthy churn")
	}
	if _, ok := rec.Get("early-slow"); !ok {
		t.Error("p99-slowest record evicted by healthy churn")
	}
	errs := rec.List(RecordFilter{Errors: true})
	if len(errs) != 1 || errs[0].ID != "early-error" {
		t.Errorf("error tail = %+v", errs)
	}
	// Limit above the retention size (16 per shard x 8 shards), so the
	// ArrivalNS-newest-first trim cannot drop the old slow record.
	slow := rec.List(RecordFilter{Slow: true, Limit: 200})
	var foundSlow bool
	for _, r := range slow {
		foundSlow = foundSlow || r.ID == "early-slow"
	}
	if !foundSlow {
		t.Errorf("slow retention lost the slowest request; kept %d records", len(slow))
	}
}

func TestTraceLogTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	reg := obs.NewRegistry()
	tlog, err := OpenTraceLog(path, 0, reg)
	if err != nil {
		t.Fatal(err)
	}
	tlog.Append(&Record{ID: "a", Route: "solve", Status: 200, Outcome: "ok", TotalNS: 1})
	tlog.Append(&Record{ID: "b", Route: "solve", Status: 200, Outcome: "ok", TotalNS: 2})
	if err := tlog.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail mid-line, as a crash would.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, skipped, err := ReadTraceLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "a" {
		t.Fatalf("recs = %+v, want just a", recs)
	}
	if skipped != 1 {
		t.Errorf("skipped = %d, want 1 torn line", skipped)
	}
	// Records appended after the tear start lines of their own.
	tlog, err = OpenTraceLog(path, 0, reg)
	if err != nil {
		t.Fatal(err)
	}
	tlog.Append(&Record{ID: "c", Route: "solve", Status: 200, Outcome: "ok", TotalNS: 3})
	tlog.Append(&Record{ID: "d", Route: "solve", Status: 200, Outcome: "ok", TotalNS: 4})
	if err := tlog.Close(); err != nil {
		t.Fatal(err)
	}
	recs, skipped, err = ReadTraceLog(path)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, r := range recs {
		ids = append(ids, r.ID)
	}
	if !slices.Equal(ids, []string{"a", "c", "d"}) || skipped != 1 {
		t.Fatalf("after appending c and d: ids %v, skipped %d; want [a c d], 1", ids, skipped)
	}
}

func TestTraceLogRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	reg := obs.NewRegistry()
	tlog, err := OpenTraceLog(path, 512, reg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		tlog.Append(&Record{ID: fmt.Sprintf("r%02d", i), Route: "solve", Status: 200, Outcome: "ok", TotalNS: 1})
	}
	if err := tlog.Close(); err != nil {
		t.Fatal(err)
	}
	if reg.Counter(obs.MTraceLogRotations).Value() == 0 {
		t.Fatal("no rotation happened; shrink the max or grow the records")
	}
	if reg.Counter(obs.MTraceLogErrors).Value() != 0 {
		t.Fatalf("trace log errors: %d", reg.Counter(obs.MTraceLogErrors).Value())
	}
	live, skippedLive, err := ReadTraceLog(path)
	if err != nil {
		t.Fatal(err)
	}
	old, skippedOld, err := ReadTraceLog(path + ".1")
	if err != nil {
		t.Fatal(err)
	}
	if skippedLive != 0 || skippedOld != 0 {
		t.Errorf("skipped %d live, %d rotated; rotation must not tear lines", skippedLive, skippedOld)
	}
	if len(live) == 0 || len(old) == 0 {
		t.Fatalf("live %d rotated %d records; both files must hold some", len(live), len(old))
	}
	// The newest record is in the live file, in order.
	if got := live[len(live)-1].ID; got != "r49" {
		t.Errorf("last live record = %s, want r49", got)
	}
}

func TestSLOBurnRate(t *testing.T) {
	reg := obs.NewRegistry()
	obs.DeclareService(reg)
	slo := newSLO(0.9, 50*time.Millisecond, reg, nil)

	// 8 good, 2 bad (one slow, one 5xx): bad fraction 0.2 against a 0.1
	// error budget = burn rate 2.0.
	for i := 0; i < 8; i++ {
		slo.observe("solve", fmt.Sprintf("good-%d", i), time.Millisecond, true)
	}
	slo.observe("solve", "too-slow", 200*time.Millisecond, true)
	slo.observe("solve", "failed", time.Millisecond, false)

	burn := reg.GaugeWith(obs.MSLOBurnRate, "route", "solve").Value()
	if burn < 1.99 || burn > 2.01 {
		t.Errorf("burn rate = %v, want 2.0", burn)
	}
	if got := reg.CounterWith(obs.MSLOBreaches, "route", "solve").Value(); got != 2 {
		t.Errorf("breaches = %d, want 2", got)
	}

	st := slo.status()
	if len(st) != 2 {
		t.Fatalf("status routes = %d, want 2", len(st))
	}
	var solve sloStatus
	for _, s := range st {
		if s.Route == "solve" {
			solve = s
		}
	}
	if len(solve.Exemplars) != 2 {
		t.Fatalf("exemplars = %v, want the two breaches", solve.Exemplars)
	}
	for _, ex := range solve.Exemplars {
		if ex != "too-slow" && ex != "failed" {
			t.Errorf("unexpected exemplar %q", ex)
		}
	}
	// The batch route is untouched: burn 0.
	if got := reg.GaugeWith(obs.MSLOBurnRate, "route", "batch").Value(); got != 0 {
		t.Errorf("batch burn = %v, want 0", got)
	}
}

func TestDebugRequestsFilters(t *testing.T) {
	var calls atomic.Int64
	srv := New(Config{Solve: countingSolver(&calls)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	postJSONWithID(t, ts.URL+"/v1/solve", "f-ok", api.SolveRequest{Instance: testInstance(0)}).Body.Close()
	postJSONWithID(t, ts.URL+"/v1/solve", "f-bad", api.SolveRequest{}).Body.Close()
	postJSONWithID(t, ts.URL+"/v1/batch", "f-batch",
		api.BatchRequest{Instances: []*ise.Instance{testInstance(5)}}).Body.Close()

	get := func(query string) *debugRequestList {
		t.Helper()
		resp, err := http.Get(ts.URL + "/debug/requests" + query)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /debug/requests%s = %d", query, resp.StatusCode)
		}
		return decode[debugRequestList](t, resp)
	}

	all := get("")
	if len(all.Requests) != 3 {
		t.Fatalf("unfiltered = %d records, want 3", len(all.Requests))
	}
	if len(all.SLO) != 2 {
		t.Errorf("SLO status routes = %d, want 2", len(all.SLO))
	}
	// Newest-first ordering.
	if all.Requests[0].ID != "f-batch" {
		t.Errorf("newest first = %s, want f-batch", all.Requests[0].ID)
	}
	if got := get("?route=batch"); len(got.Requests) != 1 || got.Requests[0].ID != "f-batch" {
		t.Errorf("route=batch = %+v", got.Requests)
	}
	if got := get("?outcome=error"); len(got.Requests) != 1 || got.Requests[0].ID != "f-bad" {
		t.Errorf("outcome=error = %+v", got.Requests)
	}
	if got := get("?errors=1"); len(got.Requests) != 1 || got.Requests[0].ID != "f-bad" {
		t.Errorf("errors=1 = %+v", got.Requests)
	}
	if got := get("?cache=leader"); len(got.Requests) != 1 || got.Requests[0].ID != "f-ok" {
		t.Errorf("cache=leader = %+v", got.Requests)
	}
	if got := get("?limit=1"); len(got.Requests) != 1 {
		t.Errorf("limit=1 = %d records", len(got.Requests))
	}

	// Unknown ID is a 404 that still carries the asked-for ID.
	resp, err := http.Get(ts.URL + "/debug/requests/nope")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestRecorderDisabled proves FlightRecords < 0 turns the recorder off
// without disturbing serving, and /debug/requests says so.
func TestRecorderDisabled(t *testing.T) {
	var calls atomic.Int64
	srv := New(Config{Solve: countingSolver(&calls), FlightRecords: -1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := postJSONWithID(t, ts.URL+"/v1/solve", "off-1", api.SolveRequest{Instance: testInstance(0)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve with recorder off = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "off-1" {
		t.Errorf("ID echo must survive recorder-off: %q", got)
	}
	resp.Body.Close()
	dbg, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	if dbg.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/requests with recorder off = %d, want 404", dbg.StatusCode)
	}
	dbg.Body.Close()
}

// BenchmarkFlightRecorderOff is the CI-gated zero-allocation proof of
// the disabled decision-log path: with the recorder, trace log, and
// SLO tracker all off (nil), filling and publishing a Record costs
// nothing on the heap. Companion of BenchmarkObsOverhead; the gate
// greps for " 0 allocs/op".
func BenchmarkFlightRecorderOff(b *testing.B) {
	var flight *Recorder
	var tlog *TraceLog
	var slo *sloTracker
	var rec Record
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec = Record{ID: "bench", Route: "solve", ArrivalNS: int64(i), Status: 200, Outcome: "ok"}
		rec.Admission = "admitted"
		rec.Cache = "leader"
		rec.TotalNS = int64(i)
		flight.Add(&rec)
		tlog.Append(&rec)
		slo.observe(rec.Route, rec.ID, time.Duration(rec.TotalNS), true)
		if _, ok := flight.Get("bench"); ok {
			b.Fatal("nil recorder returned a record")
		}
	}
}
