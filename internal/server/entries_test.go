package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"calib/api"
	"calib/internal/canon"
	"calib/internal/ise"
)

// countingServer is a real server whose solver invocations are
// counted, so replication tests can prove an entry arrived by transfer
// rather than by re-solving.
func countingServer(t *testing.T) (*Server, *httptest.Server, *atomic.Int64) {
	t.Helper()
	calls := new(atomic.Int64)
	srv := New(Config{Solve: countingSolver(calls)})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, calls
}

// TestCacheEntriesReplicaStore: the JSON replica path validates and
// stores an entry once (stored / skipped on re-post), and the receiver
// then serves the instance from cache without invoking its solver.
func TestCacheEntriesReplicaStore(t *testing.T) {
	_, donorTS, _ := countingServer(t)
	_, rxTS, rxCalls := countingServer(t)

	inst := testInstance(5)
	solved := decode[api.SolveResponse](t, postJSON(t, donorTS.URL+"/v1/solve", api.SolveRequest{Instance: inst}))
	if solved.Schedule == nil || solved.Cached {
		t.Fatalf("donor solve: %+v", solved)
	}

	entry := api.CacheEntriesRequest{Entries: []api.CacheEntry{{
		Request:  &api.SolveRequest{Instance: inst},
		Response: solved,
	}}}
	out := decode[api.CacheEntriesResponse](t, postJSON(t, rxTS.URL+"/v1/cache/entries", entry))
	if out.Stored != 1 || out.Skipped != 0 || out.Rejected != 0 {
		t.Fatalf("first post: %+v, want 1 stored", out)
	}
	out = decode[api.CacheEntriesResponse](t, postJSON(t, rxTS.URL+"/v1/cache/entries", entry))
	if out.Stored != 0 || out.Skipped != 1 {
		t.Fatalf("re-post: %+v, want 1 skipped (local entry wins)", out)
	}

	// A shifted twin of the replicated instance is a cache hit on the
	// receiver: zero receiver solver invocations.
	shifted := ise.NewInstance(inst.T, inst.M)
	for _, j := range inst.Jobs {
		shifted.AddJob(j.Release+400, j.Deadline+400, j.Processing)
	}
	got := decode[api.SolveResponse](t, postJSON(t, rxTS.URL+"/v1/solve", api.SolveRequest{Instance: shifted}))
	if !got.Cached {
		t.Fatal("replicated entry missed on the receiver")
	}
	if got.Calibrations != solved.Calibrations {
		t.Fatalf("replicated answer has %d calibrations, donor solved %d", got.Calibrations, solved.Calibrations)
	}
	if rxCalls.Load() != 0 {
		t.Fatalf("receiver invoked its solver %d times", rxCalls.Load())
	}
}

// TestCacheEntriesRejectsInvalid: entries that fail validation — key
// mismatch, miscounted objective, infeasible schedule — are rejected
// per entry without failing the batch, and nothing is cached.
func TestCacheEntriesRejectsInvalid(t *testing.T) {
	_, donorTS, _ := countingServer(t)
	_, rxTS, rxCalls := countingServer(t)
	inst := testInstance(9)
	solved := decode[api.SolveResponse](t, postJSON(t, donorTS.URL+"/v1/solve", api.SolveRequest{Instance: inst}))

	keyMismatch := *solved
	keyMismatch.Key = strings.Repeat("0", 16)
	wrongCount := *solved
	wrongCount.Calibrations++
	req := api.CacheEntriesRequest{Entries: []api.CacheEntry{
		{Request: &api.SolveRequest{Instance: inst}, Response: &keyMismatch},
		{Request: &api.SolveRequest{Instance: inst}, Response: &wrongCount},
		{Request: nil, Response: solved},
		{Request: &api.SolveRequest{Instance: inst}, Response: nil},
	}}
	out := decode[api.CacheEntriesResponse](t, postJSON(t, rxTS.URL+"/v1/cache/entries", req))
	if out.Rejected != 4 || out.Stored != 0 {
		t.Fatalf("tampered entries: %+v, want 4 rejected", out)
	}

	// Nothing stuck: the instance still misses on the receiver.
	got := decode[api.SolveResponse](t, postJSON(t, rxTS.URL+"/v1/solve", api.SolveRequest{Instance: inst}))
	if got.Cached || rxCalls.Load() != 1 {
		t.Fatalf("rejected entry reached the cache (cached=%v calls=%d)", got.Cached, rxCalls.Load())
	}
}

// TestCacheEntriesTransferStream: the binary warm-transfer path — GET
// a donor's wire stream, POST it to a cold receiver — lands every
// entry, skips on replay, and the receiver serves from cache.
func TestCacheEntriesTransferStream(t *testing.T) {
	_, donorTS, _ := countingServer(t)
	_, rxTS, rxCalls := countingServer(t)
	// Distinct job shapes, not shifted twins: each must be its own
	// canonical key, or the donor holds one entry for all three.
	insts := make([]*ise.Instance, 3)
	for i := range insts {
		inst := ise.NewInstance(10, 1)
		inst.AddJob(0, ise.Time(40+10*i), 5)
		inst.AddJob(30, 70, 8)
		insts[i] = inst
	}
	for _, inst := range insts {
		decode[api.SolveResponse](t, postJSON(t, donorTS.URL+"/v1/solve", api.SolveRequest{Instance: inst}))
	}

	resp := httpGetOK(t, donorTS.URL+"/v1/cache/entries")
	wire, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	post := func() *api.CacheEntriesResponse {
		t.Helper()
		resp, err := http.Post(rxTS.URL+"/v1/cache/entries", "application/octet-stream", bytes.NewReader(wire))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("transfer status %d", resp.StatusCode)
		}
		return decode[api.CacheEntriesResponse](t, resp)
	}
	if out := post(); out.Stored != len(insts) || out.Rejected != 0 {
		t.Fatalf("transfer: %+v, want %d stored", out, len(insts))
	}
	if out := post(); out.Skipped != len(insts) || out.Stored != 0 {
		t.Fatalf("replayed transfer: %+v, want %d skipped", out, len(insts))
	}
	for _, inst := range insts {
		got := decode[api.SolveResponse](t, postJSON(t, rxTS.URL+"/v1/solve", api.SolveRequest{Instance: inst}))
		if !got.Cached {
			t.Fatal("transferred entry missed on the receiver")
		}
	}
	if rxCalls.Load() != 0 {
		t.Fatalf("receiver invoked its solver %d times after a full transfer", rxCalls.Load())
	}
}

// TestCacheEntriesTransferUnknownJob: a warm-transfer entry whose
// placement names a job its instance lacks passes the entry's
// structural checks and is stored, but every request for its key
// answers 500 from validation instead of crashing in
// de-canonicalization, and no solve runs.
func TestCacheEntriesTransferUnknownJob(t *testing.T) {
	_, ts, calls := countingServer(t)
	inst := testInstance(0)
	c := canon.Canonicalize(inst)
	_, bad := unknownJobEntry(t, c)
	resp, err := http.Post(ts.URL+"/v1/cache/entries", "application/octet-stream",
		bytes.NewReader(transferStream(t, c.Key, bad)))
	if err != nil {
		t.Fatal(err)
	}
	if out := decode[api.CacheEntriesResponse](t, resp); out.Stored != 1 || out.Rejected != 0 {
		t.Fatalf("transfer: %+v, want 1 stored", out)
	}
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/v1/solve", api.SolveRequest{Instance: inst})
		body := decode[api.Error](t, resp)
		if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(body.Error, "failed validation") {
			t.Fatalf("solve %d: status %d, error %q; want 500 from validation", i, resp.StatusCode, body.Error)
		}
	}
	if calls.Load() != 0 {
		t.Fatalf("solver invoked %d times for a cached key", calls.Load())
	}
}

// TestCacheEntriesLoopbackGuard: the auth-free transfer endpoint
// refuses non-loopback peers unless CacheTransferOpen opts in.
func TestCacheEntriesLoopbackGuard(t *testing.T) {
	closed := New(Config{})
	req := httptest.NewRequest(http.MethodPost, "/v1/cache/entries", strings.NewReader(`{"entries":[]}`))
	req.Header.Set("Content-Type", "application/json")
	req.RemoteAddr = "10.1.2.3:4444"
	rr := httptest.NewRecorder()
	closed.ServeHTTP(rr, req)
	if rr.Code != http.StatusForbidden {
		t.Fatalf("non-loopback peer: status %d, want 403", rr.Code)
	}

	open := New(Config{CacheTransferOpen: true})
	req = httptest.NewRequest(http.MethodPost, "/v1/cache/entries", strings.NewReader(`{"entries":[]}`))
	req.Header.Set("Content-Type", "application/json")
	req.RemoteAddr = "10.1.2.3:4444"
	rr = httptest.NewRecorder()
	open.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("opted-in non-loopback peer: status %d, want 200", rr.Code)
	}

	// Loopback always may.
	req = httptest.NewRequest(http.MethodPost, "/v1/cache/entries", strings.NewReader(`{"entries":[]}`))
	req.Header.Set("Content-Type", "application/json")
	req.RemoteAddr = "127.0.0.1:4444"
	rr = httptest.NewRecorder()
	closed.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("loopback peer: status %d, want 200", rr.Code)
	}
}

// TestSolvePeekProtocol: X-Fleet-Peek turns a cache miss into 204 No
// Content (no solve admitted, outcome still ok) and leaves hits
// untouched; a peek hit is stamped replica-hit in the flight recorder
// and addressable via /debug/requests?route=replica-hit.
func TestSolvePeekProtocol(t *testing.T) {
	_, ts, calls := countingServer(t)
	inst := testInstance(21)
	buf, err := json.Marshal(api.SolveRequest{Instance: inst})
	if err != nil {
		t.Fatal(err)
	}
	peek := func(id string) *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(buf))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-Id", id)
		req.Header.Set(api.HeaderPeek, "1")
		req.Header.Set("X-Fleet-Route", "replica-peek")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	missResp := peek("peek-miss-1")
	io.Copy(io.Discard, missResp.Body)
	missResp.Body.Close()
	if missResp.StatusCode != http.StatusNoContent {
		t.Fatalf("peek on a cold cache: status %d, want 204", missResp.StatusCode)
	}
	if calls.Load() != 0 {
		t.Fatal("peek miss admitted a solve")
	}

	decode[api.SolveResponse](t, postJSON(t, ts.URL+"/v1/solve", api.SolveRequest{Instance: inst}))
	hitResp := peek("peek-hit-1")
	hit := decode[api.SolveResponse](t, hitResp)
	if hitResp.StatusCode != http.StatusOK || !hit.Cached {
		t.Fatalf("peek on a warm cache: status %d cached %v", hitResp.StatusCode, hit.Cached)
	}
	if calls.Load() != 1 {
		t.Fatalf("solver invocations = %d, want 1 (the real solve only)", calls.Load())
	}

	// The flight recorder: the hit is addressable by its replica-hit
	// route, the miss is an ok outcome with cache=peek-miss.
	list := decode[debugRequestList](t, httpGetOK(t, ts.URL+"/debug/requests?route=replica-hit"))
	if len(list.Requests) != 1 || list.Requests[0].ID != "peek-hit-1" {
		t.Fatalf("?route=replica-hit -> %+v", list.Requests)
	}
	if got := list.Requests[0].FleetRoute; got != "replica-hit" {
		t.Fatalf("recorded fleet route = %q", got)
	}
	all := decode[debugRequestList](t, httpGetOK(t, ts.URL+"/debug/requests"))
	var miss *Record
	for i := range all.Requests {
		if all.Requests[i].ID == "peek-miss-1" {
			miss = &all.Requests[i]
		}
	}
	if miss == nil {
		t.Fatal("peek miss not recorded")
	}
	if miss.Cache != "peek-miss" || miss.Outcome != "ok" || miss.Status != http.StatusNoContent {
		t.Fatalf("peek miss record = %+v", miss)
	}
}

// TestOverflowingTimesRejected: times near 2^63 must not slip past the
// checks by wrapping around int64. A replica entry whose placement
// starts at 2^63-2 inside a calibration at 2^63-4 (the job's window is
// [0, 20)) is rejected and never served, and an instance whose window
// [2^63-3, 2^63-1) is shorter than its job's processing time is a 400,
// not a solver failure.
func TestOverflowingTimesRejected(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const top = ise.Time(1<<63 - 1)
	inst := ise.NewInstance(10, 1)
	inst.AddJob(0, 20, 5)
	sched := ise.NewSchedule(1)
	sched.Calibrate(0, top-3)
	sched.Place(0, 0, top-1)
	entry := api.CacheEntriesRequest{Entries: []api.CacheEntry{{
		Request: &api.SolveRequest{Instance: inst},
		Response: &api.SolveResponse{
			Key:          keyString(canon.Key(inst)),
			Schedule:     sched,
			Calibrations: 1,
			MachinesUsed: 1,
			Components:   1,
		},
	}}}
	out := decode[api.CacheEntriesResponse](t, postJSON(t, ts.URL+"/v1/cache/entries", entry))
	if out.Rejected != 1 || out.Stored != 0 {
		t.Fatalf("overflowing replica entry: %+v, want 1 rejected", out)
	}
	got := decode[api.SolveResponse](t, postJSON(t, ts.URL+"/v1/solve", api.SolveRequest{Instance: inst}))
	if got.Cached {
		t.Fatal("rejected replica entry was served from cache")
	}
	if err := ise.Validate(inst, got.Schedule); err != nil {
		t.Fatalf("solved schedule infeasible: %v", err)
	}

	wraps := ise.NewInstance(10, 1)
	wraps.AddJob(top-2, top, 5)
	resp := postJSON(t, ts.URL+"/v1/solve", api.SolveRequest{Instance: wraps})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("window [2^63-3, 2^63-1) with p = 5: status %d, want 400", resp.StatusCode)
	}
}
