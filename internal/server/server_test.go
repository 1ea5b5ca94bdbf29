package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"calib/api"
	"calib/internal/heur"
	"calib/internal/ise"
	"calib/internal/obs"
	"calib/internal/robust"
)

func testInstance(offset ise.Time) *ise.Instance {
	inst := ise.NewInstance(10, 1)
	inst.AddJob(offset, offset+40, 5)
	inst.AddJob(offset+30, offset+70, 8)
	return inst
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) *T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return &v
}

// countingSolver wraps the lazy heuristic and counts engine
// invocations, so tests can assert what the cache absorbed.
func countingSolver(calls *atomic.Int64) SolveFunc {
	return func(_ context.Context, inst *ise.Instance, _ time.Duration, _ int64) (*Result, error) {
		calls.Add(1)
		sched, err := heur.Lazy(inst, heur.Options{})
		if err != nil {
			return nil, err
		}
		return &Result{
			Schedule:     sched,
			Calibrations: sched.NumCalibrations(),
			MachinesUsed: sched.MachinesUsed(),
			Components:   1,
		}, nil
	}
}

func TestSolveEndToEnd(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	inst := testInstance(0)
	resp := postJSON(t, ts.URL+"/v1/solve", api.SolveRequest{Instance: inst})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out := decode[api.SolveResponse](t, resp)
	if out.Schedule == nil || out.Calibrations != out.Schedule.NumCalibrations() {
		t.Fatalf("bad response: %+v", out)
	}
	if err := ise.Validate(inst, out.Schedule); err != nil {
		t.Fatalf("returned schedule infeasible: %v", err)
	}
	if out.Cached {
		t.Error("first solve reported cached")
	}
	if out.Key == "" {
		t.Error("missing canonical key")
	}
}

// TestCacheServesEquivalentInstances is the acceptance check:
// identical re-solves — including shifted/permuted twins — come from
// the cache without invoking a solver engine, and the response is
// expressed in the requester's own time frame.
func TestCacheServesEquivalentInstances(t *testing.T) {
	var calls atomic.Int64
	reg := obs.NewRegistry()
	srv := New(Config{Solve: countingSolver(&calls), Metrics: reg})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	first := decode[api.SolveResponse](t, postJSON(t, ts.URL+"/v1/solve", api.SolveRequest{Instance: testInstance(0)}))
	if first.Cached {
		t.Fatal("first solve cached")
	}
	// Identical instance.
	second := decode[api.SolveResponse](t, postJSON(t, ts.URL+"/v1/solve", api.SolveRequest{Instance: testInstance(0)}))
	if !second.Cached {
		t.Fatal("identical re-solve missed the cache")
	}
	// Shifted twin: same canonical key, schedule translated.
	shifted := testInstance(500)
	third := decode[api.SolveResponse](t, postJSON(t, ts.URL+"/v1/solve", api.SolveRequest{Instance: shifted}))
	if !third.Cached {
		t.Fatal("shifted twin missed the cache")
	}
	if third.Key != first.Key {
		t.Fatalf("keys differ: %s vs %s", third.Key, first.Key)
	}
	if err := ise.Validate(shifted, third.Schedule); err != nil {
		t.Fatalf("de-canonicalized schedule infeasible: %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("solver engine invoked %d times, want 1", got)
	}
	if hits := reg.Counter(obs.MCacheHits).Value(); hits < 2 {
		t.Fatalf("cache_hits_total = %d, want >= 2", hits)
	}
}

// TestCacheMissesCountSolves: cache_misses_total counts one miss per
// solve that ran, a peek that missed counts none, and a twin answered
// from the cache counts one hit. The healthz body reports the same
// counters.
func TestCacheMissesCountSolves(t *testing.T) {
	reg := obs.NewRegistry()
	ts := httptest.NewServer(New(Config{Metrics: reg}))
	defer ts.Close()

	const k = 3
	for i := 0; i < k; i++ {
		inst := testInstance(0)
		inst.Jobs[0].Processing += ise.Time(i)
		resp := postJSON(t, ts.URL+"/v1/solve", api.SolveRequest{Instance: inst})
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: status %d", i, resp.StatusCode)
		}
	}
	twin := decode[api.SolveResponse](t, postJSON(t, ts.URL+"/v1/solve", api.SolveRequest{Instance: testInstance(500)}))
	if !twin.Cached {
		t.Fatal("shifted twin missed the cache")
	}
	unsolved := testInstance(0)
	unsolved.Jobs[0].Processing += k
	body, err := json.Marshal(api.SolveRequest{Instance: unsolved})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(api.HeaderPeek, "1")
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("peek for an unsolved instance: status %d, want 204", resp.StatusCode)
	}

	misses := reg.Counter(obs.MCacheMisses).Value()
	hits := reg.Counter(obs.MCacheHits).Value()
	solves := reg.Histogram(obs.MSolveSeconds, nil).Count()
	if misses != k || solves != k || hits != 1 {
		t.Errorf("cache_misses_total %d, solve_seconds count %d, cache_hits_total %d; want %d, %d, 1", misses, solves, hits, k, k)
	}
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if h := decode[api.Health](t, resp); h.CacheMisses != k || h.CacheHits != 1 {
		t.Errorf("healthz cache_misses %d, cache_hits %d; want %d, 1", h.CacheMisses, h.CacheHits, k)
	}
}

// TestShedsWith429AndRetryAfter: with one slot, no queue, and a
// solver parked on a barrier, a second request must shed immediately
// with 429, the fixed 1 s Retry-After header, and a JSON body echoing
// the hint.
func TestShedsWith429AndRetryAfter(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{})
	slow := func(_ context.Context, inst *ise.Instance, _ time.Duration, _ int64) (*Result, error) {
		close(entered)
		<-block
		sched, err := heur.Lazy(inst, heur.Options{})
		if err != nil {
			return nil, err
		}
		return &Result{Schedule: sched, Calibrations: sched.NumCalibrations(), MachinesUsed: sched.MachinesUsed()}, nil
	}
	reg := obs.NewRegistry()
	srv := New(Config{MaxInFlight: 1, MaxQueue: -1, Solve: slow, Metrics: reg})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	done := make(chan *http.Response, 1)
	go func() {
		buf, _ := json.Marshal(api.SolveRequest{Instance: testInstance(0)})
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(buf))
		if err == nil {
			done <- resp
		}
	}()
	<-entered // the slot is now held

	resp := postJSON(t, ts.URL+"/v1/solve", api.SolveRequest{Instance: testInstance(1000)})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", ra)
	}
	body := decode[api.Error](t, resp)
	if body.RetryAfterSeconds != 1 || body.Error == "" {
		t.Fatalf("shed body = %+v", body)
	}
	if shed := reg.Counter(obs.MServiceShed).Value(); shed != 1 {
		t.Fatalf("service_shed_total = %d, want 1", shed)
	}

	close(block)
	first := <-done
	if first.StatusCode != http.StatusOK {
		t.Fatalf("blocked request finished with %d", first.StatusCode)
	}
	first.Body.Close()
}

func TestBatchDedupsEquivalentInstances(t *testing.T) {
	var calls atomic.Int64
	srv := New(Config{Solve: countingSolver(&calls)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	instances := []*ise.Instance{
		testInstance(0),
		testInstance(700), // shifted twin of [0]
		testInstance(0),   // identical to [0]
		func() *ise.Instance { // genuinely different
			in := ise.NewInstance(10, 1)
			in.AddJob(0, 25, 9)
			return in
		}(),
	}
	resp := postJSON(t, ts.URL+"/v1/batch", api.BatchRequest{Instances: instances})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out := decode[api.BatchResponse](t, resp)
	if len(out.Results) != len(instances) {
		t.Fatalf("results = %d, want %d", len(out.Results), len(instances))
	}
	for i, res := range out.Results {
		if res == nil || res.Error != "" || res.SolveResponse == nil {
			t.Fatalf("result %d failed: %+v", i, res)
		}
		if err := ise.Validate(instances[i], res.Schedule); err != nil {
			t.Fatalf("result %d infeasible: %v", i, err)
		}
	}
	if out.Results[0].Key != out.Results[1].Key || out.Results[0].Key != out.Results[2].Key {
		t.Error("equivalent instances got different keys")
	}
	if out.Results[3].Key == out.Results[0].Key {
		t.Error("distinct instance shares a key")
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("solver engine invoked %d times for the batch, want 2", got)
	}
}

func TestBadRequests(t *testing.T) {
	srv := New(Config{Solve: countingSolver(new(atomic.Int64))})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	cases := []struct {
		name   string
		do     func() *http.Response
		status int
	}{
		{"solve GET", func() *http.Response {
			r, _ := http.Get(ts.URL + "/v1/solve")
			return r
		}, http.StatusMethodNotAllowed},
		{"healthz POST", func() *http.Response {
			return postJSON(t, ts.URL+"/v1/healthz", struct{}{})
		}, http.StatusMethodNotAllowed},
		{"solve garbage", func() *http.Response {
			r, _ := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader([]byte("{")))
			return r
		}, http.StatusBadRequest},
		{"solve no instance", func() *http.Response {
			return postJSON(t, ts.URL+"/v1/solve", api.SolveRequest{})
		}, http.StatusBadRequest},
		{"solve malformed instance", func() *http.Response {
			in := ise.NewInstance(10, 1)
			in.AddJob(0, 4, 11) // p > T
			return postJSON(t, ts.URL+"/v1/solve", api.SolveRequest{Instance: in})
		}, http.StatusBadRequest},
		{"batch empty", func() *http.Response {
			return postJSON(t, ts.URL+"/v1/batch", api.BatchRequest{})
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp := tc.do()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		resp.Body.Close()
	}
}

func TestSolverErrorMapsToStatus(t *testing.T) {
	infeasible := func(context.Context, *ise.Instance, time.Duration, int64) (*Result, error) {
		return nil, robust.Errf(robust.ErrInfeasible, "lp", -1, nil)
	}
	srv := New(Config{Solve: infeasible})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp := postJSON(t, ts.URL+"/v1/solve", api.SolveRequest{Instance: testInstance(0)})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", resp.StatusCode)
	}
	body := decode[api.Error](t, resp)
	if body.Error == "" {
		t.Error("missing error body")
	}
}

func TestHealthz(t *testing.T) {
	var calls atomic.Int64
	srv := New(Config{Solve: countingSolver(&calls), MaxInFlight: 7})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	postJSON(t, ts.URL+"/v1/solve", api.SolveRequest{Instance: testInstance(0)}).Body.Close()
	postJSON(t, ts.URL+"/v1/solve", api.SolveRequest{Instance: testInstance(0)}).Body.Close()

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h := decode[api.Health](t, resp)
	if h.Status != "ok" {
		t.Errorf("status = %q", h.Status)
	}
	if h.MaxInFlight != 7 || h.InFlight != 0 {
		t.Errorf("in-flight: %+v", h)
	}
	if h.CacheEntries != 1 || h.CacheHits < 1 {
		t.Errorf("cache stats: %+v", h)
	}
	if h.UptimeSeconds < 0 {
		t.Errorf("uptime: %v", h.UptimeSeconds)
	}
}

// TestTimeoutClamp: the server must clamp a request's timeout to its
// configured maximum and pass the result to the solver.
func TestTimeoutClamp(t *testing.T) {
	var got atomic.Int64
	spy := func(_ context.Context, inst *ise.Instance, timeout time.Duration, _ int64) (*Result, error) {
		got.Store(int64(timeout))
		sched, err := heur.Lazy(inst, heur.Options{})
		if err != nil {
			return nil, err
		}
		return &Result{Schedule: sched, Calibrations: sched.NumCalibrations(), MachinesUsed: sched.MachinesUsed()}, nil
	}
	srv := New(Config{Solve: spy, MaxTimeout: 2 * time.Second, CacheEntries: -1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for i, tc := range []struct {
		askMillis int64
		want      time.Duration
	}{
		{0, 2 * time.Second},          // default: the cap
		{500, 500 * time.Millisecond}, // tighter than the cap: honored
		{10_000, 2 * time.Second},     // looser than the cap: clamped
	} {
		req := api.SolveRequest{Instance: testInstance(ise.Time(1000 * i))}
		req.TimeoutMillis = tc.askMillis
		postJSON(t, ts.URL+"/v1/solve", req).Body.Close()
		if d := time.Duration(got.Load()); d != tc.want {
			t.Errorf("ask %dms: solver saw %v, want %v", tc.askMillis, d, tc.want)
		}
	}
}

// TestRealSolverDegradesUnderTimeout exercises the robust wiring end
// to end: an effectively expired per-request timeout still answers
// with a feasible (degraded) schedule, because the service solves
// through the degradation ladder.
func TestRealSolverDegradesUnderTimeout(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	inst := ise.NewInstance(10, 2)
	for i := 0; i < 24; i++ {
		off := ise.Time(i * 3)
		inst.AddJob(off, off+25, 1+ise.Time(i%9))
	}
	req := api.SolveRequest{Instance: inst}
	req.TimeoutMillis = 1 // expires immediately: the ladder's last rung answers
	resp := postJSON(t, ts.URL+"/v1/solve", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 even under an expired timeout", resp.StatusCode)
	}
	out := decode[api.SolveResponse](t, resp)
	if err := ise.Validate(inst, out.Schedule); err != nil {
		t.Fatalf("degraded schedule infeasible: %v", err)
	}
}

// TestDrainSequencing is the drain-aware shutdown contract: healthz is
// 200 before BeginDrain, 503 with "draining": true after — while
// /v1/solve keeps answering — so a load balancer stops routing before
// the listener ever closes.
func TestDrainSequencing(t *testing.T) {
	var calls atomic.Int64
	srv := New(Config{Solve: countingSolver(&calls)})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain healthz = %d", resp.StatusCode)
	}
	if h := decode[api.Health](t, resp); h.Draining || h.Status != "ok" {
		t.Fatalf("pre-drain health body: %+v", h)
	}

	srv.BeginDrain()
	srv.BeginDrain() // idempotent
	if !srv.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", resp.StatusCode)
	}
	h := decode[api.Health](t, resp)
	if !h.Draining || h.Status != "draining" {
		t.Fatalf("draining health body: %+v", h)
	}

	// In-flight traffic still works during the drain window.
	sresp := postJSON(t, ts.URL+"/v1/solve", api.SolveRequest{Instance: testInstance(0)})
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("solve during drain = %d, want 200", sresp.StatusCode)
	}
	sresp.Body.Close()
}

// TestCachePersistenceAcrossRestart simulates the daemon lifecycle:
// serve, save, "crash", boot a fresh server from the snapshot, and
// assert the old cache hits come back without the solver running.
func TestCachePersistenceAcrossRestart(t *testing.T) {
	path := t.TempDir() + "/cache.snap"
	var calls atomic.Int64
	srv := New(Config{Solve: countingSolver(&calls)})
	ts := httptest.NewServer(srv)
	inst := testInstance(0)
	first := decode[api.SolveResponse](t, postJSON(t, ts.URL+"/v1/solve", api.SolveRequest{Instance: inst}))
	if n, err := srv.SaveCache(path); err != nil || n == 0 {
		t.Fatalf("SaveCache: (%d, %v)", n, err)
	}
	ts.Close()

	var calls2 atomic.Int64
	srv2 := New(Config{Solve: countingSolver(&calls2)})
	if st, err := srv2.LoadCache(path); err != nil || st.Restored == 0 || st.Corrupt != 0 {
		t.Fatalf("LoadCache: (%+v, %v)", st, err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	out := decode[api.SolveResponse](t, postJSON(t, ts2.URL+"/v1/solve", api.SolveRequest{Instance: inst}))
	if !out.Cached {
		t.Fatal("restored server did not serve from cache")
	}
	if calls2.Load() != 0 {
		t.Fatalf("restored server invoked the solver %d times", calls2.Load())
	}
	if out.Calibrations != first.Calibrations || out.Key != first.Key {
		t.Fatalf("restored answer differs: %+v vs %+v", out, first)
	}
	if err := ise.Validate(inst, out.Schedule); err != nil {
		t.Fatalf("restored schedule infeasible: %v", err)
	}
}

// TestLoadCacheMissingFileIsCleanBoot: no snapshot file means a cold
// start, not an error.
func TestLoadCacheMissingFileIsCleanBoot(t *testing.T) {
	srv := New(Config{})
	st, err := srv.LoadCache(t.TempDir() + "/nope.snap")
	if err != nil || st.Restored != 0 || st.Corrupt != 0 {
		t.Fatalf("missing snapshot: (%+v, %v)", st, err)
	}
}

// TestDecodeResultRejectsGarbage: a snapshot entry that decodes but is
// structurally broken (no schedule, inconsistent counts) must be
// treated as corrupt, never served.
func TestDecodeResultRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		`{}`,
		`{"Calibrations": 3}`,
		`{"Schedule": {"machines": 1, "speed": 1}, "Calibrations": 99}`,
		`not json`,
	} {
		if _, err := decodeResult([]byte(bad)); err == nil {
			t.Errorf("decodeResult accepted %q", bad)
		}
	}
}
