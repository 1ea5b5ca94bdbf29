package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"calib/api"
	"calib/internal/canon"
	"calib/internal/heur"
	"calib/internal/ise"
	"calib/internal/obs"
	"calib/internal/server"
)

// testBackend is one real ised server (internal/server) with its
// solver invocations counted, so tests can assert what the fleet's
// cache affinity absorbed.
type testBackend struct {
	name  string
	ts    *httptest.Server
	srv   *server.Server
	calls atomic.Int64
	// gate, when non-nil, blocks every solver invocation until a token
	// arrives — the lever for saturating one node's admission.
	gate chan struct{}
}

func (b *testBackend) solve(_ context.Context, inst *ise.Instance, _ time.Duration, _ int64) (*server.Result, error) {
	b.calls.Add(1)
	if b.gate != nil {
		<-b.gate
	}
	sched, err := heur.Lazy(inst, heur.Options{})
	if err != nil {
		return nil, err
	}
	return &server.Result{
		Schedule:     sched,
		Calibrations: sched.NumCalibrations(),
		MachinesUsed: sched.MachinesUsed(),
		Components:   1,
	}, nil
}

// startFleet boots n counting backends plus a Fleet over them (prober
// not started; tests drive ProbeAll directly) and the router's HTTP
// front. mutateSrv/mutateFleet tune the configs before boot.
func startFleet(t *testing.T, n int, mutateSrv func(i int, cfg *server.Config), mutateFleet func(*Config)) ([]*testBackend, *Fleet, *httptest.Server) {
	t.Helper()
	backends := make([]*testBackend, n)
	members := make([]Member, n)
	for i := range backends {
		b := &testBackend{name: fmt.Sprintf("n%d", i)}
		cfg := server.Config{Solve: b.solve}
		if mutateSrv != nil {
			mutateSrv(i, &cfg)
		}
		b.srv = server.New(cfg)
		b.ts = httptest.NewServer(b.srv)
		t.Cleanup(b.ts.Close)
		backends[i] = b
		members[i] = Member{Name: b.name, URL: b.ts.URL}
	}
	cfg := Config{Members: members, FailAfter: 2, ReadmitAfter: 1, Metrics: obs.NewRegistry()}
	if mutateFleet != nil {
		mutateFleet(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	router := httptest.NewServer(NewRouter(f))
	t.Cleanup(router.Close)
	return backends, f, router
}

// makeInst builds the i-th member of a family of instances with
// pairwise-distinct canonical keys (the deadlines encode i).
func makeInst(i int) *ise.Instance {
	inst := ise.NewInstance(10, 1)
	inst.AddJob(0, 20+ise.Time(i), 3)
	inst.AddJob(5, 40+2*ise.Time(i), 7)
	return inst
}

// findOwned returns an instance (and its index) whose canonical key
// the given node owns, scanning the makeInst family from `from`.
func findOwned(t *testing.T, f *Fleet, owner string, from int) (*ise.Instance, int) {
	t.Helper()
	for i := from; i < from+10000; i++ {
		inst := makeInst(i)
		if f.Owner(canon.Key(inst)) == owner {
			return inst, i
		}
	}
	t.Fatalf("no makeInst instance owned by %s in 10000 tries", owner)
	return nil, 0
}

func postSolve(t *testing.T, url string, inst *ise.Instance) (*http.Response, *api.SolveResponse) {
	t.Helper()
	buf, err := json.Marshal(api.SolveRequest{Instance: inst})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/solve", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out api.SolveResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding solve response: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, &out
}

func totalCalls(backends []*testBackend) int64 {
	var total int64
	for _, b := range backends {
		total += b.calls.Load()
	}
	return total
}

// TestFleetAffinityInvariant is the tentpole acceptance test: two
// equivalent instances — one a shifted, job-reordered variant of the
// other — sent through the router land on the same backend, the second
// is served from that backend's cache, and exactly one solver
// invocation happens fleet-wide.
func TestFleetAffinityInvariant(t *testing.T) {
	backends, _, router := startFleet(t, 3, nil, nil)

	orig := ise.NewInstance(10, 1)
	orig.AddJob(0, 40, 5)
	orig.AddJob(30, 70, 8)

	// Same jobs shifted by +500 and added in the opposite order:
	// canonicalization erases both, so the wire bytes differ but the
	// canonical key — and therefore the ring owner — must not.
	variant := ise.NewInstance(10, 1)
	variant.AddJob(530, 570, 8)
	variant.AddJob(500, 540, 5)
	if canon.Key(orig) != canon.Key(variant) {
		t.Fatal("test premise broken: variant has a different canonical key")
	}

	resp1, out1 := postSolve(t, router.URL, orig)
	if resp1.StatusCode != http.StatusOK || out1.Cached {
		t.Fatalf("first solve: status %d cached %v", resp1.StatusCode, out1.Cached)
	}
	node1 := resp1.Header.Get(HeaderNode)
	if node1 == "" {
		t.Fatal("router response missing X-Fleet-Node")
	}
	if got := resp1.Header.Get(HeaderRoute); got != "affinity" {
		t.Fatalf("X-Fleet-Route = %q, want affinity", got)
	}
	if got := resp1.Header.Get(HeaderOwner); got != node1 {
		t.Fatalf("owner hint %q != serving node %q on an affinity route", got, node1)
	}

	resp2, out2 := postSolve(t, router.URL, variant)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("variant solve: status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get(HeaderNode); got != node1 {
		t.Fatalf("variant routed to %s, original to %s: affinity broken", got, node1)
	}
	if !out2.Cached {
		t.Fatal("equivalent variant missed the owner's cache")
	}
	if got := totalCalls(backends); got != 1 {
		t.Fatalf("fleet-wide solver invocations = %d, want exactly 1", got)
	}
}

// TestCacheHitBypassesAdmissionFleetWide pins the invariant through
// distribution: a cache hit on the owner must not consume an admission
// slot, so even with the owner's admission fully saturated (1 slot,
// no queue, a solve parked inside), an equivalent re-ask still answers
// 200 from cache — no spillover, no shed.
func TestCacheHitBypassesAdmissionFleetWide(t *testing.T) {
	backends, f, router := startFleet(t, 3,
		func(_ int, cfg *server.Config) {
			cfg.MaxInFlight = 1
			cfg.MaxQueue = -1 // shed immediately when the slot is taken
		}, nil)
	for _, b := range backends {
		b.gate = make(chan struct{}, 64)
	}

	// Cache a solve on its owner.
	cached, idx := findOwned(t, f, backends[0].name, 0)
	backends[0].gate <- struct{}{} // let the priming solve through
	if resp, out := postSolve(t, router.URL, cached); resp.StatusCode != http.StatusOK || out.Cached {
		t.Fatalf("priming solve: status %d cached %v", resp.StatusCode, out.Cached)
	}

	// Park a different solve (same owner) inside the solver, pinning the
	// owner's only admission slot.
	blocker, _ := findOwned(t, f, backends[0].name, idx+1)
	before := backends[0].calls.Load()
	parkDone := make(chan struct{})
	go func() {
		defer close(parkDone)
		postSolve(t, router.URL, blocker) // blocks until the gate feeds it
	}()
	deadline := time.Now().Add(10 * time.Second)
	for backends[0].calls.Load() == before {
		if time.Now().After(deadline) {
			t.Fatal("blocker never reached the owner's solver")
		}
		time.Sleep(time.Millisecond)
	}

	// The owner's admission is saturated. An equivalent of the cached
	// instance (shifted: same canonical key) must still be a cache hit
	// on the owner — not a 429, not a spillover.
	shifted := ise.NewInstance(10, 1)
	for _, j := range cached.Jobs {
		shifted.AddJob(j.Release+1000, j.Deadline+1000, j.Processing)
	}
	if canon.Key(shifted) != canon.Key(cached) {
		t.Fatal("test premise broken: shifted twin has a different key")
	}
	resp, out := postSolve(t, router.URL, shifted)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache hit sheddable: status %d with owner admission saturated", resp.StatusCode)
	}
	if !out.Cached {
		t.Fatal("re-ask was not served from cache")
	}
	if got := resp.Header.Get(HeaderNode); got != backends[0].name {
		t.Fatalf("cache hit served by %s, want owner %s", got, backends[0].name)
	}
	if got := resp.Header.Get(HeaderRoute); got != "affinity" {
		t.Fatalf("X-Fleet-Route = %q, want affinity", got)
	}
	if got := f.cfg.Metrics.CounterWith(obs.MFleetSpillover, "reason", SpillShed).Value(); got != 0 {
		t.Fatalf("spillover counted on a cache hit: %d", got)
	}

	backends[0].gate <- struct{}{} // release the parked solve
	<-parkDone
}

// TestSpilloverOn429: when the affinity owner sheds (429), the router
// fails the request over to the next ring replica and counts the
// spillover with reason "shed".
func TestSpilloverOn429(t *testing.T) {
	backends, f, router := startFleet(t, 3,
		func(_ int, cfg *server.Config) {
			cfg.MaxInFlight = 1
			cfg.MaxQueue = -1
		}, nil)
	byName := map[string]*testBackend{}
	for _, b := range backends {
		byName[b.name] = b
	}
	owner := backends[0]
	owner.gate = make(chan struct{}, 64)

	// Saturate the owner: park one solve inside it.
	blocker, idx := findOwned(t, f, owner.name, 0)
	parkDone := make(chan struct{})
	go func() {
		defer close(parkDone)
		postSolve(t, router.URL, blocker)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for owner.calls.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never reached the owner's solver")
		}
		time.Sleep(time.Millisecond)
	}

	// A fresh instance owned by the saturated node must spill to a
	// replica and still succeed.
	fresh, _ := findOwned(t, f, owner.name, idx+1)
	resp, out := postSolve(t, router.URL, fresh)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spillover solve failed: status %d", resp.StatusCode)
	}
	if out.Cached {
		t.Fatal("fresh instance reported cached")
	}
	served := resp.Header.Get(HeaderNode)
	if served == owner.name {
		t.Fatal("request served by the saturated owner")
	}
	if got := resp.Header.Get(HeaderOwner); got != owner.name {
		t.Fatalf("owner hint = %q, want %q", got, owner.name)
	}
	if got := resp.Header.Get(HeaderRoute); got != "spillover:"+SpillShed {
		t.Fatalf("X-Fleet-Route = %q, want spillover:%s", got, SpillShed)
	}
	if got := f.cfg.Metrics.CounterWith(obs.MFleetSpillover, "reason", SpillShed).Value(); got != 1 {
		t.Fatalf("fleet_spillover_total{reason=shed} = %d, want 1", got)
	}
	if b := byName[served]; b.calls.Load() != 1 {
		t.Fatalf("spillover target solved %d times, want 1", b.calls.Load())
	}

	owner.gate <- struct{}{}
	<-parkDone
}

// TestSpilloverUnhealthyOwner: an ejected owner is routed around at
// selection time, counted with reason "unhealthy", and the same key
// consistently lands on its first surviving replica.
func TestSpilloverUnhealthyOwner(t *testing.T) {
	backends, f, router := startFleet(t, 3, nil, nil)
	owner := backends[1]
	inst, _ := findOwned(t, f, owner.name, 0)

	// Kill the owner and let two probe rounds eject it (FailAfter=2).
	owner.ts.Close()
	f.ProbeAll(context.Background())
	f.ProbeAll(context.Background())
	if f.view.Load().byName[owner.name].Healthy() {
		t.Fatal("dead backend not ejected after FailAfter probe rounds")
	}

	resp1, _ := postSolve(t, router.URL, inst)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("solve with dead owner: status %d", resp1.StatusCode)
	}
	served := resp1.Header.Get(HeaderNode)
	if served == owner.name {
		t.Fatal("served by the ejected owner")
	}
	if got := resp1.Header.Get(HeaderRoute); got != "spillover:"+SpillUnhealthy {
		t.Fatalf("X-Fleet-Route = %q, want spillover:%s", got, SpillUnhealthy)
	}
	if got := f.cfg.Metrics.CounterWith(obs.MFleetSpillover, "reason", SpillUnhealthy).Value(); got != 1 {
		t.Fatalf("fleet_spillover_total{reason=unhealthy} = %d, want 1", got)
	}

	// The fallback is sticky: a shifted twin hits the same survivor's
	// cache (degraded-mode affinity).
	shifted := ise.NewInstance(10, 1)
	for _, j := range inst.Jobs {
		shifted.AddJob(j.Release+700, j.Deadline+700, j.Processing)
	}
	resp2, out2 := postSolve(t, router.URL, shifted)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get(HeaderNode) != served {
		t.Fatalf("twin routed to %s (status %d), want %s", resp2.Header.Get(HeaderNode), resp2.StatusCode, served)
	}
	if !out2.Cached {
		t.Fatal("twin missed the surviving replica's cache")
	}
}

// TestBatchSplitsByOwnerAndReassembles: a mixed batch fans out to the
// owners as per-node sub-batches and comes back in request order, with
// unroutable rows failing locally.
func TestBatchSplitsByOwnerAndReassembles(t *testing.T) {
	backends, f, router := startFleet(t, 3, nil, nil)

	const rows = 12
	req := api.BatchRequest{}
	wantOwner := make([]string, 0, rows)
	for i := 0; i < rows; i++ {
		inst := makeInst(100 + 7*i)
		req.Instances = append(req.Instances, inst)
		wantOwner = append(wantOwner, f.Owner(canon.Key(inst)))
	}
	req.Instances = append(req.Instances, nil) // row 12: unroutable
	bad := ise.NewInstance(10, 1)
	bad.AddJob(50, 10, 5)                      // deadline before release: invalid
	req.Instances = append(req.Instances, bad) // row 13: invalid

	buf, _ := json.Marshal(req)
	resp, err := http.Post(router.URL+"/v1/batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	var out api.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != rows+2 {
		t.Fatalf("results = %d rows, want %d", len(out.Results), rows+2)
	}
	owners := map[string]bool{}
	for i := 0; i < rows; i++ {
		r := out.Results[i]
		if r == nil || r.Error != "" || r.SolveResponse == nil || r.Schedule == nil {
			t.Fatalf("row %d: %+v", i, r)
		}
		owners[wantOwner[i]] = true
	}
	if out.Results[rows] == nil || !strings.Contains(out.Results[rows].Error, "missing instance") {
		t.Fatalf("nil row result = %+v", out.Results[rows])
	}
	if out.Results[rows+1] == nil || out.Results[rows+1].Error == "" {
		t.Fatalf("invalid row result = %+v", out.Results[rows+1])
	}
	if len(owners) < 2 {
		t.Fatalf("test premise weak: all rows owned by %v", owners)
	}
	// Every row was solved exactly once, and only owners solved.
	if got := totalCalls(backends); got != rows {
		t.Fatalf("fleet-wide solver invocations = %d, want %d", got, rows)
	}
	for _, b := range backends {
		if b.calls.Load() > 0 && !owners[b.name] {
			t.Errorf("non-owner %s solved %d rows", b.name, b.calls.Load())
		}
	}
}

// TestRouterHealthz: the fleet health view aggregates per-node health
// into ok / degraded / down, answering 503 only when nothing can serve.
func TestRouterHealthz(t *testing.T) {
	backends, f, router := startFleet(t, 3, nil, nil)
	get := func() (int, *api.FleetHealth) {
		t.Helper()
		resp, err := http.Get(router.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var fh api.FleetHealth
		if err := json.NewDecoder(resp.Body).Decode(&fh); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, &fh
	}

	status, fh := get()
	if status != http.StatusOK || fh.Status != "ok" || fh.HealthyNodes != 3 || len(fh.Nodes) != 3 {
		t.Fatalf("all-healthy: status %d, %+v", status, fh)
	}
	if fh.RingPoints != 3*DefaultReplicas {
		t.Fatalf("health metadata: %+v", fh)
	}

	f.view.Load().byName[backends[0].name].state.Store(nodeEjected)
	status, fh = get()
	if status != http.StatusOK || fh.Status != "degraded" || fh.HealthyNodes != 2 {
		t.Fatalf("degraded: status %d, %+v", status, fh)
	}

	for _, b := range backends {
		f.view.Load().byName[b.name].state.Store(nodeEjected)
	}
	status, fh = get()
	if status != http.StatusServiceUnavailable || fh.Status != "down" {
		t.Fatalf("down: status %d, %+v", status, fh)
	}
}

// TestRouterValidation: malformed requests fail at the router with the
// backends untouched.
func TestRouterValidation(t *testing.T) {
	backends, _, router := startFleet(t, 2, nil, nil)
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(router.URL+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if got := post("{"); got != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d", got)
	}
	if got := post("{}"); got != http.StatusBadRequest {
		t.Errorf("missing instance: status %d", got)
	}
	if got := post(`{"instance": {"t": 10, "m": 1, "jobs": [{"id": 0, "release": 50, "deadline": 10, "processing": 5}]}}`); got != http.StatusBadRequest {
		t.Errorf("invalid instance: status %d", got)
	}
	// r + p wraps around int64 for this window [2^63-3, 2^63-1).
	if got := post(`{"instance": {"t": 10, "m": 1, "jobs": [{"id": 0, "release": 9223372036854775804, "deadline": 9223372036854775806, "processing": 5}]}}`); got != http.StatusBadRequest {
		t.Errorf("window near 2^63: status %d", got)
	}
	resp, err := http.Get(router.URL + "/v1/solve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET solve: status %d", resp.StatusCode)
	}
	if got := totalCalls(backends); got != 0 {
		t.Errorf("invalid requests reached backends: %d solver calls", got)
	}
}

// TestRouterRequestIDFlow: a caller-supplied request ID is propagated
// to the backend and echoed back; an absent one is minted.
func TestRouterRequestIDFlow(t *testing.T) {
	var mu sync.Mutex
	seen := []string{}
	mw := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			seen = append(seen, r.Header.Get("X-Request-Id"))
			mu.Unlock()
			next.ServeHTTP(w, r)
		})
	}
	srv := server.New(server.Config{})
	backendTS := httptest.NewServer(mw(srv))
	defer backendTS.Close()
	f, err := New(Config{Members: []Member{{Name: "n0", URL: backendTS.URL}}, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(NewRouter(f))
	defer router.Close()

	buf, _ := json.Marshal(api.SolveRequest{Instance: makeInst(3)})
	req, _ := http.NewRequest(http.MethodPost, router.URL+"/v1/solve", bytes.NewReader(buf))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "caller-chose-this-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "caller-chose-this-1" {
		t.Fatalf("router echoed %q", got)
	}
	mu.Lock()
	forwarded := append([]string(nil), seen...)
	mu.Unlock()
	if len(forwarded) != 1 || forwarded[0] != "caller-chose-this-1" {
		t.Fatalf("backend saw IDs %v", forwarded)
	}

	// No ID supplied: the router mints one and echoes it.
	resp2, err := http.Post(router.URL+"/v1/solve", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); len(got) != 16 {
		t.Fatalf("minted ID = %q, want 16 hex digits", got)
	}
}

// TestRouterEmptyFleet: no members means an honest 503 with a
// Retry-After, not a panic or a hang.
func TestRouterEmptyFleet(t *testing.T) {
	f, err := New(Config{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(NewRouter(f))
	defer router.Close()
	resp, _ := postSolve(t, router.URL, makeInst(4))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}
