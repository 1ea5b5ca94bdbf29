package client

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"calib/api"
	"calib/internal/fleet"
	"calib/internal/heur"
	"calib/internal/ise"
	"calib/internal/obs"
	"calib/internal/server"
)

// fleetBackends boots n real ised servers with counted solver
// invocations and returns the members plus the per-node counters.
func fleetBackends(t *testing.T, n int) ([]fleet.Member, []*atomic.Int64) {
	t.Helper()
	members := make([]fleet.Member, n)
	calls := make([]*atomic.Int64, n)
	for i := range members {
		c := new(atomic.Int64)
		calls[i] = c
		srv := server.New(server.Config{Solve: func(_ context.Context, inst *ise.Instance, _ time.Duration, _ int64) (*server.Result, error) {
			c.Add(1)
			sched, err := heur.Lazy(inst, heur.Options{})
			if err != nil {
				return nil, err
			}
			return &server.Result{Schedule: sched, Calibrations: sched.NumCalibrations(), MachinesUsed: sched.MachinesUsed()}, nil
		}})
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		members[i] = fleet.Member{Name: string(rune('a' + i)), URL: ts.URL}
	}
	return members, calls
}

func fleetInst(i int) *ise.Instance {
	inst := ise.NewInstance(10, 1)
	inst.AddJob(0, 20+ise.Time(i), 3)
	inst.AddJob(5, 40+2*ise.Time(i), 7)
	return inst
}

// TestFleetClientAffinity: the client-side ring reproduces the
// routers' affinity — equivalent instances land on one node and the
// second ask is a cache hit with a single solver invocation fleet-wide.
func TestFleetClientAffinity(t *testing.T) {
	members, calls := fleetBackends(t, 3)
	fc, err := NewFleet(FleetConfig{Members: members})
	if err != nil {
		t.Fatal(err)
	}

	inst := fleetInst(1)
	first, err := fc.Solve(context.Background(), &api.SolveRequest{Instance: inst})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.Schedule == nil {
		t.Fatalf("first solve: %+v", first)
	}

	// Shifted twin: same canonical key, so the same owner's cache.
	shifted := ise.NewInstance(10, 1)
	for _, j := range inst.Jobs {
		shifted.AddJob(j.Release+900, j.Deadline+900, j.Processing)
	}
	if fc.Owner(shifted) != fc.Owner(inst) {
		t.Fatal("shifted twin has a different owner")
	}
	second, err := fc.Solve(context.Background(), &api.SolveRequest{Instance: shifted})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("shifted twin missed the owner's cache")
	}
	var total int64
	for _, c := range calls {
		total += c.Load()
	}
	if total != 1 {
		t.Fatalf("fleet-wide solver invocations = %d, want 1", total)
	}
}

// TestFleetClientFailoverSharesRequestID: when the owner refuses with
// 503, the call fails over to the next ring replica under the same
// request ID, so both backends log the same request.
func TestFleetClientFailoverSharesRequestID(t *testing.T) {
	var mu sync.Mutex
	idsByNode := map[string][]string{}
	record := func(node string, r *http.Request) {
		mu.Lock()
		idsByNode[node] = append(idsByNode[node], r.Header.Get("X-Request-Id"))
		mu.Unlock()
	}

	// "down" always sheds; "up" answers a canned solve.
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		record("down", r)
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte(`{"error": "draining"}`))
	}))
	defer down.Close()
	srv := server.New(server.Config{})
	up := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		record("up", r)
		srv.ServeHTTP(w, r)
	}))
	defer up.Close()

	members := []fleet.Member{
		{Name: "down", URL: down.URL},
		{Name: "up", URL: up.URL},
	}
	fc, err := NewFleet(FleetConfig{Members: members, Passes: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Find an instance owned by the refusing node, so the call must
	// fail over.
	var inst *ise.Instance
	for i := 0; i < 10000; i++ {
		if cand := fleetInst(i); fc.Owner(cand) == "down" {
			inst = cand
			break
		}
	}
	if inst == nil {
		t.Fatal("no instance owned by the down node")
	}

	out, err := fc.Solve(context.Background(), &api.SolveRequest{Instance: inst})
	if err != nil {
		t.Fatalf("failover solve: %v", err)
	}
	if out.Schedule == nil {
		t.Fatal("empty schedule from failover")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(idsByNode["down"]) != 1 || len(idsByNode["up"]) != 1 {
		t.Fatalf("hops = %v", idsByNode)
	}
	if idsByNode["down"][0] == "" || idsByNode["down"][0] != idsByNode["up"][0] {
		t.Fatalf("request ID not shared across hops: %v", idsByNode)
	}
}

// TestFleetClientBreakerIsolation is the per-endpoint accounting
// satellite's acceptance: one dead node trips only its own breaker.
// The healthy node's breaker stays closed, calls keep succeeding, and
// once the dead node's circuit is open the failover skips it without
// touching the network.
func TestFleetClientBreakerIsolation(t *testing.T) {
	members, _ := fleetBackends(t, 1)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // connection refused from here on
	members = append(members, fleet.Member{Name: "dead", URL: dead.URL})

	reg := obs.NewRegistry()
	group := NewBreakerGroup(reg)
	group.Threshold = 3
	group.Cooldown = time.Hour // stays open for the whole test
	fc, err := NewFleet(FleetConfig{Members: members, Passes: 1, Breakers: group})
	if err != nil {
		t.Fatal(err)
	}

	// Enough distinct solves to hit the dead node's breaker threshold:
	// every call owned by the dead node fails over and still succeeds.
	for i := 0; i < 40; i++ {
		if _, err := fc.Solve(context.Background(), &api.SolveRequest{Instance: fleetInst(i)}); err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
	}

	deadURL := strings.TrimRight(dead.URL, "/")
	if got := group.For(deadURL).State(); got != "open" {
		t.Fatalf("dead node breaker = %s, want open", got)
	}
	liveURL := fc.Node(members[0].Name).BaseURL
	if got := group.For(liveURL).State(); got != "closed" {
		t.Fatalf("live node breaker = %s, want closed", got)
	}
	// With the circuit open, calls owned by the dead node skip it
	// locally (fast-fail counted) and still succeed on the replica.
	fastBefore := reg.CounterWith(obs.MBreakerFastFails, "endpoint", deadURL).Value()
	for i := 40; i < 60; i++ {
		if _, err := fc.Solve(context.Background(), &api.SolveRequest{Instance: fleetInst(i)}); err != nil {
			t.Fatalf("solve %d with open breaker: %v", i, err)
		}
	}
	if got := reg.CounterWith(obs.MBreakerFastFails, "endpoint", deadURL).Value(); got <= fastBefore {
		t.Error("open breaker never fast-failed a call")
	}
	if got := reg.CounterWith(obs.MBreakerOpens, "endpoint", liveURL).Value(); got != 0 {
		t.Errorf("live node's breaker opened %d times", got)
	}
}

// TestSingleEndpointBreakerUnchanged: a plain Client with an explicit
// Breaker behaves exactly as before the group existed — the explicit
// breaker wins even when a group is also configured.
func TestSingleEndpointBreakerUnchanged(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close()

	br := NewBreaker(nil)
	br.Threshold = 2
	br.Cooldown = time.Hour
	cl := New(dead.URL)
	cl.MaxRetries = -1
	cl.Breaker = br
	cl.Breakers = NewBreakerGroup(nil) // must be ignored: explicit Breaker wins

	for i := 0; i < 2; i++ {
		if _, err := cl.Solve(context.Background(), &api.SolveRequest{Instance: fleetInst(i)}); err == nil {
			t.Fatal("solve against a dead endpoint succeeded")
		}
	}
	if got := br.State(); got != "open" {
		t.Fatalf("explicit breaker = %s, want open", got)
	}
	if _, err := cl.Solve(context.Background(), &api.SolveRequest{Instance: fleetInst(3)}); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	if eps := cl.Breakers.Endpoints(); len(eps) != 0 {
		t.Fatalf("group was consulted despite explicit Breaker: %v", eps)
	}
}

// TestFleetClientBatch: rows split by owner, solved concurrently, and
// reassembled in request order with local errors for unroutable rows.
func TestFleetClientBatch(t *testing.T) {
	members, calls := fleetBackends(t, 3)
	fc, err := NewFleet(FleetConfig{Members: members})
	if err != nil {
		t.Fatal(err)
	}

	req := &api.BatchRequest{}
	const rows = 9
	for i := 0; i < rows; i++ {
		req.Instances = append(req.Instances, fleetInst(10+3*i))
	}
	req.Instances = append(req.Instances, nil)
	bad := ise.NewInstance(10, 1)
	bad.AddJob(50, 10, 5)
	req.Instances = append(req.Instances, bad)

	resp, err := fc.Batch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != rows+2 {
		t.Fatalf("results = %d, want %d", len(resp.Results), rows+2)
	}
	for i := 0; i < rows; i++ {
		r := resp.Results[i]
		if r == nil || r.Error != "" || r.SolveResponse == nil || r.Schedule == nil {
			t.Fatalf("row %d: %+v", i, r)
		}
	}
	if r := resp.Results[rows]; r == nil || !strings.Contains(r.Error, "missing instance") {
		t.Fatalf("nil row: %+v", r)
	}
	if r := resp.Results[rows+1]; r == nil || r.Error == "" {
		t.Fatalf("invalid row: %+v", r)
	}
	var total int64
	for _, c := range calls {
		total += c.Load()
	}
	if total != rows {
		t.Fatalf("fleet-wide solver invocations = %d, want %d", total, rows)
	}
	if resp.RequestID == "" {
		t.Error("batch response missing request ID")
	}
}

// TestFleetClientReplicationWriteBehind: with Replication: 2 a fresh
// solve is write-behind-posted to the key's other ring replica, which
// then serves the same instance from its own cache — zero solver
// invocations anywhere but the owner. Mirrors the router's write-behind
// for fleets driven directly by this client.
func TestFleetClientReplicationWriteBehind(t *testing.T) {
	members, calls := fleetBackends(t, 3)
	fc, err := NewFleet(FleetConfig{Members: members, Replication: 2})
	if err != nil {
		t.Fatal(err)
	}

	inst := fleetInst(4)
	out, err := fc.Solve(context.Background(), &api.SolveRequest{Instance: inst})
	if err != nil {
		t.Fatal(err)
	}
	if out.Cached {
		t.Fatal("first solve cached")
	}
	fc.Close() // barrier: drain the write-behind posts

	// The key's replica set is the ring sequence; the serving owner got
	// the solve, the other member of the set got the write-behind.
	owner := fc.Owner(inst)
	seq := fc.ring.Sequence(canonKey(inst))[:2]
	if seq[0] != owner {
		t.Fatalf("ring sequence = %v, owner %s", seq, owner)
	}
	replica := seq[1]

	got, err := fc.Node(replica).Solve(context.Background(), &api.SolveRequest{Instance: inst})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Cached {
		t.Fatal("replica missed: the write-behind never landed")
	}
	if got.Calibrations != out.Calibrations {
		t.Fatalf("replica answered %d calibrations, owner solved %d", got.Calibrations, out.Calibrations)
	}
	for i, m := range members {
		want := int64(0)
		if m.Name == owner {
			want = 1
		}
		if calls[i].Load() != want {
			t.Fatalf("node %s solver invocations = %d, want %d", m.Name, calls[i].Load(), want)
		}
	}

	// A cached answer is never re-replicated, and Close stays a
	// reusable barrier.
	if again, err := fc.Solve(context.Background(), &api.SolveRequest{Instance: inst}); err != nil || !again.Cached {
		t.Fatalf("re-solve: %v cached=%v", err, again != nil && again.Cached)
	}
	fc.Close()
}

// TestFleetClientReplicationOffByDefault: the zero-value config (and
// RF 1) never posts to /v1/cache/entries — byte-for-byte today's
// behavior.
func TestFleetClientReplicationOffByDefault(t *testing.T) {
	members, calls := fleetBackends(t, 2)
	var entriesPosts atomic.Int64
	for i := range members {
		inner := members[i].URL
		proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/cache/entries") {
				entriesPosts.Add(1)
			}
			req, _ := http.NewRequest(r.Method, inner+r.URL.String(), r.Body)
			req.Header = r.Header
			resp, err := http.DefaultTransport.RoundTrip(req)
			if err != nil {
				w.WriteHeader(http.StatusBadGateway)
				return
			}
			defer resp.Body.Close()
			for k, v := range resp.Header {
				w.Header()[k] = v
			}
			w.WriteHeader(resp.StatusCode)
			io.Copy(w, resp.Body)
		}))
		t.Cleanup(proxy.Close)
		members[i].URL = proxy.URL
	}
	for _, rf := range []int{0, 1} {
		fc, err := NewFleet(FleetConfig{Members: members, Replication: rf})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fc.Solve(context.Background(), &api.SolveRequest{Instance: fleetInst(20 + rf)}); err != nil {
			t.Fatal(err)
		}
		fc.Close()
	}
	if got := entriesPosts.Load(); got != 0 {
		t.Fatalf("replication disabled but %d cache-entry posts observed", got)
	}
	var total int64
	for _, c := range calls {
		total += c.Load()
	}
	if total != 2 {
		t.Fatalf("fleet-wide solver invocations = %d, want 2", total)
	}
}

// TestFleetClientValidation: constructor and call-level input errors.
func TestFleetClientValidation(t *testing.T) {
	if _, err := NewFleet(FleetConfig{}); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := NewFleet(FleetConfig{Members: []fleet.Member{{Name: "", URL: "x"}}}); err == nil {
		t.Error("invalid member accepted")
	}
	members, _ := fleetBackends(t, 1)
	fc, err := NewFleet(FleetConfig{Members: members})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Solve(context.Background(), &api.SolveRequest{}); err == nil {
		t.Error("missing instance accepted")
	}
	if _, err := fc.Batch(context.Background(), &api.BatchRequest{}); err == nil {
		t.Error("empty batch accepted")
	}
	bad := ise.NewInstance(10, 1)
	bad.AddJob(50, 10, 5)
	if _, err := fc.Solve(context.Background(), &api.SolveRequest{Instance: bad}); err == nil {
		t.Error("invalid instance accepted")
	}
}
