package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"calib/api"
	"calib/internal/canon"
	"calib/internal/fleet"
	"calib/internal/ise"
	"calib/internal/obs"
)

// scriptBackend is a scripted ised stand-in: /v1/healthz always answers
// 200; /v1/solve answers 503 + Retry-After while refuse is set, 204 (a
// cache miss) to peeks, and a fresh solve otherwise; /v1/cache/entries
// stores nothing and answers 200. Each /v1/solve and /v1/cache/entries
// request is appended to the shared hitLog in arrival order.
type scriptBackend struct {
	ts     *httptest.Server
	refuse atomic.Bool
}

type hit struct {
	backend int // index in the backend pool
	path    string
	peek    bool
	status  int
}

type hitLog struct {
	mu   sync.Mutex
	hits []hit
}

func (l *hitLog) add(h hit) {
	l.mu.Lock()
	l.hits = append(l.hits, h)
	l.mu.Unlock()
}

// take returns the hits logged since the last take and clears the log.
func (l *hitLog) take() []hit {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.hits
	l.hits = nil
	return out
}

func newScriptBackend(t *testing.T, idx int, log *hitLog) *scriptBackend {
	b := &scriptBackend{}
	b.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/healthz":
			w.Write([]byte(`{"status": "ok"}`))
		case "/v1/solve":
			h := hit{backend: idx, path: r.URL.Path, peek: r.Header.Get(api.HeaderPeek) != ""}
			switch {
			case b.refuse.Load():
				h.status = http.StatusServiceUnavailable
				w.Header().Set("Retry-After", "1")
				w.WriteHeader(h.status)
				w.Write([]byte(`{"error": "draining"}`))
			case h.peek:
				h.status = http.StatusNoContent
				w.WriteHeader(h.status)
			default:
				h.status = http.StatusOK
				w.Write([]byte(`{"schedule": null, "calibrations": 1, "cached": false, "key": "0"}`))
			}
			log.add(h)
		case "/v1/cache/entries":
			log.add(hit{backend: idx, path: r.URL.Path, status: http.StatusOK})
			w.Write([]byte(`{"stored": 1}`))
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(b.ts.Close)
	return b
}

// routeCase is one random fleet: members drawn from the backend pool
// under random names, a virtual-node count, a refusing subset, an
// instance and a replication factor.
type routeCase struct {
	members []fleet.Member
	nameOf  map[int]string // pool index -> member name
	vnodes  int
	rf      int
	inst    *ise.Instance
}

// routed is what one front end did with a case: the nodes it sent the
// solve to in order (peeks excluded), the node that served it, and the
// nodes that received a replica write.
type routed struct {
	tried   []string
	served  string
	entries []string
}

func (c *routeCase) observe(hits []hit) routed {
	var out routed
	for _, h := range hits {
		name := c.nameOf[h.backend]
		switch {
		case h.path == "/v1/cache/entries":
			out.entries = append(out.entries, name)
		case !h.peek:
			out.tried = append(out.tried, name)
			if h.status == http.StatusOK {
				out.served = name
			}
		}
	}
	slices.Sort(out.entries)
	return out
}

func randomCase(rng *rand.Rand, pool []*scriptBackend, rf int) *routeCase {
	k := 2 + rng.IntN(len(pool)-1) // 2..len(pool) members
	c := &routeCase{nameOf: map[int]string{}, vnodes: []int{1, 8, 128}[rng.IntN(3)], rf: rf}
	chosen := rng.Perm(len(pool))[:k]
	for _, b := range chosen {
		name := fmt.Sprintf("node-%x", rng.Uint32())
		c.nameOf[b] = name
		c.members = append(c.members, fleet.Member{Name: name, URL: pool[b].ts.URL})
	}
	for _, b := range pool {
		b.refuse.Store(false)
	}
	refusing := 1 + rng.IntN(k-1) // a non-empty proper subset of the members
	for _, j := range rng.Perm(k)[:refusing] {
		pool[chosen[j]].refuse.Store(true)
	}

	T := ise.Time(2 + rng.IntN(11))
	c.inst = ise.NewInstance(T, 1+rng.IntN(3))
	for j := 1 + rng.IntN(6); j > 0; j-- {
		p := ise.Time(1 + rng.IntN(int(T)))
		r := ise.Time(rng.IntN(50))
		c.inst.AddJob(r, r+p+ise.Time(rng.IntN(30)), p)
	}
	return c
}

// viaRouter sends the case through an isedfleet router and waits until
// its replica write-behind has delivered everything it enqueued.
func viaRouter(t *testing.T, c *routeCase, hc *http.Client, log *hitLog) routed {
	t.Helper()
	reg := obs.NewRegistry()
	f, err := fleet.New(fleet.Config{Members: c.members, Replicas: c.vnodes, Replication: c.rf, HTTPClient: hc, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	body, err := json.Marshal(api.SolveRequest{Instance: c.inst})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	fleet.NewRouter(f).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("router: status %d: %s", rec.Code, rec.Body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for reg.Counter(obs.MFleetReplSent).Value() < reg.Counter(obs.MFleetReplEnqueued).Value() {
		if time.Now().After(deadline) {
			t.Fatal("router write-behind never drained")
		}
		time.Sleep(time.Millisecond)
	}
	r := c.observe(log.take())
	if got := rec.Header().Get(fleet.HeaderNode); got != r.served {
		t.Fatalf("router says %s served, backends say %s", got, r.served)
	}
	return r
}

// viaClient sends the case through a fresh fleet-aware client (one
// failover sweep) and drains its write-behind.
func viaClient(t *testing.T, c *routeCase, hc *http.Client, log *hitLog) routed {
	t.Helper()
	fc, err := NewFleet(FleetConfig{Members: c.members, Replicas: c.vnodes, Replication: c.rf, Passes: 1, HTTPClient: hc})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fc.Solve(context.Background(), &api.SolveRequest{Instance: c.inst}); err != nil {
		t.Fatalf("client: %v", err)
	}
	fc.Close()
	return c.observe(log.take())
}

// TestRouterAndClientRouteAlike is the differential test of the two
// front ends that route by fleet.Plan — the isedfleet router and the
// fleet-aware client. Over random rings, refusing subsets and
// instances, both must try the same nodes in the same order, be served
// by the same node, and — with replication on — write the same replica
// set behind it. The order tried must be the plan's candidates up to
// the serving node.
func TestRouterAndClientRouteAlike(t *testing.T) {
	var log hitLog
	pool := make([]*scriptBackend, 7)
	for i := range pool {
		pool[i] = newScriptBackend(t, i, &log)
	}
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	t.Cleanup(hc.CloseIdleConnections)
	rng := rand.New(rand.NewPCG(2015, 13))

	check := func(i int, c *routeCase) {
		t.Helper()
		router := viaRouter(t, c, hc, &log)
		client := viaClient(t, c, hc, &log)
		names := make([]string, len(c.members))
		for j, m := range c.members {
			names[j] = m.Name
		}
		p := fleet.NewPlan(fleet.NewRing(names, c.vnodes), canon.Key(c.inst), c.rf, nil)
		at := slices.Index(p.Candidates, router.served)
		if at < 0 || !slices.Equal(router.tried, p.Candidates[:at+1]) {
			t.Fatalf("case %d (rf %d): router tried %v, served by %s; plan candidates %v",
				i, c.rf, router.tried, router.served, p.Candidates)
		}
		if !slices.Equal(client.tried, router.tried) || client.served != router.served {
			t.Fatalf("case %d (rf %d): client tried %v (served by %s), router tried %v (served by %s)",
				i, c.rf, client.tried, client.served, router.tried, router.served)
		}
		if !slices.Equal(client.entries, router.entries) {
			t.Fatalf("case %d (rf %d): replica writes: client %v, router %v", i, c.rf, client.entries, router.entries)
		}
		var want []string // the plan's replicas, the serving node excepted
		for _, name := range p.Replicas {
			if c.rf >= 2 && name != router.served {
				want = append(want, name)
			}
		}
		slices.Sort(want)
		if !slices.Equal(router.entries, want) {
			t.Fatalf("case %d (rf %d): replica writes %v, want %v (plan replicas %v, served by %s)",
				i, c.rf, router.entries, want, p.Replicas, router.served)
		}
	}

	for i := 0; i < 200; i++ {
		check(i, randomCase(rng, pool, 1))
	}
	for i := 0; i < 100; i++ {
		check(i, randomCase(rng, pool, 2+i%2))
	}
}
