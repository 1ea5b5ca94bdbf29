package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"calib/api"
	"calib/internal/canon"
	"calib/internal/ise"
	"calib/internal/obs"
)

// Forwarded-request headers. The router annotates every forward so a
// backend's decision log tells the whole story (internal/server
// records both), and annotates every response so clients see where
// their request landed and where its cache affinity lives.
const (
	// HeaderNode names the backend a request was forwarded to (request
	// direction) or served by (response direction).
	HeaderNode = "X-Fleet-Node"
	// HeaderOwner is the owner-hint: the node the consistent-hash ring
	// assigns this request's canonical key — where its cached schedule
	// lives. When it differs from HeaderNode, the request spilled.
	HeaderOwner = "X-Fleet-Owner"
	// HeaderRoute is "affinity" when the serving node is the owner,
	// "spillover:<reason>" otherwise. Replication adds "replica-peek"
	// (request direction: a cache peek at a replica before admitting a
	// spillover solve) and "replica-hit" (response direction: the peek
	// found the schedule — no solve was admitted anywhere).
	HeaderRoute = "X-Fleet-Route"
)

// Router is the HTTP front of a Fleet: it serves the same /v1 surface
// as a single ised daemon, canonicalizes each instance once, and
// forwards to backends by canonical key. It is an http.Handler.
type Router struct {
	f     *Fleet
	mux   *http.ServeMux
	start time.Time

	reqSolve, reqBatch, reqHealthz *obs.Counter
}

// NewRouter builds the HTTP layer over f.
func NewRouter(f *Fleet) *Router {
	met := f.cfg.Metrics
	rt := &Router{
		f:          f,
		mux:        http.NewServeMux(),
		start:      time.Now(),
		reqSolve:   met.CounterWith(obs.MFleetRequests, "endpoint", "solve"),
		reqBatch:   met.CounterWith(obs.MFleetRequests, "endpoint", "batch"),
		reqHealthz: met.CounterWith(obs.MFleetRequests, "endpoint", "healthz"),
	}
	rt.mux.HandleFunc("/v1/solve", rt.handleSolve)
	rt.mux.HandleFunc("/v1/batch", rt.handleBatch)
	rt.mux.HandleFunc("/v1/healthz", rt.handleHealthz)
	return rt
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.mux.ServeHTTP(w, r) }

// routeScratch is the pooled per-request working set: the read buffer,
// the canonicalization arena, and the decode target (same reuse
// discipline as internal/server's reqScratch — nothing that escapes
// the request may alias it).
type routeScratch struct {
	cs   canon.Scratch
	inst ise.Instance
	req  api.SolveRequest
	body bytes.Buffer
}

var routePool = sync.Pool{New: func() any { return new(routeScratch) }}

func (rs *routeScratch) reset() {
	rs.inst = ise.Instance{Jobs: rs.inst.Jobs[:0]}
	rs.req = api.SolveRequest{Instance: &rs.inst}
}

// routerID mints request IDs for calls that arrived without one, with
// the same process-unique scheme as the backends.
var (
	routerIDSeq  atomic.Uint64
	routerIDBase = mix64(uint64(time.Now().UnixNano())) ^ 0xf1ee7 // distinct stream from any backend
)

func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); api.ValidRequestID(id) {
		return id
	}
	return fmt.Sprintf("%016x", routerIDBase^mix64(routerIDSeq.Add(1)))
}

func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request) {
	rt.reqSolve.Inc()
	id := requestID(r)
	w.Header().Set("X-Request-Id", id)
	if r.Method != http.MethodPost {
		rt.fail(w, http.StatusMethodNotAllowed, errors.New("use POST"), id, 0)
		return
	}
	rs := routePool.Get().(*routeScratch)
	defer routePool.Put(rs)
	rs.reset()
	if err := rt.readJSON(w, r, &rs.body, func(b []byte) error { return api.DecodeSolveRequest(b, &rs.req) }); err != nil {
		rt.fail(w, http.StatusBadRequest, err, id, 0)
		return
	}
	inst := rs.req.Instance
	if inst != nil && inst.T == 0 && inst.M == 0 && len(inst.Jobs) == 0 {
		inst = nil // "instance" absent: decoder never touched the arena
	}
	if inst == nil {
		rt.fail(w, http.StatusBadRequest, errors.New("missing \"instance\""), id, 0)
		return
	}
	if err := inst.Validate(); err != nil {
		rt.fail(w, http.StatusBadRequest, err, id, 0)
		return
	}
	key := rs.cs.Canonicalize(inst).Key
	rt.route(w, r, key, id, rs.body.Bytes())
}

// route forwards one /v1/solve body along its key's plan and relays
// the first conclusive answer, handing a fresh 200 to replication.
func (rt *Router) route(w http.ResponseWriter, r *http.Request, key uint64, id string, body []byte) {
	f := rt.f
	v := f.view.Load()
	p := NewPlan(v.ring, key, f.cfg.Replication, v.healthy)
	resp, n, route, retry, err := rt.walk(r, v, p, "/v1/solve", id, body, f.repl != nil)
	if err != nil {
		status := http.StatusBadGateway
		if retry > 0 {
			status = http.StatusServiceUnavailable
		}
		rt.fail(w, status, err, id, retry)
		return
	}
	owner := v.byName[p.Owner]
	if f.repl != nil && route != routeReplicaHit && resp.StatusCode == http.StatusOK {
		rt.relayReplicating(w, resp, n, owner, route, key, p.Replicas, body)
	} else {
		rt.relay(w, resp, n, owner, route)
	}
}

// routeReplicaHit labels an answer a replica peek found in cache.
const routeReplicaHit = "replica-hit"

// walk forwards body to p's candidates in order until one answers
// conclusively — anything but a transport failure or a 429/503
// refusal — and returns that answer with the node and route label that
// produced it. Detours off the owner count in fleet_spillover_total.
// With peek set, the key's replicas are asked for a cached schedule
// once, ahead of the first off-owner forward, and a hit comes back
// labeled routeReplicaHit.
//
// When every candidate fails, walk returns an error. retry is then the
// Retry-After to hand the caller when some node refused (or the fleet
// has no nodes), and 0 when every failure was a transport error.
func (rt *Router) walk(r *http.Request, v *view, p Plan, path, id string, body []byte, peek bool) (resp *http.Response, n *Node, route string, retry time.Duration, err error) {
	f := rt.f
	if len(p.Candidates) == 0 {
		f.exhausted.Inc()
		return nil, nil, "", f.cfg.RetryAfter, errors.New("fleet has no nodes")
	}
	owner := v.byName[p.Owner]
	var (
		spillReason string // first divergence reason, for the counter + header
		hint        time.Duration
		sawRefusal  bool
	)
	if !owner.Healthy() {
		spillReason = SpillUnhealthy
	}
	for _, name := range p.Candidates {
		n = v.byName[name]
		if peek && n != owner {
			peek = false
			if hit, hn := rt.peekReplicas(r, v, p, id, body, owner); hit != nil {
				return hit, hn, routeReplicaHit, 0, nil
			}
		}
		route = routeLabel(n, owner, spillReason)
		resp, err = rt.forward(r, n, path, id, body, owner, route, false)
		if err != nil {
			if n == owner && spillReason == "" {
				spillReason = SpillError
			}
			continue
		}
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			// The node is alive and refusing; remember its backoff ask
			// and try the next candidate — that is the whole point of
			// having one.
			if h := retryAfter(resp); h > hint {
				hint = h
			}
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
			resp.Body.Close()
			sawRefusal = true
			err = fmt.Errorf("node %s refused with %d", n.Name, resp.StatusCode)
			if n == owner && spillReason == "" {
				if resp.StatusCode == http.StatusTooManyRequests {
					spillReason = SpillShed
				} else {
					spillReason = SpillError
				}
			}
			continue
		}
		// Conclusive answer (success or a terminal 4xx/500 that would
		// fail identically anywhere).
		if n != owner && spillReason != "" {
			f.spill[spillReason].Inc()
		}
		return resp, n, route, 0, nil
	}
	f.exhausted.Inc()
	if spillReason != "" {
		f.spill[spillReason].Inc()
	}
	if sawRefusal {
		retry = hint
		if retry <= 0 {
			retry = f.cfg.RetryAfter
		}
	}
	return nil, nil, "", retry, fmt.Errorf("all %d candidate nodes failed: %w", len(p.Candidates), err)
}

// forward performs one attempt against one node. Transport failures
// feed the health state machine; HTTP answers of any status count as
// the node being alive.
func (rt *Router) forward(r *http.Request, n *Node, path, id string, body []byte, owner *Node, route string, peek bool) (*http.Response, error) {
	f := rt.f
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, n.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", id)
	req.Header.Set(HeaderNode, n.Name)
	if owner != nil {
		req.Header.Set(HeaderOwner, owner.Name)
	}
	req.Header.Set(HeaderRoute, route)
	if peek {
		req.Header.Set(api.HeaderPeek, "1")
	}
	f.inflightG.Add(1)
	t0 := time.Now()
	resp, err := f.cfg.HTTPClient.Do(req)
	f.fwdSecs.Observe(time.Since(t0).Seconds())
	f.inflightG.Add(-1)
	if err != nil {
		f.reportFailure(n, "forward", err)
		return nil, fmt.Errorf("node %s: %w", n.Name, err)
	}
	f.reportAlive(n)
	return resp, nil
}

// routeLabel renders the X-Fleet-Route annotation for a forward to n.
func routeLabel(n, owner *Node, spillReason string) string {
	if n == owner {
		return "affinity"
	}
	if spillReason == "" {
		spillReason = SpillError
	}
	return "spillover:" + spillReason
}

// relay streams a backend response to the client, annotated with the
// fleet headers.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, n, owner *Node, route string) {
	defer resp.Body.Close()
	rt.relayHeaders(w, resp, n, owner, route)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

func (rt *Router) relayHeaders(w http.ResponseWriter, resp *http.Response, n, owner *Node, route string) {
	h := w.Header()
	for _, name := range []string{"Content-Type", "Retry-After", "Content-Length"} {
		if val := resp.Header.Get(name); val != "" {
			h.Set(name, val)
		}
	}
	h.Set(HeaderNode, n.Name)
	if owner != nil {
		h.Set(HeaderOwner, owner.Name)
	}
	h.Set(HeaderRoute, route)
}

// relayReplicating relays a 200 solve response through a buffer so the
// response bytes can also be handed to the replication queue (write-
// behind: the client is answered first, replicas converge after).
// Responses too large for the router's own body bound are relayed but
// not replicated.
func (rt *Router) relayReplicating(w http.ResponseWriter, resp *http.Response, n, owner *Node, route string, key uint64, replicas []string, reqBody []byte) {
	defer resp.Body.Close()
	buf, err := io.ReadAll(io.LimitReader(resp.Body, maxBody+1))
	rt.relayHeaders(w, resp, n, owner, route)
	w.WriteHeader(resp.StatusCode)
	w.Write(buf)
	if err == nil && len(buf) <= maxBody {
		rt.f.enqueueSolve(key, n.Name, replicas, reqBody, buf)
	}
}

// peekReplicas asks the key's healthy replicas (owner excluded) for a
// cached schedule before the caller admits a spillover solve. It
// returns the first hit and the node that answered it, or nil when
// every replica missed (204) or failed and the caller must solve.
func (rt *Router) peekReplicas(r *http.Request, v *view, p Plan, id string, body []byte, owner *Node) (*http.Response, *Node) {
	f := rt.f
	for _, name := range p.Replicas {
		n := v.byName[name]
		if n == owner || !n.Healthy() {
			continue
		}
		f.replicaPeeks.Inc()
		resp, err := rt.forward(r, n, "/v1/solve", id, body, owner, "replica-peek", true)
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusOK {
			f.replicaHits.Inc()
			return resp, n
		}
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
	}
	return nil, nil
}

// retryAfter reads a refusal's backoff hint (delay-seconds form; the
// backends emit nothing else).
func retryAfter(resp *http.Response) time.Duration {
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	return 0
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	rt.reqBatch.Inc()
	id := requestID(r)
	w.Header().Set("X-Request-Id", id)
	if r.Method != http.MethodPost {
		rt.fail(w, http.StatusMethodNotAllowed, errors.New("use POST"), id, 0)
		return
	}
	rs := routePool.Get().(*routeScratch)
	defer routePool.Put(rs)
	var req api.BatchRequest
	if err := rt.readJSON(w, r, &rs.body, func(b []byte) error { return json.Unmarshal(b, &req) }); err != nil {
		rt.fail(w, http.StatusBadRequest, err, id, 0)
		return
	}
	if len(req.Instances) == 0 {
		rt.fail(w, http.StatusBadRequest, errors.New("empty \"instances\""), id, 0)
		return
	}

	v := rt.f.view.Load()
	split := SplitBatch(v.ring, &req, &rs.cs, v.healthy)
	results := split.Run(id, func(g *Group, gid string) ([]*api.BatchResult, error) {
		return rt.routeSubBatch(r, v, g, gid)
	})
	writeJSON(w, http.StatusOK, &api.BatchResponse{Results: results, RequestID: id})
}

// routeSubBatch forwards one per-owner sub-batch along its plan,
// returning the backend's row results.
func (rt *Router) routeSubBatch(r *http.Request, v *view, g *Group, id string) ([]*api.BatchResult, error) {
	body, err := json.Marshal(&g.Sub)
	if err != nil {
		return nil, fmt.Errorf("encoding sub-batch: %w", err)
	}
	resp, n, _, _, err := rt.walk(r, v, g.Plan, "/v1/batch", id, body, false)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		return nil, fmt.Errorf("node %s: status %d: %s", n.Name, resp.StatusCode, bytes.TrimSpace(raw))
	}
	var out api.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decoding node %s batch response: %w", n.Name, err)
	}
	return out.Results, nil
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt.reqHealthz.Inc()
	if r.Method != http.MethodGet {
		rt.fail(w, http.StatusMethodNotAllowed, errors.New("use GET"), "", 0)
		return
	}
	v := rt.f.view.Load()
	fh := &api.FleetHealth{
		RingPoints:    v.ring.Points(),
		UptimeSeconds: time.Since(rt.start).Seconds(),
	}
	for _, n := range v.nodes {
		fn := api.FleetNode{
			Name:     n.Name,
			URL:      n.URL,
			Healthy:  n.Healthy(),
			Warming:  n.Warming(),
			InFlight: int(n.probedInFlight.Load()),
		}
		if fn.Healthy {
			fh.HealthyNodes++
		}
		fh.Nodes = append(fh.Nodes, fn)
	}
	status := http.StatusOK
	switch {
	case len(fh.Nodes) == 0 || fh.HealthyNodes == 0:
		fh.Status = "down"
		status = http.StatusServiceUnavailable
	case fh.HealthyNodes < len(fh.Nodes):
		fh.Status = "degraded"
	default:
		fh.Status = "ok"
	}
	writeJSON(w, status, fh)
}

// readJSON slurps the size-capped body into the pooled buffer and
// decodes it from there (same shape as the backends' reader).
func (rt *Router) readJSON(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer, decode func([]byte) error) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBody)
	buf.Reset()
	if _, err := buf.ReadFrom(r.Body); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	if err := decode(buf.Bytes()); err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}

// fail writes an api.Error, attaching Retry-After when ra > 0.
func (rt *Router) fail(w http.ResponseWriter, status int, err error, id string, ra time.Duration) {
	body := &api.Error{Error: err.Error(), RequestID: id}
	if ra > 0 {
		secs := int((ra + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		body.RetryAfterSeconds = secs
	}
	writeJSON(w, status, body)
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
}
