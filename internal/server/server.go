// Package server is the HTTP serving layer of the ised solver
// daemon: a JSON API over the calibration-scheduling pipeline with
// canonicalization-keyed caching, singleflight deduplication,
// admission control with load shedding, and per-request
// timeout/budget limits wired into the robust degradation ladder.
//
// Endpoints (wire types in calib/api, reference in docs/SERVICE.md):
//
//	POST /v1/solve    solve one instance
//	POST /v1/batch    solve many instances, deduplicating equivalent ones
//	GET  /v1/healthz  liveness + load + cache statistics
//
// Request flow for /v1/solve: canonicalize (internal/canon) → cache
// lookup (internal/cache; a hit answers without touching a solver
// engine) → admission (bounded in-flight solves; full ⇒ 429 +
// Retry-After) → singleflight solve through core.SolveRobust's
// exact→LP→heuristic ladder → de-canonicalize → validate → respond.
// Every response schedule is re-verified by ise.Validate against the
// request's own instance before it leaves the process.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"calib"
	"calib/api"
	"calib/internal/cache"
	"calib/internal/canon"
	"calib/internal/fault"
	"calib/internal/ise"
	"calib/internal/obs"
	"calib/internal/robust"
)

// Result is the cached outcome of one canonical solve. The schedule
// is in the canonical time frame; Decanonicalize maps it into each
// requester's frame. Entries are treated as immutable once cached.
type Result struct {
	Schedule     *ise.Schedule
	Calibrations int
	MachinesUsed int
	Components   int
	LowerBound   int
	Degraded     bool
	Exact        bool
	// Rung and Falls are ladder provenance for the decision log: which
	// rungs answered ("exact,lp") and every "rung:reason" fall.
	Rung  string
	Falls []string
}

// SolveFunc produces a Result for a canonical instance under the
// given limits. Config.Solve overrides it in tests; the default runs
// calib.SolveRobust.
type SolveFunc func(ctx context.Context, inst *ise.Instance, timeout time.Duration, budget int64) (*Result, error)

// Config parameterizes New. The zero value serves with sensible
// defaults (256 in-flight solves, a 4096-entry cache, 30s max solve).
type Config struct {
	// MaxInFlight bounds concurrently admitted solves (0 = 256).
	MaxInFlight int
	// MaxQueue bounds requests waiting for an admission slot
	// (0 = MaxInFlight, < 0 = no queue: shed immediately).
	MaxQueue int
	// QueueWait is the longest a queued request waits before being
	// shed (0 = 100ms).
	QueueWait time.Duration
	// CacheEntries sizes the canonical schedule cache (0 = 4096,
	// < 0 = disable storage; singleflight still deduplicates).
	CacheEntries int
	// MaxTimeout caps — and, when a request does not ask, defaults —
	// the per-solve wall clock (0 = 30s). Requests can only tighten it.
	MaxTimeout time.Duration
	// MaxBudget caps the per-solve work budget (0 = unlimited).
	MaxBudget int64
	// Metrics receives the service_*, cache_* and solver series
	// (nil = a private registry, so gauges still work).
	Metrics *obs.Registry
	// Solve overrides the solver (tests). nil = calib.SolveRobust.
	Solve SolveFunc
	// Fault, when non-nil, arms deterministic fault injection in the
	// solver pipeline and the cache's snapshot layer (see
	// internal/fault). nil disables injection at zero cost.
	Fault *fault.Injector
	// FlightRecords sizes the request flight recorder behind
	// /debug/requests (0 = 2048 records, < 0 = disabled; the disabled
	// recorder costs no allocations on the request path).
	FlightRecords int
	// TraceLog, when non-nil, receives every decision record as
	// CRC-framed JSONL (the ised -trace-log sink). The server only
	// appends; the caller owns Close.
	TraceLog *TraceLog
	// SLOObjective and SLOThreshold configure the latency SLO layer:
	// the target fraction of requests (0 = 0.99) answered under the
	// threshold (0 = 500ms), exported per route as the slo_* series.
	SLOObjective float64
	SLOThreshold time.Duration
	// Trace, when non-nil, parents each request's solver span tree
	// under a per-request span tagged with the request ID; the span ID
	// lands in the decision record. nil keeps tracing at its usual
	// nil-receiver zero cost.
	Trace *obs.Trace
	// Clock is the server's time source (nil = wall clock). The
	// workload simulator injects a virtual clock here so decision
	// records carry simulated timestamps; see internal/sim.
	Clock Clock
	// CacheTransferOpen allows non-loopback peers to call
	// /v1/cache/entries (the fleet replication and warm-transfer
	// surface, see entries.go). Off by default: the endpoint is
	// auth-free, so a multi-host fleet must opt in explicitly (ised
	// -cache-transfer-open).
	CacheTransferOpen bool
}

// maxBody bounds request bodies in bytes.
const maxBody = 16 << 20

// retryAfterSecs is the backoff hint, in seconds, that 429 responses
// carry in the Retry-After header and the error body.
const retryAfterSecs = 1

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 256
	}
	switch {
	case c.MaxQueue == 0:
		c.MaxQueue = c.MaxInFlight
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 100 * time.Millisecond
	}
	switch {
	case c.CacheEntries == 0:
		c.CacheEntries = 4096
	case c.CacheEntries < 0:
		c.CacheEntries = 0
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.Clock == nil {
		c.Clock = realClock{}
	}
	return c
}

// Server handles the /v1 API. Create with New; it is an http.Handler.
type Server struct {
	cfg   Config
	adm   *admission
	cache *cache.Cache[*Result]
	solve SolveFunc
	mux   *http.ServeMux
	clock Clock
	start time.Time

	// draining flips once at the start of graceful shutdown (BeginDrain)
	// and never flips back: healthz switches to 503 + draining so load
	// balancers divert traffic while in-flight solves finish.
	draining atomic.Bool

	latency *obs.Histogram

	// The flight recorder, trace-log sink, and SLO tracker of the
	// request decision log. flight == nil and tlog == nil are the
	// disabled paths (nil-safe methods, no allocations).
	flight *Recorder
	tlog   *TraceLog
	slo    *sloTracker

	// Per-endpoint counter bindings, resolved once in New:
	// Registry.CounterWith interns a label string per call, which is an
	// allocation the request hot path must not pay.
	reqSolve, reqBatch, reqHealthz, reqEntries *obs.Counter
	errSolve, errBatch, errHealthz, errEntries *obs.Counter

	// Replication receiver counters (/v1/cache/entries inserts).
	replStored, replSkipped, replRejected *obs.Counter

	// faultCounters are the labeled series delta-sampled around leader
	// solves to attribute injected faults to individual requests
	// (resolved once here, same reason).
	faultNames    []string
	faultCounters []*obs.Counter
}

// reqScratch is the pooled per-request working set of the hot
// endpoints: the decoded request (including the instance arena JSON is
// decoded into), the canonicalization arena, and the read/write byte
// buffers, with an encoder bound to the write buffer for batch
// answers. Steady-state request handling reuses all of it; nothing
// handed to the solver or the cache may alias it (solveOne clones the
// canonical instance on a cache miss).
type reqScratch struct {
	cs   canon.Scratch
	inst ise.Instance
	req  api.SolveRequest
	resp api.SolveResponse
	body bytes.Buffer
	out  bytes.Buffer
	enc  *json.Encoder
	// rec is the request's decision record, filled along the pipeline
	// and published (copied) at the end; the handler overwrites it
	// wholesale at the start of each request.
	rec Record
}

var scratchPool = sync.Pool{New: func() any {
	rs := &reqScratch{}
	rs.enc = json.NewEncoder(&rs.out)
	return rs
}}

// resetSolve readies the pooled request for decoding: the request and
// instance are cleared and the instance pointer is re-aimed at the
// pooled arena ("instance": null overwrites it with nil), whose Jobs
// keeps its capacity — api.DecodeSolveRequest zeroes each reused job
// before decoding into it. After decoding, an all-zero instance
// therefore means the field was absent.
func (rs *reqScratch) resetSolve() {
	rs.inst = ise.Instance{Jobs: rs.inst.Jobs[:0]}
	rs.req = api.SolveRequest{Instance: &rs.inst}
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	obs.DeclareService(cfg.Metrics)
	s := &Server{
		cfg:     cfg,
		adm:     newAdmission(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueWait, cfg.Metrics),
		cache:   cache.New[*Result](cfg.CacheEntries, cfg.Metrics),
		solve:   cfg.Solve,
		mux:     http.NewServeMux(),
		clock:   cfg.Clock,
		start:   cfg.Clock.Now(),
		latency: cfg.Metrics.Histogram(obs.MServiceSeconds, nil),

		reqSolve:   cfg.Metrics.CounterWith(obs.MServiceRequests, "endpoint", "solve"),
		reqBatch:   cfg.Metrics.CounterWith(obs.MServiceRequests, "endpoint", "batch"),
		reqHealthz: cfg.Metrics.CounterWith(obs.MServiceRequests, "endpoint", "healthz"),
		reqEntries: cfg.Metrics.CounterWith(obs.MServiceRequests, "endpoint", "entries"),
		errSolve:   cfg.Metrics.CounterWith(obs.MServiceErrors, "endpoint", "solve"),
		errBatch:   cfg.Metrics.CounterWith(obs.MServiceErrors, "endpoint", "batch"),
		errHealthz: cfg.Metrics.CounterWith(obs.MServiceErrors, "endpoint", "healthz"),
		errEntries: cfg.Metrics.CounterWith(obs.MServiceErrors, "endpoint", "entries"),

		replStored:   cfg.Metrics.Counter(obs.MCacheReplStored),
		replSkipped:  cfg.Metrics.Counter(obs.MCacheReplSkipped),
		replRejected: cfg.Metrics.Counter(obs.MCacheReplRejected),
	}
	if s.solve == nil {
		s.solve = s.defaultSolve
	}
	if cfg.FlightRecords >= 0 {
		s.flight = NewRecorder(cfg.FlightRecords, cfg.Metrics)
	}
	s.tlog = cfg.TraceLog
	s.slo = newSLO(cfg.SLOObjective, cfg.SLOThreshold, cfg.Metrics, cfg.Clock)
	if cfg.Fault != nil {
		for _, p := range fault.Points {
			s.faultNames = append(s.faultNames, string(p))
			s.faultCounters = append(s.faultCounters, cfg.Metrics.CounterWith(obs.MFaultInjected, "point", string(p)))
		}
	}
	s.cache.SetFault(cfg.Fault)
	s.mux.HandleFunc("/v1/solve", s.handleSolve)
	s.mux.HandleFunc("/v1/batch", s.handleBatch)
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/cache/entries", s.handleCacheEntries)
	s.mux.HandleFunc("/debug/requests", s.handleDebugRequests)
	s.mux.HandleFunc("/debug/requests/", s.handleDebugRequests)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Metrics returns the registry the server reports into.
func (s *Server) Metrics() *obs.Registry { return s.cfg.Metrics }

// BeginDrain marks the server as draining: from this call on,
// /v1/healthz answers 503 with "draining": true while solve/batch
// keep serving, so callers sequence shutdown as BeginDrain → (load
// balancer notices) → http.Server.Shutdown → final cache save.
// Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// defaultSolve runs the robust ladder on the canonical instance. The
// solve is detached from the request context (context.WithoutCancel in
// the handler): its cost is bounded by timeout/budget, and a result
// computed for a disconnected client still lands in the cache and
// still answers any singleflight waiters.
func (s *Server) defaultSolve(ctx context.Context, inst *ise.Instance, timeout time.Duration, budget int64) (*Result, error) {
	o := &calib.Options{
		Metrics: s.cfg.Metrics,
		Context: ctx,
		Timeout: timeout,
		Budget:  budget,
		Fault:   s.cfg.Fault,
	}
	if sp, ok := ctx.Value(traceSpanKey{}).(*obs.Span); ok {
		// Hang the solver's span tree under the request span, so
		// /debug/requests/{id} and the trace share one ID space.
		o.Trace = sp.Trace()
	}
	return ResultOf(calib.SolveRobust(inst, o))
}

// ResultOf turns a robust ladder answer into the Result a
// SolveFunc returns, passing err through.
func ResultOf(sol *calib.RobustSolution, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return &Result{
		Schedule:     sol.Schedule,
		Calibrations: sol.Calibrations,
		MachinesUsed: sol.MachinesUsed,
		Components:   sol.Components,
		LowerBound:   sol.LowerBound,
		Degraded:     sol.Degraded,
		Exact:        sol.Exact,
		Rung:         sol.RungSummary(),
		Falls:        sol.Falls(),
	}, nil
}

// traceSpanKey carries the per-request span to defaultSolve; a context
// value (rather than a SolveFunc parameter) keeps the SolveFunc
// signature — a test-override surface — stable.
type traceSpanKey struct{}

// limits clamps the request's asked-for limits to the server's maxima.
func (s *Server) limits(o api.SolveOptions) (time.Duration, int64) {
	timeout := s.cfg.MaxTimeout
	if req := time.Duration(o.TimeoutMillis) * time.Millisecond; req > 0 && req < timeout {
		timeout = req
	}
	budget := s.cfg.MaxBudget
	if o.Budget > 0 && (budget <= 0 || o.Budget < budget) {
		budget = o.Budget
	}
	return timeout, budget
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.reqSolve.Inc()
	arrival := s.clock.Now()
	id := requestID(r)
	w.Header().Set("X-Request-Id", id)
	if r.Method != http.MethodPost {
		s.fail(w, s.errSolve, http.StatusMethodNotAllowed, errors.New("use POST"), id)
		return
	}
	rs := scratchPool.Get().(*reqScratch)
	defer scratchPool.Put(rs)
	rs.resetSolve()
	rs.rec = Record{ID: id, Route: "solve", ArrivalNS: arrival.UnixNano()}
	fleetForwarded(w, r, &rs.rec)
	if err := s.readJSON(w, r, &rs.body, func(b []byte) error { return api.DecodeSolveRequest(b, &rs.req) }); err != nil {
		s.finish(w, rs, s.errSolve, http.StatusBadRequest, err, arrival)
		return
	}
	inst := rs.req.Instance
	if inst != nil && inst.T == 0 && inst.M == 0 && len(inst.Jobs) == 0 {
		// The decoder never touched the pooled arena: "instance" was
		// absent (an explicit null nils the pointer instead).
		inst = nil
	}
	ctx := r.Context()
	if s.cfg.Trace != nil {
		sp := s.cfg.Trace.Root().Start("request")
		sp.SetStr("request_id", id)
		rs.rec.SpanID = sp.ID()
		ctx = context.WithValue(ctx, traceSpanKey{}, sp)
		defer sp.End()
	}
	status, err := s.solveOne(ctx, inst, rs.req.SolveOptions, rs, r.Header.Get(api.HeaderPeek) != "")
	if err != nil {
		s.finish(w, rs, s.errSolve, status, err, arrival)
		return
	}
	if status == http.StatusNoContent {
		// Peek miss: an answer ("not cached here"), not an error — no
		// body, no admission, no solver, and the 2xx keeps it out of the
		// error counters and the SLO error budget.
		w.WriteHeader(http.StatusNoContent)
		s.emit(rs, arrival, http.StatusNoContent, "")
		return
	}
	rs.resp.ElapsedMillis = float64(s.clock.Since(arrival).Microseconds()) / 1000
	rs.resp.RequestID = id
	s.writeResp(w, http.StatusOK, &rs.resp, rs)
	s.emit(rs, arrival, http.StatusOK, "")
}

// emit completes the request's decision record and publishes it: the
// flight recorder, the trace log, the SLO layer, and the latency
// histogram all read from the same Record. errStr "" means success.
func (s *Server) emit(rs *reqScratch, arrival time.Time, status int, errStr string) {
	total := s.clock.Since(arrival)
	s.latency.Observe(total.Seconds())
	rec := &rs.rec
	rec.TotalNS = int64(total)
	rec.Status = status
	rec.Err = errStr
	switch {
	case status < 400:
		rec.Outcome = "ok"
	case status == http.StatusTooManyRequests:
		rec.Outcome = "shed"
	default:
		rec.Outcome = "error"
	}
	s.slo.observe(rec.Route, rec.ID, total, status < 400)
	s.flight.Add(rec)
	s.tlog.Append(rec)
}

// finish is emit for the error paths: record the outcome, then answer.
func (s *Server) finish(w http.ResponseWriter, rs *reqScratch, errs *obs.Counter, status int, err error, arrival time.Time) {
	s.emit(rs, arrival, status, err.Error())
	s.fail(w, errs, status, err, rs.rec.ID)
}

// errShed marks an admission refusal; solveOne's callers map it to
// 429 + Retry-After.
var errShed = errors.New("service saturated: admission control refused the solve")

// solveOne runs the full pipeline for a single instance, filling
// rs.resp on success; otherwise it returns an HTTP status plus error.
// Canonicalization runs in rs's arena, so the canonical form is only
// valid within this call. peek (the api.HeaderPeek protocol) turns a cache
// miss into a 204 answer instead of a solve.
func (s *Server) solveOne(ctx context.Context, inst *calib.Instance, o api.SolveOptions, rs *reqScratch, peek bool) (int, error) {
	rec := &rs.rec
	if inst == nil {
		return http.StatusBadRequest, errors.New("missing \"instance\"")
	}
	if err := inst.Validate(); err != nil {
		return http.StatusBadRequest, err
	}
	c := rs.cs.Canonicalize(inst)
	if res, ok := s.cache.Get(c.Key); ok {
		// A cache hit answers before admission control: capacity bounds
		// solves, not lookups. The record pins that invariant — Cache
		// "hit" with Admission "bypass" and zero queue time.
		rec.Admission = "bypass"
		rec.Cache = cache.RoleHit.String()
		if peek {
			// A peek that hit is the fleet's replica-hit event; stamp it
			// so ?route=replica-hit filters find it on the backend too.
			rec.FleetRoute = "replica-hit"
		}
		rec.Rung, rec.Falls, rec.Degraded, rec.Exact = res.Rung, res.Falls, res.Degraded, res.Exact
		status, err := s.respond(inst, c, res, true, &rs.resp)
		if err == nil {
			rec.Key = rs.resp.Key
		}
		return status, err
	}
	if peek {
		rec.Admission = "bypass"
		rec.Cache = "peek-miss"
		rec.Key = keyString(c.Key)
		return http.StatusNoContent, nil
	}
	admT := s.clock.Now()
	admitted, queued := s.adm.acquireInfo(ctx)
	rec.QueueNS = int64(s.clock.Since(admT))
	if !admitted {
		rec.Admission = "shed"
		return http.StatusTooManyRequests, errShed
	}
	rec.Admission = "admitted"
	if queued {
		rec.Admission = "queued"
	}
	defer s.adm.release()
	timeout, budget := s.limits(o)
	rec.TimeoutMS = int64(timeout / time.Millisecond)
	rec.Budget = budget
	solveT := s.clock.Now()
	res, role, err := s.cache.DoRole(c.Key, func() (*Result, error) {
		// Delta-sample the fault counters around the solve to attribute
		// injections to this request (approximate when solves overlap;
		// exact in the common serial case).
		var f0 []int64
		if len(s.faultCounters) > 0 {
			f0 = make([]int64, len(s.faultCounters))
			for i, fc := range s.faultCounters {
				f0[i] = fc.Value()
			}
		}
		// The canonical instance lives in pooled scratch; clone it so
		// the solver cannot retain memory the pool will hand to the
		// next request.
		r, err := s.solve(context.WithoutCancel(ctx), c.Instance.Clone(), timeout, budget)
		for i, fc := range s.faultCounters {
			if d := fc.Value() - f0[i]; d > 0 {
				rec.Faults = append(rec.Faults, s.faultNames[i]+":"+strconv.FormatInt(d, 10))
			}
		}
		return r, err
	})
	rec.SolveNS = int64(s.clock.Since(solveT))
	rec.Cache = role.String()
	if err != nil {
		return solveStatus(err), err
	}
	rec.Rung, rec.Falls, rec.Degraded, rec.Exact = res.Rung, res.Falls, res.Degraded, res.Exact
	status, rerr := s.respond(inst, c, res, role == cache.RoleHit, &rs.resp)
	if rerr == nil {
		rec.Key = rs.resp.Key
	}
	return status, rerr
}

// respond de-canonicalizes the cached result into the request's frame
// and re-verifies feasibility — a corrupted or colliding cache entry
// must become a 500, never a silently wrong schedule. The response is
// written into out (pooled on the solve path, per-row on batch).
func (s *Server) respond(inst *calib.Instance, c *canon.Canonical, res *Result, cached bool, out *api.SolveResponse) (int, error) {
	sched := c.Decanonicalize(res.Schedule)
	if err := ise.Validate(inst, sched); err != nil {
		return http.StatusInternalServerError,
			fmt.Errorf("cached schedule failed validation for key %016x: %w", c.Key, err)
	}
	*out = api.SolveResponse{
		Schedule:     sched,
		Calibrations: res.Calibrations,
		MachinesUsed: res.MachinesUsed,
		LowerBound:   res.LowerBound,
		Components:   res.Components,
		Degraded:     res.Degraded,
		Exact:        res.Exact,
		Cached:       cached,
		Key:          keyString(c.Key),
	}
	return http.StatusOK, nil
}

// keyString formats the cache key the way fmt's %016x would, without
// fmt's interface boxing.
func keyString(k uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[k&0xf]
		k >>= 4
	}
	return string(b[:])
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.reqBatch.Inc()
	arrival := s.clock.Now()
	id := requestID(r)
	w.Header().Set("X-Request-Id", id)
	if r.Method != http.MethodPost {
		s.fail(w, s.errBatch, http.StatusMethodNotAllowed, errors.New("use POST"), id)
		return
	}
	// The batch request itself stays per-call (its instance pointers
	// fan out across rows, which a pooled decode target cannot express
	// safely); the scratch still carries the canonicalization arena and
	// the read/write buffers.
	rs := scratchPool.Get().(*reqScratch)
	defer scratchPool.Put(rs)
	rs.rec = Record{ID: id, Route: "batch", ArrivalNS: arrival.UnixNano()}
	fleetForwarded(w, r, &rs.rec)
	var req api.BatchRequest
	if err := s.readJSON(w, r, &rs.body, func(b []byte) error { return json.Unmarshal(b, &req) }); err != nil {
		s.finish(w, rs, s.errBatch, http.StatusBadRequest, err, arrival)
		return
	}
	if len(req.Instances) == 0 {
		s.finish(w, rs, s.errBatch, http.StatusBadRequest, errors.New("empty \"instances\""), arrival)
		return
	}
	rs.rec.Rows = len(req.Instances)
	// One admission slot covers the whole batch: its unique instances
	// solve sequentially, so a batch is one unit of in-flight work.
	admT := s.clock.Now()
	admitted, queued := s.adm.acquireInfo(r.Context())
	rs.rec.QueueNS = int64(s.clock.Since(admT))
	if !admitted {
		rs.rec.Admission = "shed"
		s.finish(w, rs, s.errBatch, http.StatusTooManyRequests, errShed, arrival)
		return
	}
	rs.rec.Admission = "admitted"
	if queued {
		rs.rec.Admission = "queued"
	}
	defer s.adm.release()
	ctx := r.Context()
	if s.cfg.Trace != nil {
		sp := s.cfg.Trace.Root().Start("request")
		sp.SetStr("request_id", id)
		rs.rec.SpanID = sp.ID()
		ctx = context.WithValue(ctx, traceSpanKey{}, sp)
		defer sp.End()
	}
	t0 := s.clock.Now()
	timeout, budget := s.limits(req.SolveOptions)
	rs.rec.TimeoutMS = int64(timeout / time.Millisecond)
	rs.rec.Budget = budget
	resp := &api.BatchResponse{Results: make([]*api.BatchResult, len(req.Instances))}
	solved := map[uint64]*Result{} // batch-local dedup on top of the shared cache
	for i, inst := range req.Instances {
		if inst == nil {
			resp.Results[i] = &api.BatchResult{Error: "missing instance"}
			continue
		}
		if err := inst.Validate(); err != nil {
			resp.Results[i] = &api.BatchResult{Error: err.Error()}
			continue
		}
		c := rs.cs.Canonicalize(inst) // valid until the next row's call
		res, cached := solved[c.Key]
		if !cached {
			var hit bool
			var err error
			res, hit, err = s.cache.Do(c.Key, func() (*Result, error) {
				return s.solve(context.WithoutCancel(ctx), c.Instance.Clone(), timeout, budget)
			})
			if err != nil {
				resp.Results[i] = &api.BatchResult{Error: err.Error()}
				continue
			}
			cached = hit
			solved[c.Key] = res
		}
		one := new(api.SolveResponse)
		if _, err := s.respond(inst, c, res, cached, one); err != nil {
			resp.Results[i] = &api.BatchResult{Error: err.Error()}
			continue
		}
		one.ElapsedMillis = float64(s.clock.Since(t0).Microseconds()) / 1000
		resp.Results[i] = &api.BatchResult{SolveResponse: one}
	}
	rs.rec.SolveNS = int64(s.clock.Since(t0))
	resp.RequestID = id
	s.writeResp(w, http.StatusOK, resp, rs)
	s.emit(rs, arrival, http.StatusOK, "")
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.reqHealthz.Inc()
	if r.Method != http.MethodGet {
		s.fail(w, s.errHealthz, http.StatusMethodNotAllowed, errors.New("use GET"), "")
		return
	}
	met := s.cfg.Metrics
	status, health := http.StatusOK, "ok"
	draining := s.draining.Load()
	if draining {
		// 503 tells load balancers to route elsewhere; the body still
		// carries the full statistics for operators watching the drain.
		status, health = http.StatusServiceUnavailable, "draining"
	}
	writeJSON(w, status, &api.Health{
		Status:        health,
		Draining:      draining,
		InFlight:      s.adm.InFlight(),
		MaxInFlight:   s.cfg.MaxInFlight,
		QueueDepth:    s.adm.QueueDepth(),
		CacheEntries:  s.cache.Len(),
		CacheHits:     met.Counter(obs.MCacheHits).Value(),
		CacheMisses:   met.Counter(obs.MCacheMisses).Value(),
		Shed:          met.Counter(obs.MServiceShed).Value(),
		UptimeSeconds: s.clock.Since(s.start).Seconds(),
	})
}

// solveStatus maps a solver error onto an HTTP status via the robust
// taxonomy: infeasibility is the caller's problem (422), a hard
// cancellation means the client is gone (503 is what a retrying proxy
// should see), anything else is ours (500).
func solveStatus(err error) int {
	switch {
	case errors.Is(err, robust.ErrInfeasible):
		return http.StatusUnprocessableEntity
	case errors.Is(err, robust.ErrCanceled),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// readJSON slurps the (size-capped) body into the pooled buffer and
// decodes it from there, so steady-state decoding reuses one arena
// instead of allocating decoder state per request.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer, decode func([]byte) error) error {
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

// fail writes the error body — carrying the request ID when one is
// known, so a client log line locates the server-side record —
// counting it and attaching Retry-After on 429s.
func (s *Server) fail(w http.ResponseWriter, errs *obs.Counter, status int, err error, id string) {
	errs.Inc()
	body := &api.Error{Error: err.Error(), RequestID: id}
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSecs))
		body.RetryAfterSeconds = retryAfterSecs
	}
	writeJSON(w, status, body)
}

// writeResp encodes into the scratch's buffer — a solve answer through
// the api codec, a batch through the bound encoder, both compact JSON
// plus a newline — and the known length lets net/http skip chunked
// framing.
func (s *Server) writeResp(w http.ResponseWriter, status int, body any, rs *reqScratch) {
	rs.out.Reset()
	var err error
	if resp, ok := body.(*api.SolveResponse); ok {
		var b []byte
		if b, err = api.AppendSolveResponse(rs.out.AvailableBuffer(), resp); err == nil {
			rs.out.Write(append(b, '\n'))
		}
	} else {
		err = rs.enc.Encode(body)
	}
	if err != nil {
		// Marshal failure of our own wire types is a programming error;
		// surface it rather than sending a truncated body.
		s.fail(w, s.errSolve, http.StatusInternalServerError, err, rs.rec.ID)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(rs.out.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(rs.out.Bytes())
}

// writeJSON is the cold-path writer (errors, healthz): allocating an
// encoder per call is fine off the solve path.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
}
