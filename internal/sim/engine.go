package sim

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"calib"
	"calib/api"
	"calib/internal/ise"
	"calib/internal/obs"
	"calib/internal/server"
)

// Event kinds, in tie-break priority order at equal virtual times:
// departures first (a freed slot admits a same-instant arrival),
// arrivals second, queue deadlines last (a same-instant departure
// rescues the queued head instead of shedding it). Within a kind,
// push order (seq) decides — arrivals are pushed in workload order.
const (
	actDeparture = iota // a virtually in-flight solve completes (leader or error)
	actFollower         // a follower's leader completes; serve the follower now
	actArrival
	actDeadline // a queued request's wait expires
)

func actPriority(act int8) int8 {
	switch act {
	case actArrival:
		return 1
	case actDeadline:
		return 2
	default:
		return 0
	}
}

type event struct {
	at  int64
	act int8
	seq int64
	rr  *runReq
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(a, b int) bool {
	if h[a].at != h[b].at {
		return h[a].at < h[b].at
	}
	if pa, pb := actPriority(h[a].act), actPriority(h[b].act); pa != pb {
		return pa < pb
	}
	return h[a].seq < h[b].seq
}
func (h eventHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// Outcome kinds of one request under one policy.
const (
	kindHit      = "hit"
	kindLeader   = "leader"
	kindFollower = "follower"
	kindShed     = "shed"
	kindError    = "error"
)

// outcome is what one policy did with one request.
type outcome struct {
	req       *request
	kind      string
	latencyNS int64
	queuedNS  int64 // virtual time spent in the admission queue
	admission string
	cacheRole string
	status    int
}

// runReq is a request's per-policy mutable state.
type runReq struct {
	*request
	key         uint64 // canonical key, resolved at first processing
	inQueue     bool
	wasQueued   bool
	queuedAtNS  int64
	wasFollower bool
}

// RunOptions carries the optional sinks of one policy run.
type RunOptions struct {
	// TraceLog, when non-nil, receives every decision record —
	// including the simulator-synthesized shed records — in the same
	// JSONL format ised -trace-log writes, so a simulated run's trace
	// replays through isesim -replay.
	TraceLog *server.TraceLog
	// Metrics receives the run's sim_*, service_*, cache_* and solver
	// series (nil = a private registry).
	Metrics *obs.Registry
}

// run is one policy's simulation state.
type run struct {
	w     *Workload
	pol   PolicySpec
	reg   *obs.Registry
	clock *vclock
	srv   *server.Server
	tlog  *server.TraceLog

	events eventHeap
	seq    int64
	queue  []*runReq
	// readyAt maps a canonical key to the virtual completion time of
	// its in-flight leader solve. The cache itself cannot answer
	// "in flight": the leader's synchronous ServeHTTP filled it
	// immediately, while virtually the solve is still running — so
	// the in-flight check must come before the cache peek.
	readyAt map[uint64]int64

	curCost int64 // virtual cost of the request being served (read by solveFunc)

	outs   []outcome
	endNS  int64
	nEvent int64

	mShed, mQueued, mHits, mFollowers, mSolves, mEvents *obs.Counter
	mVirtual                                            *obs.Gauge
	mReqClass                                           []*obs.Counter
}

// runPolicy simulates the workload under one policy and returns the
// per-request outcomes in completion order plus the virtual end time.
// The run is a pure function of (w, pol, seed baked into w): two
// calls produce identical outcomes.
func runPolicy(w *Workload, pol PolicySpec, opts RunOptions) ([]outcome, int64, error) {
	pol = pol.withDefaults()
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	obs.DeclareSim(reg)
	clock := &vclock{}
	r := &run{
		w:       w,
		pol:     pol,
		reg:     reg,
		clock:   clock,
		tlog:    opts.TraceLog,
		readyAt: map[uint64]int64{},
		outs:    make([]outcome, 0, len(w.Requests)),

		mShed:      reg.Counter(obs.MSimShed),
		mQueued:    reg.Counter(obs.MSimQueued),
		mHits:      reg.Counter(obs.MSimCacheHits),
		mFollowers: reg.Counter(obs.MSimFollowers),
		mSolves:    reg.Counter(obs.MSimSolves),
		mEvents:    reg.Counter(obs.MSimEvents),
		mVirtual:   reg.Gauge(obs.MSimVirtualSeconds),
	}
	for _, c := range w.Classes {
		r.mReqClass = append(r.mReqClass, reg.CounterWith(obs.MSimRequests, "class", c.Name))
	}
	cacheEntries := pol.CacheEntries
	r.srv = server.New(server.Config{
		MaxInFlight: pol.MaxInflight,
		// Server-side queueing stays off: queue waits would arm real
		// timers. The bounded queue is modeled below in virtual time.
		MaxQueue:     -1,
		CacheEntries: cacheEntries,
		Metrics:      reg,
		Solve:        r.solveFunc,
		TraceLog:     opts.TraceLog,
		Clock:        clock,
	})

	for _, req := range w.Requests {
		r.push(req.ArrivalNS, actArrival, &runReq{request: req})
	}
	heap.Init(&r.events)
	for r.events.Len() > 0 {
		ev := heap.Pop(&r.events).(event)
		r.nEvent++
		if ev.at > r.endNS {
			r.endNS = ev.at
		}
		switch ev.act {
		case actArrival:
			r.process(ev.rr, ev.at)
		case actDeparture:
			r.srv.ReleaseSlot()
			if t, ok := r.readyAt[ev.rr.key]; ok && t == ev.at {
				delete(r.readyAt, ev.rr.key)
			}
			r.drain(ev.at)
		case actFollower:
			r.srv.ReleaseSlot()
			ev.rr.wasFollower = true
			r.process(ev.rr, ev.at)
			r.drain(ev.at)
		case actDeadline:
			if ev.rr.inQueue {
				ev.rr.inQueue = false
				r.shed(ev.rr, ev.at)
			}
		}
	}
	r.mEvents.Add(r.nEvent)
	r.mVirtual.Set(float64(r.endNS) / 1e9)
	if len(r.outs) != len(w.Requests) {
		return nil, 0, fmt.Errorf("sim: %d outcomes for %d requests", len(r.outs), len(w.Requests))
	}
	return r.outs, r.endNS, nil
}

func (r *run) push(at int64, act int8, rr *runReq) {
	r.seq++
	heap.Push(&r.events, event{at: at, act: act, seq: r.seq, rr: rr})
}

// process decides a request's fate at virtual time now (its arrival,
// or its dequeue from the virtual admission queue). The decision
// order mirrors the real request path — in-flight leader first (the
// singleflight join), then the cache, then admission for a fresh
// solve — except that "in flight" is virtual-time knowledge only the
// simulator has.
func (r *run) process(rr *runReq, now int64) {
	key, cached := r.srv.PeekCache(rr.Inst)
	rr.key = key
	if ready, ok := r.readyAt[key]; ok && ready > now {
		// A leader for this key is virtually in flight: join it.
		// Followers hold an admission slot while they wait, exactly as
		// a blocked singleflight caller does.
		if r.srv.AcquireSlot() {
			r.push(ready, actFollower, rr)
			return
		}
		r.enqueue(rr, now)
		return
	}
	if cached {
		rec := r.serve(rr)
		kind, lat := kindHit, now-rr.ArrivalNS+int64(r.w.Cost.HitUS*1e3)
		r.mHits.Inc()
		if rr.wasFollower {
			kind, lat = kindFollower, now-rr.ArrivalNS+int64(r.w.Cost.FollowerUS*1e3)
			r.mHits.Add(-1)
			r.mFollowers.Inc()
		}
		r.finish(rr, rec, kind, lat, now)
		return
	}
	// Cache miss: the request needs a slot for a leader solve.
	if !r.srv.AcquireSlot() {
		r.enqueue(rr, now)
		return
	}
	// Probe only — ServeHTTP's own admission acquire must see the
	// free slot so the decision record reads "admitted". Single-
	// threaded, so nothing can steal it in between.
	r.srv.ReleaseSlot()
	r.curCost = rr.CostNS
	rec := r.serve(rr)
	if rec.Admission != "admitted" {
		// Rejected before any solve ran (validation failure): no
		// virtual occupancy to model.
		r.finish(rr, rec, kindError, now-rr.ArrivalNS, now)
		return
	}
	if !r.srv.AcquireSlot() {
		panic("sim: admission slot vanished mid-event")
	}
	done := now + rr.CostNS
	kind := kindLeader
	if rec.Status == http.StatusOK {
		r.readyAt[key] = done
		r.mSolves.Inc()
	} else {
		kind = kindError // the solve ran (and failed); it still occupied the slot
	}
	r.push(done, actDeparture, rr)
	r.finish(rr, rec, kind, done-rr.ArrivalNS, now)
}

// enqueue puts rr in the virtual admission queue, or sheds when the
// policy has no queue or it is full.
func (r *run) enqueue(rr *runReq, now int64) {
	waitNS := int64(r.pol.QueueWaitMS * 1e6)
	if r.pol.MaxQueue <= 0 || waitNS <= 0 || r.queueDepth() >= r.pol.MaxQueue {
		r.shed(rr, now)
		return
	}
	rr.inQueue = true
	rr.wasQueued = true
	rr.queuedAtNS = now
	r.queue = append(r.queue, rr)
	r.mQueued.Inc()
	r.push(now+waitNS, actDeadline, rr)
}

func (r *run) queueDepth() int {
	n := 0
	for _, q := range r.queue {
		if q.inQueue {
			n++
		}
	}
	return n
}

// drain re-processes queued requests in FIFO order while slots are
// free. Entries already shed by their deadline are skipped.
func (r *run) drain(now int64) {
	for {
		var rr *runReq
		for len(r.queue) > 0 {
			head := r.queue[0]
			if !head.inQueue {
				r.queue = r.queue[1:]
				continue
			}
			rr = head
			break
		}
		if rr == nil {
			return
		}
		if !r.srv.AcquireSlot() {
			return
		}
		r.srv.ReleaseSlot()
		r.queue = r.queue[1:]
		rr.inQueue = false
		r.process(rr, now)
	}
}

// shed refuses rr. The decision is the simulator's — taken in virtual
// time, where the slot-or-queue shortage exists — so the record is
// synthesized here rather than forced through the server, whose
// synchronous cache may already hold the key a virtually in-flight
// leader is still computing.
func (r *run) shed(rr *runReq, now int64) {
	rec := server.Record{
		ID: rr.ID, Route: "solve", ArrivalNS: rr.ArrivalNS,
		TotalNS: now - rr.ArrivalNS, Status: http.StatusTooManyRequests,
		Outcome: "shed", Admission: "shed",
	}
	if f := r.srv.Flight(); f != nil {
		f.Add(&rec)
	}
	if r.tlog != nil {
		r.tlog.Append(&rec)
	}
	r.mShed.Inc()
	r.finish(rr, &rec, kindShed, now-rr.ArrivalNS, now)
}

// finish records rr's outcome.
func (r *run) finish(rr *runReq, rec *server.Record, kind string, latencyNS, now int64) {
	r.mReqClass[rr.Class].Inc()
	queued := int64(0)
	if rr.wasQueued {
		queued = now - rr.queuedAtNS
	}
	r.outs = append(r.outs, outcome{
		req:       rr.request,
		kind:      kind,
		latencyNS: latencyNS,
		queuedNS:  queued,
		admission: rec.Admission,
		cacheRole: rec.Cache,
		status:    rec.Status,
	})
}

// serve pushes rr through the real mux synchronously, with the
// virtual clock rewound to the request's arrival so the decision
// record stamps true arrival time, and returns the record the server
// published for it.
func (r *run) serve(rr *runReq) *server.Record {
	r.clock.Set(rr.ArrivalNS)
	body, err := json.Marshal(api.SolveRequest{
		Instance:     rr.Inst,
		SolveOptions: api.SolveOptions{Budget: rr.Budget},
	})
	if err != nil {
		panic("sim: marshal request: " + err.Error())
	}
	req, err := http.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
	if err != nil {
		panic("sim: build request: " + err.Error())
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", rr.ID)
	var w respWriter
	w.h = make(http.Header)
	r.srv.ServeHTTP(&w, req)
	rec, ok := r.srv.Flight().Get(rr.ID)
	if !ok {
		// The flight recorder is always enabled in simulated runs;
		// reconstruct a minimal record defensively.
		rec = server.Record{ID: rr.ID, Route: "solve", ArrivalNS: rr.ArrivalNS, Status: w.code}
	}
	return &rec
}

// solveFunc is the server's SolveFunc during simulation: it advances
// the virtual clock by the request's cost — so the record's SolveNS
// is the virtual cost, which replay later reads back — then runs the
// real robust ladder with no wall-clock timeout (wall deadlines are
// nondeterministic; budgets are the deterministic limit).
func (r *run) solveFunc(ctx context.Context, inst *ise.Instance, _ time.Duration, budget int64) (*server.Result, error) {
	r.clock.Advance(time.Duration(r.curCost))
	return server.ResultOf(calib.SolveRobust(inst, &calib.Options{
		Metrics: r.reg,
		Context: ctx,
		Budget:  budget,
	}))
}

// respWriter is the in-process ResponseWriter: headers and status
// only — response bodies are discarded, the decision record is the
// simulator's source of truth.
type respWriter struct {
	h    http.Header
	code int
}

func (w *respWriter) Header() http.Header { return w.h }
func (w *respWriter) WriteHeader(c int)   { w.code = c }
func (w *respWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(p), nil
}
