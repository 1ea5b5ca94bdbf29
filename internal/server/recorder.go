package server

import (
	"sort"
	"sync"

	"calib/internal/obs"
)

// Record is one request's decision log: everything the serving layer
// decided about it, flattened into a flat JSON-stable struct. The
// flight recorder keeps recent Records in memory (/debug/requests)
// and the trace log exports them as JSONL — the input format of the
// planned trace-replay harness, so the field set and JSON tags are a
// compatibility surface. encoding/json marshals struct fields in
// declaration order, which makes the encoding deterministic; the
// trace-log round-trip test pins decode → re-encode byte-identity.
type Record struct {
	// ID is the request's X-Request-ID (client-sent or server-minted).
	ID string `json:"id"`
	// Route is the endpoint: "solve" or "batch".
	Route string `json:"route"`
	// ArrivalNS is the arrival timestamp, Unix nanoseconds.
	ArrivalNS int64 `json:"arrival_ns"`
	// QueueNS is the time spent acquiring an admission slot (includes
	// any bounded-queue wait; 0 when admission was bypassed).
	QueueNS int64 `json:"queue_ns,omitempty"`
	// SolveNS is the time spent in the cache/solve stage.
	SolveNS int64 `json:"solve_ns,omitempty"`
	// TotalNS is the end-to-end handler time.
	TotalNS int64 `json:"total_ns"`
	// Status is the HTTP status answered.
	Status int `json:"status"`
	// Outcome classifies the request: "ok", "shed", or "error".
	Outcome string `json:"outcome"`
	// Admission is the admission verdict: "bypass" (cache hit — never
	// reached admission; the bypass invariant is pinned by tests),
	// "admitted" (slot free immediately), "queued" (waited in the
	// bounded queue first), or "shed".
	Admission string `json:"admission,omitempty"`
	// Key is the canonical instance key (hex), as in SolveResponse.Key.
	Key string `json:"key,omitempty"`
	// Cache is the singleflight role: "hit", "leader" (solved cold),
	// "follower" (waited on a concurrent identical solve), or
	// "peek-miss".
	Cache string `json:"cache,omitempty"`
	// Rung is the robust ladder's answering rung summary ("exact,lp").
	Rung string `json:"rung,omitempty"`
	// Falls lists "rung:reason" ladder falls, component order.
	Falls []string `json:"falls,omitempty"`
	// Degraded and Exact mirror the response flags.
	Degraded bool `json:"degraded,omitempty"`
	Exact    bool `json:"exact,omitempty"`
	// Faults lists "point:count" fault injections observed during the
	// leader solve (a registry-delta sample: approximate when solves
	// overlap).
	Faults []string `json:"faults,omitempty"`
	// TimeoutMS and Budget are the request's effective solve limits.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	Budget    int64 `json:"budget,omitempty"`
	// Rows is the instance count of a batch request.
	Rows int `json:"rows,omitempty"`
	// SpanID is the root span of the request's solver span tree when
	// tracing is armed (obs span IDs; 0 = tracing off).
	SpanID uint64 `json:"span_id,omitempty"`
	// Node and FleetRoute are the fleet router's forwarded-request
	// annotations (X-Fleet-Node, X-Fleet-Route): the name this backend
	// has in the fleet and how the request reached it ("affinity",
	// "spillover:<reason>", "replica-peek"). Empty on direct, un-routed
	// traffic.
	Node       string `json:"node,omitempty"`
	FleetRoute string `json:"fleet_route,omitempty"`
	// Err is the error answered, if any.
	Err string `json:"error,omitempty"`
}

// Recorder is the request flight recorder: a fixed-size, mutex-sharded
// ring of Records. The main ring per shard keeps the newest requests;
// two side retentions survive ring churn — every error/shed lands in a
// dedicated tail ring, and a top-K-by-latency set keeps the slowest
// requests (rolling p99 exemplars) — so the interesting requests are
// still addressable after thousands of healthy ones wrapped the ring.
//
// A nil *Recorder is the off switch: Add is a nil-check, the serving
// hot path stays zero-allocation (CI-gated by
// BenchmarkFlightRecorderOff).
type Recorder struct {
	shards  [recorderShards]recShard
	records *obs.Counter
}

const (
	recorderShards = 8
	// slowKeep is the per-shard top-K latency retention.
	slowKeep = 16
)

type recShard struct {
	mu sync.Mutex
	// ring is the main fixed-capacity ring; next is the write cursor.
	ring []Record
	next int
	full bool
	// tail retains errors and sheds; same ring mechanics.
	tail     []Record
	tailNext int
	tailFull bool
	// slow is the top-K slowest set (unordered; min replaced on insert).
	slow []Record
}

// NewRecorder returns a recorder retaining about size records across
// its shards (0 picks 2048). met counts flight_records_total; nil
// disables the counter only — the recorder itself still records.
func NewRecorder(size int, met *obs.Registry) *Recorder {
	if size <= 0 {
		size = 2048
	}
	per := (size + recorderShards - 1) / recorderShards
	if per < 4 {
		per = 4
	}
	r := &Recorder{records: met.Counter(obs.MFlightRecords)}
	for i := range r.shards {
		r.shards[i].ring = make([]Record, per)
		r.shards[i].tail = make([]Record, per/4+1)
		r.shards[i].slow = make([]Record, 0, slowKeep)
	}
	return r
}

// shardFor picks the shard by FNV-1a of the request ID.
func (r *Recorder) shardFor(id string) *recShard {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h = (h ^ uint32(id[i])) * 16777619
	}
	return &r.shards[h%recorderShards]
}

// Add captures one finished request. The record is copied in; the
// caller may reuse rec. Nil-safe.
func (r *Recorder) Add(rec *Record) {
	if r == nil {
		return
	}
	s := r.shardFor(rec.ID)
	s.mu.Lock()
	s.ring[s.next] = *rec
	s.next++
	if s.next == len(s.ring) {
		s.next, s.full = 0, true
	}
	if rec.Outcome != "ok" {
		s.tail[s.tailNext] = *rec
		s.tailNext++
		if s.tailNext == len(s.tail) {
			s.tailNext, s.tailFull = 0, true
		}
	}
	if len(s.slow) < cap(s.slow) {
		s.slow = append(s.slow, *rec)
	} else {
		min := 0
		for i := 1; i < len(s.slow); i++ {
			if s.slow[i].TotalNS < s.slow[min].TotalNS {
				min = i
			}
		}
		if rec.TotalNS > s.slow[min].TotalNS {
			s.slow[min] = *rec
		}
	}
	s.mu.Unlock()
	r.records.Inc()
}

// Get returns the retained record for id, searching the main rings
// first and the error/slow retentions after (a record can be in
// several; the main ring's copy wins). Nil-safe.
func (r *Recorder) Get(id string) (Record, bool) {
	if r == nil {
		return Record{}, false
	}
	s := r.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, set := range [][]Record{s.live(s.ring, s.next, s.full), s.live(s.tail, s.tailNext, s.tailFull), s.slow} {
		for i := len(set) - 1; i >= 0; i-- {
			if set[i].ID == id {
				return set[i], true
			}
		}
	}
	return Record{}, false
}

// live returns the populated portion of a ring (the whole slice once
// it has wrapped). Caller holds s.mu.
func (*recShard) live(ring []Record, next int, full bool) []Record {
	if full {
		return ring
	}
	return ring[:next]
}

// RecordFilter selects records in List. Zero fields match everything.
type RecordFilter struct {
	// Route matches the Record's Route (the endpoint) or its
	// FleetRoute (the router's routing annotation): ?route=solve and
	// ?route=replica-hit both work, so replication events are
	// filterable for counterfactual RF analysis without a second query
	// parameter. Outcome / Cache / Admission / Node match the
	// same-named Record fields exactly when non-empty.
	Route, Outcome, Cache, Admission, Node string
	// Slow selects the top-K-by-latency retention instead of the main
	// rings; Errors selects the error/shed tail retention.
	Slow, Errors bool
	// Limit caps the result length (0 = 100).
	Limit int
}

// List returns retained records matching f, newest first. Nil-safe.
func (r *Recorder) List(f RecordFilter) []Record {
	if r == nil {
		return nil
	}
	if f.Limit <= 0 {
		f.Limit = 100
	}
	var out []Record
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		var set []Record
		switch {
		case f.Slow:
			set = s.slow
		case f.Errors:
			set = s.live(s.tail, s.tailNext, s.tailFull)
		default:
			set = s.live(s.ring, s.next, s.full)
		}
		for _, rec := range set {
			if f.Route != "" && rec.Route != f.Route && rec.FleetRoute != f.Route {
				continue
			}
			if f.Outcome != "" && rec.Outcome != f.Outcome {
				continue
			}
			if f.Cache != "" && rec.Cache != f.Cache {
				continue
			}
			if f.Admission != "" && rec.Admission != f.Admission {
				continue
			}
			if f.Node != "" && rec.Node != f.Node {
				continue
			}
			out = append(out, rec)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ArrivalNS > out[b].ArrivalNS })
	if len(out) > f.Limit {
		out = out[:f.Limit]
	}
	return out
}
