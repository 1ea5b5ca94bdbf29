// Package api defines the wire types of the ised solver service:
// the JSON bodies of /v1/solve, /v1/batch, and /v1/healthz. Both the
// server (internal/server) and the Go client (calib/client) marshal
// through these structs, so the two sides cannot drift; other-language
// clients can treat this file as the API reference alongside
// docs/SERVICE.md.
//
// The /v1/solve bodies, and the JSON body of /v1/cache/entries built
// from them, are (de)serialized by the plain functions of wire.go
// rather than by reflection: ised, isedfleet and the Go client all
// use them on the solve and replication paths. Their contract is
// encoding/json's own, byte for byte, so the wire format is the one
// the struct tags below describe; every other body goes through
// encoding/json.
package api

import "calib"

// SolveOptions are the per-request solver limits a caller may ask
// for. The server clamps both to its own configured maxima: a request
// can tighten the service's limits, never loosen them.
type SolveOptions struct {
	// TimeoutMillis bounds the solve's wall clock in milliseconds
	// (0 = the server's default). The service solves through the
	// degradation ladder, so an expiring timeout degrades the answer
	// instead of failing the request (see docs/ROBUSTNESS.md).
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// Budget caps the solve's work in abstract solver units (one
	// simplex pivot or search node = one unit); 0 = the server's
	// default. Deterministic counterpart of TimeoutMillis.
	Budget int64 `json:"budget,omitempty"`
}

// SolveRequest is the body of POST /v1/solve.
type SolveRequest struct {
	// Instance is the ISE instance to solve. Required.
	Instance *calib.Instance `json:"instance"`
	SolveOptions
}

// BatchRequest is the body of POST /v1/batch: many instances, one
// option set. Instances that are equivalent up to job order and a
// uniform time shift are solved once and replayed.
type BatchRequest struct {
	Instances []*calib.Instance `json:"instances"`
	SolveOptions
}

// SolveResponse is the body of a successful solve, and one element of
// a batch response.
type SolveResponse struct {
	// Schedule is the feasible schedule, expressed in the request
	// instance's own time frame and job IDs (de-canonicalized).
	Schedule *calib.Schedule `json:"schedule"`
	// Calibrations is the objective value.
	Calibrations int `json:"calibrations"`
	// MachinesUsed counts distinct machines with work or calibrations.
	MachinesUsed int `json:"machines_used"`
	// LowerBound is the combinatorial lower bound on the optimal
	// calibration count (invariant under canonicalization).
	LowerBound int `json:"lower_bound"`
	// Components is the number of independent time components the
	// solve decomposed into.
	Components int `json:"components"`
	// Degraded reports that at least one component fell past the first
	// rung of the exact→LP→heuristic ladder (deadline or budget
	// pressure); the schedule is still feasible.
	Degraded bool `json:"degraded"`
	// Exact reports that every component was solved to proven
	// optimality, making Calibrations the true optimum.
	Exact bool `json:"exact"`
	// Cached reports that the schedule came from the service's
	// canonical cache rather than a fresh solve.
	Cached bool `json:"cached"`
	// Key is the canonical instance key (hex): instances with equal
	// keys are equivalent up to job order and a uniform time shift and
	// share one cache entry.
	Key string `json:"key"`
	// ElapsedMillis is the server-side wall clock of this request.
	ElapsedMillis float64 `json:"elapsed_ms"`
	// RequestID is the request's flight-recorder ID: the caller's
	// X-Request-ID if one was sent (sanitized), otherwise minted by the
	// server. The same ID locates the request in /debug/requests/{id}
	// and in the -trace-log JSONL. Echoed in the X-Request-ID response
	// header too. Empty on batch rows (the enclosing BatchResponse
	// carries the batch's ID).
	RequestID string `json:"request_id,omitempty"`
}

// BatchResponse is the body of a successful POST /v1/batch. Results
// align index-for-index with the request's Instances; an instance that
// failed has a nil Result and a non-empty Error at its index.
type BatchResponse struct {
	Results []*BatchResult `json:"results"`
	// RequestID identifies the whole batch in the flight recorder and
	// trace log (see SolveResponse.RequestID).
	RequestID string `json:"request_id,omitempty"`
}

// BatchResult is one instance's outcome within a batch.
type BatchResult struct {
	*SolveResponse
	// Error is set when this instance failed (the rest of the batch
	// still answers).
	Error string `json:"error,omitempty"`
}

// Health is the body of GET /v1/healthz. While the daemon is
// draining, /v1/healthz returns this same body with HTTP 503 and
// Draining set, so load balancers stop routing to it before its
// listener closes.
type Health struct {
	// Status is "ok" while the daemon accepts work, "draining" during
	// graceful shutdown.
	Status string `json:"status"`
	// Draining reports that graceful shutdown has begun: in-flight
	// requests will finish, new ones should go elsewhere.
	Draining bool `json:"draining,omitempty"`
	// InFlight is the number of requests currently admitted and
	// solving; MaxInFlight is the admission bound.
	InFlight    int `json:"in_flight"`
	MaxInFlight int `json:"max_in_flight"`
	// QueueDepth is the number of requests waiting for an admission
	// slot right now.
	QueueDepth int `json:"queue_depth"`
	// CacheEntries / CacheHits / CacheMisses describe the canonical
	// schedule cache; Shed counts requests refused with 429.
	CacheEntries int   `json:"cache_entries"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	Shed         int64 `json:"shed"`
	// UptimeSeconds is the time since the server started.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// FleetHealth is the body of GET /v1/healthz on the isedfleet router:
// the fleet-level view a load balancer or operator sees. Status is
// "ok" (all nodes routable), "degraded" (some ejected; answered with
// HTTP 200 — the fleet still serves), or "down" (no routable node;
// HTTP 503).
type FleetHealth struct {
	Status string `json:"status"`
	// HealthyNodes counts nodes currently routable; Nodes lists all.
	HealthyNodes int         `json:"healthy_nodes"`
	Nodes        []FleetNode `json:"nodes"`
	// RingPoints is the number of virtual points on the consistent-hash
	// ring (nodes × replicas).
	RingPoints int `json:"ring_points"`
	// UptimeSeconds is the time since the router started.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// FleetNode is one backend's state as the router sees it.
type FleetNode struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	// Healthy reports that the node is in the routing set (not ejected
	// by the health state machine).
	Healthy bool `json:"healthy"`
	// Warming reports that the node has recovered but is still
	// receiving its hinted-handoff backlog and warm transfer; it
	// re-enters routing when the transfer completes.
	Warming bool `json:"warming,omitempty"`
	// InFlight is the node's admitted-solve gauge from its last health
	// probe.
	InFlight int `json:"in_flight"`
}

// CacheEntry is one replicated solve on the wire: the solve request it
// answers (the replica receiver re-derives and checks the canonical
// key from the instance) and the response the owner produced for it.
// Both sides are exactly the /v1/solve wire bodies, so a replicator
// holding the raw request and response bytes forwards them verbatim.
type CacheEntry struct {
	Request  *SolveRequest  `json:"request"`
	Response *SolveResponse `json:"response"`
}

// CacheEntriesRequest is the JSON body of POST /v1/cache/entries: the
// fleet's replica write-behind and hinted-handoff replay. (The same
// endpoint also accepts the binary snapshot wire format for warm
// transfers; see docs/SERVICE.md.)
type CacheEntriesRequest struct {
	Entries []CacheEntry `json:"entries"`
}

// CacheEntriesResponse reports what a POST /v1/cache/entries did:
// every entry is either stored, skipped (key already cached — the
// local entry wins), or rejected (key mismatch or failed validation).
type CacheEntriesResponse struct {
	Stored    int    `json:"stored"`
	Skipped   int    `json:"skipped"`
	Rejected  int    `json:"rejected"`
	RequestID string `json:"request_id,omitempty"`
}

// HeaderPeek marks a /v1/solve forward as a cache peek: a cache hit
// answers normally (bypassing admission as hits always do), a miss
// answers 204 No Content instead of admitting a solve. The fleet
// router uses it to ask a key's replicas for the cached schedule
// before re-solving work the fleet already paid for. 204 keeps a
// missed peek out of the error counters and the SLO error budget — a
// miss is an answer, not a failure.
const HeaderPeek = "X-Fleet-Peek"

// ValidRequestID reports whether id is an acceptable X-Request-ID:
// 1..128 bytes of [0-9A-Za-z._-]. That is enough for every common ID
// scheme (UUIDs, ULIDs, hex) while keeping header echo, log lines, and
// /debug/requests/{id} URLs injection-free. The backends and the fleet
// router both adopt a caller's ID only when it passes, and mint their
// own otherwise.
func ValidRequestID(id string) bool {
	if len(id) == 0 || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Error is the body of every non-2xx response.
type Error struct {
	// Error is a human-readable description.
	Error string `json:"error"`
	// RetryAfterSeconds mirrors the Retry-After header on 429
	// responses: wait at least this long before retrying.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
	// RequestID identifies the failed request in the server's flight
	// recorder (/debug/requests/{id}) and trace log, so a reported
	// failure is greppable server-side. Also in the X-Request-ID
	// response header.
	RequestID string `json:"request_id,omitempty"`
}
