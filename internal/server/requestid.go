package server

import (
	"net/http"
	"sync/atomic"
	"time"

	"calib/api"
)

// Request IDs. Every /v1/solve and /v1/batch request gets one: the
// client's X-Request-ID when it sent a well-formed one, a minted ID
// otherwise. The ID is echoed in the X-Request-ID response header and
// the response body (success and error alike), keys the flight
// recorder and the trace log, and tags the request's span in the
// solver trace — one handle from client log line to server decision
// record.

// reqIDSeq and reqIDBase mint process-unique IDs: a per-process base
// (boot time, bit-mixed) XOR a mixed sequence number. 16 hex digits,
// one string allocation per mint, no locks.
var (
	reqIDSeq  atomic.Uint64
	reqIDBase = mix64(uint64(time.Now().UnixNano()))
)

// mix64 is splitmix64's finalizer: a cheap bijective scrambler so
// consecutive sequence numbers yield unrelated-looking IDs.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// requestID returns the request's ID: the client's X-Request-ID when
// acceptable, a fresh mint otherwise.
func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); api.ValidRequestID(id) {
		return id
	}
	return keyString(reqIDBase ^ mix64(reqIDSeq.Add(1)))
}

// fleetForwarded reads the fleet router's forwarded-request headers
// into the decision record and echoes the node identity back, so a
// routed request's backend record names the node the roster knows it
// by and how the router chose it (affinity vs spillover) — the router
// side of the story, reconstructible from /debug/requests on the
// backend alone. Direct, un-routed traffic carries neither header and
// records nothing.
func fleetForwarded(w http.ResponseWriter, r *http.Request, rec *Record) {
	if node := r.Header.Get("X-Fleet-Node"); api.ValidRequestID(node) {
		rec.Node = node
		w.Header().Set("X-Fleet-Node", node)
	}
	if route := r.Header.Get("X-Fleet-Route"); validFleetRoute(route) {
		rec.FleetRoute = route
	}
}

// validFleetRoute accepts the router's route annotations: 1..64 bytes
// of [0-9a-z:-] ("affinity", "spillover:shed", "replica-peek", ...).
func validFleetRoute(route string) bool {
	if len(route) == 0 || len(route) > 64 {
		return false
	}
	for i := 0; i < len(route); i++ {
		c := route[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c == ':', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}
