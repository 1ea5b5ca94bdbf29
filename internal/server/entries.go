package server

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"

	"calib/api"
	"calib/internal/canon"
	"calib/internal/ise"
)

// /v1/cache/entries — the cache transfer surface the fleet's
// replication layer speaks (docs/SERVICE.md, "Replication").
//
//	GET  /v1/cache/entries   stream every live cache entry in the
//	                         snapshot wire format (the warm-transfer
//	                         donor read)
//	POST /v1/cache/entries   insert entries if absent; two bodies:
//	                         application/json      api.CacheEntriesRequest
//	                                               (replica write-behind,
//	                                               hinted-handoff replay)
//	                         anything else         snapshot wire format
//	                                               (warm transfer)
//
// Every insert goes through PutIfAbsent: a replicated or transferred
// entry can never replace one this node solved itself, and never bumps
// an existing entry's LRU recency. JSON entries carry the original
// solve request and response, so the receiver re-derives the canonical
// key from the instance, maps the response schedule back into the
// canonical frame (canon.Recanonicalize), and re-validates feasibility
// before storing — a replica peer is input, not an oracle. Binary warm
// transfers carry canonical-frame Results and get the same structural
// checks a disk snapshot does (decodeResult), with per-request
// re-validation at serve time as the final backstop.
//
// The endpoint is auth-free and therefore guarded: only loopback peers
// may call it unless Config.CacheTransferOpen (ised
// -cache-transfer-open) opts a multi-host fleet in.

func (s *Server) handleCacheEntries(w http.ResponseWriter, r *http.Request) {
	s.reqEntries.Inc()
	arrival := s.clock.Now()
	id := requestID(r)
	w.Header().Set("X-Request-Id", id)
	rec := Record{ID: id, Route: "entries", ArrivalNS: arrival.UnixNano()}
	fleetForwarded(w, r, &rec)
	emit := func(status int, errStr string) {
		rec.TotalNS = int64(s.clock.Since(arrival))
		rec.Status = status
		rec.Err = errStr
		rec.Outcome = "ok"
		if status >= 400 {
			rec.Outcome = "error"
		}
		s.flight.Add(&rec)
		s.tlog.Append(&rec)
	}
	if !s.cfg.CacheTransferOpen && !loopbackRequest(r) {
		err := errors.New("cache transfer restricted to loopback peers (run with -cache-transfer-open to allow a multi-host fleet)")
		emit(http.StatusForbidden, err.Error())
		s.fail(w, s.errEntries, http.StatusForbidden, err, id)
		return
	}
	switch r.Method {
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/octet-stream")
		n, err := s.cache.Snapshot(w, encodeResult)
		rec.Rows = n
		if err != nil {
			// The stream is already flowing; all we can do is count and
			// record. The wire format's per-entry CRCs make the receiver
			// discard the torn tail.
			s.errEntries.Inc()
			emit(http.StatusOK, err.Error())
			return
		}
		emit(http.StatusOK, "")
	case http.MethodPost:
		var out api.CacheEntriesResponse
		var status int
		var err error
		if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
			status, err = s.storeReplicaEntries(w, r, &out)
		} else {
			status, err = s.storeTransferStream(r, &out)
		}
		rec.Rows = out.Stored + out.Skipped + out.Rejected
		if err != nil {
			emit(status, err.Error())
			s.fail(w, s.errEntries, status, err, id)
			return
		}
		out.RequestID = id
		writeJSON(w, status, &out)
		emit(status, "")
	default:
		err := errors.New("use GET or POST")
		emit(http.StatusMethodNotAllowed, err.Error())
		s.fail(w, s.errEntries, http.StatusMethodNotAllowed, err, id)
	}
}

// storeReplicaEntries handles the JSON body: each entry re-derives its
// canonical key from the instance and must prove itself before it is
// stored. A body that does not parse is the only request-level error;
// per-entry problems are counted in Rejected and never fail the batch
// (the sender cannot fix one bad entry by resending the good ones).
func (s *Server) storeReplicaEntries(w http.ResponseWriter, r *http.Request, out *api.CacheEntriesResponse) (int, error) {
	var req api.CacheEntriesRequest
	rs := scratchPool.Get().(*reqScratch)
	defer scratchPool.Put(rs)
	if err := s.readJSON(w, r, &rs.body, func(b []byte) error { return api.DecodeCacheEntriesRequest(b, &req) }); err != nil {
		return http.StatusBadRequest, err
	}
	for i := range req.Entries {
		key, res, ok := s.storeReplica(&rs.cs, &req.Entries[i])
		switch {
		case !ok:
			out.Rejected++
			s.replRejected.Inc()
		case s.cache.PutIfAbsent(key, res):
			out.Stored++
			s.replStored.Inc()
		default:
			out.Skipped++
			s.replSkipped.Inc()
		}
	}
	return http.StatusOK, nil
}

// storeReplica validates one replicated entry, returning the canonical
// key and Result to insert when it proves out. Rejections are
// deliberate dead ends, not errors: a replica write that fails its
// checks is dropped exactly like a corrupt snapshot entry — the fleet
// pays a future re-solve, never a wrong schedule.
func (s *Server) storeReplica(cs *canon.Scratch, e *api.CacheEntry) (uint64, *Result, bool) {
	if e.Request == nil || e.Request.Instance == nil ||
		e.Response == nil || e.Response.Schedule == nil {
		return 0, nil, false
	}
	if err := e.Request.Instance.Validate(); err != nil {
		return 0, nil, false
	}
	c := cs.Canonicalize(e.Request.Instance)
	if e.Response.Key != keyString(c.Key) {
		return 0, nil, false
	}
	sched, err := c.Recanonicalize(e.Response.Schedule)
	if err != nil {
		return 0, nil, false
	}
	if e.Response.Calibrations != sched.NumCalibrations() {
		return 0, nil, false
	}
	if err := ise.Validate(c.Instance, sched); err != nil {
		return 0, nil, false
	}
	return c.Key, &Result{
		Schedule:     sched,
		Calibrations: e.Response.Calibrations,
		MachinesUsed: e.Response.MachinesUsed,
		Components:   e.Response.Components,
		LowerBound:   e.Response.LowerBound,
		Degraded:     e.Response.Degraded,
		Exact:        e.Response.Exact,
		// Provenance for the decision log: this entry arrived by
		// replication, it was not solved here.
		Rung: "replica",
	}, true
}

// storeTransferStream handles the binary body: a snapshot wire stream
// restored through PutIfAbsent, entry-damage-tolerant exactly like a
// disk snapshot restore. Corrupt entries count as rejected.
func (s *Server) storeTransferStream(r *http.Request, out *api.CacheEntriesResponse) (int, error) {
	st, err := s.cache.RestoreIfAbsent(r.Body, decodeResult)
	out.Stored += st.Restored
	out.Skipped += st.Skipped
	out.Rejected += st.Corrupt
	s.replStored.Add(int64(st.Restored))
	s.replSkipped.Add(int64(st.Skipped))
	s.replRejected.Add(int64(st.Corrupt))
	if err != nil {
		return http.StatusBadRequest, fmt.Errorf("transfer stream: %w", err)
	}
	return http.StatusOK, nil
}

// loopbackRequest reports whether the request arrived over a loopback
// address. Unix-socket and in-process (httptest direct) connections
// have no host:port RemoteAddr and count as local.
func loopbackRequest(r *http.Request) bool {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		host = r.RemoteAddr
	}
	if host == "" || host == "@" || host == "pipe" {
		return true
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}
