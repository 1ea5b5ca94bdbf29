package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"calib/api"
	"calib/internal/cache"
	"calib/internal/obs"
)

// Replication write-behind. After a leader solve completes somewhere,
// the router re-posts the (request, response) pair to the key's other
// ring replicas (Plan.Replicas: Config.Replication names deep)
// through a bounded asynchronous queue. Replication is an optimization
// layered on a correct single-copy system: every path here is allowed
// to drop work — the cost of a lost replica write is one future
// re-solve, never a wrong answer — so the queue coalesces by key,
// sheds oldest-first under backpressure, and diverts writes for
// unreachable nodes into hinted handoff rather than blocking solves.

const (
	// replTimeout bounds one replica write delivery.
	replTimeout = 10 * time.Second
	// warmTimeout bounds a readmitting node's whole warming pass (hint
	// replay + snapshot diff); past it the node is readmitted cold.
	warmTimeout = 2 * time.Minute
	// hintReplayBatch is the number of hints per replay POST.
	hintReplayBatch = 32
	// warmTransferMaxBytes caps one donor's filtered snapshot stream.
	warmTransferMaxBytes = 64 << 20
)

// replKey identifies one pending replica write: coalescing is per
// (target node, canonical key) — a newer response for the same key
// replaces the queued one in place instead of growing the queue.
type replKey struct {
	node string
	key  uint64
}

// replicator is the bounded, coalescing replication queue and its
// single delivery worker.
type replicator struct {
	f *Fleet

	mu       sync.Mutex
	cond     *sync.Cond // queue became non-empty / closed
	idle     *sync.Cond // queue drained and worker idle (flush)
	order    []replKey  // FIFO
	pending  map[replKey][]byte
	inflight bool
	closed   bool
	maxQueue int
	wg       sync.WaitGroup

	enqueued  *obs.Counter
	sent      *obs.Counter
	errors    *obs.Counter
	dropped   *obs.Counter
	coalesced *obs.Counter
	queueG    *obs.Gauge
}

func newReplicator(f *Fleet, maxQueue int) *replicator {
	r := &replicator{
		f:         f,
		pending:   map[replKey][]byte{},
		maxQueue:  maxQueue,
		enqueued:  f.cfg.Metrics.Counter(obs.MFleetReplEnqueued),
		sent:      f.cfg.Metrics.Counter(obs.MFleetReplSent),
		errors:    f.cfg.Metrics.Counter(obs.MFleetReplErrors),
		dropped:   f.cfg.Metrics.Counter(obs.MFleetReplDropped),
		coalesced: f.cfg.Metrics.Counter(obs.MFleetReplCoalesced),
		queueG:    f.cfg.Metrics.Gauge(obs.MFleetReplQueue),
	}
	r.cond = sync.NewCond(&r.mu)
	r.idle = sync.NewCond(&r.mu)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.run()
	}()
	return r
}

// enqueue queues one replica write. The replicator takes ownership of
// payload (one JSON api.CacheEntry object). Never blocks: a full
// queue drops its oldest entry instead.
func (r *replicator) enqueue(node string, key uint64, payload []byte) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.dropped.Inc()
		return
	}
	k := replKey{node: node, key: key}
	if _, ok := r.pending[k]; ok {
		r.pending[k] = payload
		r.coalesced.Inc()
	} else {
		r.order = append(r.order, k)
		r.pending[k] = payload
		if len(r.order) > r.maxQueue {
			oldest := r.order[0]
			r.order = r.order[1:]
			delete(r.pending, oldest)
			r.dropped.Inc()
		}
	}
	r.enqueued.Inc()
	r.queueG.Set(float64(len(r.order)))
	r.cond.Signal()
	r.mu.Unlock()
}

func (r *replicator) run() {
	for {
		r.mu.Lock()
		for len(r.order) == 0 && !r.closed {
			r.idle.Broadcast()
			r.cond.Wait()
		}
		if len(r.order) == 0 {
			r.idle.Broadcast()
			r.mu.Unlock()
			return
		}
		k := r.order[0]
		r.order = r.order[1:]
		payload := r.pending[k]
		delete(r.pending, k)
		r.inflight = true
		r.queueG.Set(float64(len(r.order)))
		r.mu.Unlock()

		r.deliver(k.node, k.key, payload)

		r.mu.Lock()
		r.inflight = false
		r.mu.Unlock()
	}
}

// deliver pushes one replica write to its target, or diverts it to
// hinted handoff when the target cannot take it right now.
func (r *replicator) deliver(node string, key uint64, payload []byte) {
	f := r.f
	n := f.view.Load().byName[node]
	if n == nil {
		// The node left the roster; its keys re-hash to other owners.
		r.dropped.Inc()
		return
	}
	if !n.Healthy() {
		// Ejected or still warming: hinted handoff. The warming pass
		// replays these before the node re-enters routing.
		f.hints.add(node, key, payload)
		return
	}
	ctx, cancel := context.WithTimeout(f.ctx, replTimeout)
	status, err := f.postEntries(ctx, n, [][]byte{payload})
	cancel()
	if err == nil {
		r.sent.Inc()
		f.reportAlive(n)
		return
	}
	r.errors.Inc()
	// Keep the write as a hint either way: if the node is dying it will
	// be ejected and warmed later; if the failure is persistent (e.g. a
	// misconfigured transfer guard) the per-node hint cap bounds the
	// backlog. Only transport-level failures feed the health machine —
	// an HTTP answer of any status proves the node alive.
	f.hints.add(node, key, payload)
	if status == 0 && f.ctx.Err() == nil {
		f.reportFailure(n, "replicate", err)
	}
}

// flush blocks until the queue is empty and no delivery is in flight —
// the deterministic barrier tests and shutdown ordering lean on.
func (r *replicator) flush() {
	r.mu.Lock()
	for (len(r.order) > 0 || r.inflight) && !r.closed {
		r.idle.Wait()
	}
	r.mu.Unlock()
}

// close drops whatever is still queued (counted) and stops the worker.
func (r *replicator) close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.wg.Wait()
		return
	}
	r.closed = true
	r.dropped.Add(int64(len(r.order)))
	r.order = nil
	clear(r.pending)
	r.queueG.Set(0)
	r.cond.Broadcast()
	r.idle.Broadcast()
	r.mu.Unlock()
	r.wg.Wait()
}

// enqueueSolve fans one freshly solved response out to the key's
// replicas (its plan's Replicas), the node that served it excepted.
// reqBody aliases a pooled buffer, so the wire entry is assembled into
// fresh memory here, before the asynchronous queue ever sees it.
// Cached responses are skipped: a hit's replicas were written when the
// entry was first solved.
func (f *Fleet) enqueueSolve(key uint64, servedBy string, replicas []string, reqBody, respBody []byte) {
	var m api.SolveResponse
	if api.DecodeSolveResponse(respBody, &m) != nil || m.Cached {
		return
	}
	// One api.CacheEntry object, assembled from the raw request and
	// response bytes (both are complete JSON values on this path).
	entry := make([]byte, 0, len(reqBody)+len(respBody)+len(`{"request":,"response":}`))
	entry = append(entry, `{"request":`...)
	entry = append(entry, reqBody...)
	entry = append(entry, `,"response":`...)
	entry = append(entry, respBody...)
	entry = append(entry, '}')
	for _, name := range replicas {
		if name == servedBy {
			continue
		}
		f.repl.enqueue(name, key, entry)
	}
}

// postEntries delivers a batch of JSON cache entries to one node's
// /v1/cache/entries. status is the HTTP status when the node answered
// (0 on transport failure); err is non-nil on anything but a 200.
func (f *Fleet) postEntries(ctx context.Context, n *Node, payloads [][]byte) (status int, err error) {
	var buf bytes.Buffer
	buf.WriteString(`{"entries":[`)
	for i, p := range payloads {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.Write(p)
	}
	buf.WriteString(`]}`)
	return f.postCacheEntries(ctx, n, "application/json", &buf)
}

func (f *Fleet) postCacheEntries(ctx context.Context, n *Node, contentType string, body io.Reader) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.URL+"/v1/cache/entries", body)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := f.cfg.HTTPClient.Do(req)
	if err != nil {
		return 0, fmt.Errorf("node %s: %w", n.Name, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("node %s: cache entries status %d", n.Name, resp.StatusCode)
	}
	return resp.StatusCode, nil
}

// warm is a readmitting node's warming pass, run on its own goroutine:
// replay the hinted-handoff backlog, then diff-transfer the keys the
// node owns from the surviving replicas' snapshots, then flip
// warming -> healthy. Warming failures are counted and logged but
// never block readmission — a cold node that serves beats a warm node
// that never returns.
func (f *Fleet) warm(n *Node) {
	ctx, cancel := context.WithTimeout(f.ctx, warmTimeout)
	defer cancel()
	f.warmTransfers.Inc()
	t0 := time.Now()
	entries := 0
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	nRep, err := f.replayHints(ctx, n)
	entries += nRep
	note(err)
	nXfer, err := f.snapshotDiff(ctx, n)
	entries += nXfer
	note(err)
	// Replication kept diverting here while the transfer ran; one last
	// drain closes that window (a hint that lands after this races the
	// flip and simply waits for the node's next warming).
	nRep, err = f.replayHints(ctx, n)
	entries += nRep
	note(err)

	f.warmEntries.Add(int64(entries))
	if firstErr != nil {
		f.warmErrors.Inc()
	}

	n.mu.Lock()
	flip := n.state.Load() == nodeWarming
	if flip {
		n.state.Store(nodeHealthy)
		n.oks = 0
	}
	n.mu.Unlock()
	switch {
	case !flip:
		// Re-ejected mid-warm by a probe or forward failure: the
		// transfer is abandoned; the next recovery warms again.
		f.cfg.Logf("fleet: node %s re-ejected during warming, transfer abandoned (%d entries in)", n.Name, entries)
	case firstErr != nil:
		f.readmits.Inc()
		f.updateHealthyGauge(f.view.Load())
		f.cfg.Logf("fleet: node %s readmitted partially warm (%d entries in %s; first error: %v)",
			n.Name, entries, time.Since(t0).Round(time.Millisecond), firstErr)
	default:
		f.readmits.Inc()
		f.updateHealthyGauge(f.view.Load())
		f.cfg.Logf("fleet: node %s readmitted warm (%d entries in %s)",
			n.Name, entries, time.Since(t0).Round(time.Millisecond))
	}
}

// replayHints drains n's hinted-handoff queue into batched entry
// POSTs, looping until the queue stays empty. Undelivered hints go
// back into the store for the next attempt.
func (f *Fleet) replayHints(ctx context.Context, n *Node) (int, error) {
	total := 0
	for {
		keys, payloads := f.hints.drain(n.Name)
		if len(payloads) == 0 {
			return total, nil
		}
		for start := 0; start < len(payloads); start += hintReplayBatch {
			end := min(start+hintReplayBatch, len(payloads))
			if _, err := f.postEntries(ctx, n, payloads[start:end]); err != nil {
				for i := start; i < len(payloads); i++ {
					f.hints.add(n.Name, keys[i], payloads[i])
				}
				return total, err
			}
			total += end - start
			f.hints.replayed.Add(int64(end - start))
		}
	}
}

// snapshotDiff warms n from the healthy fleet: read n's current key
// set, then stream every healthy donor's snapshot, keep the entries
// whose ring owner is n and that n does not already hold, and POST the
// re-framed wire stream back to n. The donor side is the same
// /v1/cache/entries GET a snapshot tool would use; the receiver
// validates structure per entry and inserts via PutIfAbsent.
func (f *Fleet) snapshotDiff(ctx context.Context, n *Node) (int, error) {
	have := map[uint64]struct{}{}
	if err := f.readEntryKeys(ctx, n, have); err != nil {
		return 0, err
	}
	v := f.view.Load()
	total := 0
	var firstErr error
	for _, donor := range v.nodes {
		if donor == n || !donor.Healthy() {
			continue
		}
		sent, err := f.transferFrom(ctx, donor, n, v.ring, have)
		total += sent
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return total, firstErr
}

// readEntryKeys streams n's own snapshot and records which keys it
// already holds, so the diff ships only what is missing.
func (f *Fleet) readEntryKeys(ctx context.Context, n *Node, have map[uint64]struct{}) error {
	resp, err := f.getCacheEntries(ctx, n)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = cache.ReadWire(resp.Body, func(key uint64, _ []byte) bool {
		have[key] = struct{}{}
		return true
	})
	return err
}

// transferFrom ships donor's entries owned by n (and not in have) to
// n, returning how many entries were sent.
func (f *Fleet) transferFrom(ctx context.Context, donor, n *Node, ring *Ring, have map[uint64]struct{}) (int, error) {
	resp, err := f.getCacheEntries(ctx, donor)
	if err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	if err := cache.WriteWireHeader(&buf); err != nil {
		resp.Body.Close()
		return 0, err
	}
	count := 0
	_, readErr := cache.ReadWire(resp.Body, func(key uint64, payload []byte) bool {
		if _, ok := have[key]; ok {
			return true
		}
		if ring.Owner(key) != n.Name {
			return true
		}
		have[key] = struct{}{}
		if cache.WriteWireEntry(&buf, key, payload) != nil {
			return false
		}
		count++
		return buf.Len() < warmTransferMaxBytes
	})
	resp.Body.Close()
	if count == 0 {
		return 0, readErr
	}
	if _, err := f.postCacheEntries(ctx, n, "application/octet-stream", &buf); err != nil {
		return 0, err
	}
	return count, readErr
}

func (f *Fleet) getCacheEntries(ctx context.Context, n *Node) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.URL+"/v1/cache/entries", nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.cfg.HTTPClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("node %s: %w", n.Name, err)
	}
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
		resp.Body.Close()
		return nil, fmt.Errorf("node %s: cache entries status %d", n.Name, resp.StatusCode)
	}
	return resp, nil
}
