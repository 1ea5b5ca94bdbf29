package client

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	"calib"
	"calib/api"
	"calib/internal/canon"
	"calib/internal/fleet"
	"calib/internal/obs"
)

// FleetConfig parameterizes NewFleet.
type FleetConfig struct {
	// Members is the backend roster. Names feed the consistent-hash
	// ring and must match the ised fleet's roster (same names + same
	// Replicas = same ring as an isedfleet router, so client-side
	// routing preserves the routers' cache affinity).
	Members []fleet.Member
	// Replicas is the ring's virtual-node count per member (0 =
	// fleet.DefaultReplicas).
	Replicas int
	// HTTPClient is the shared transport (nil = http.DefaultClient).
	HTTPClient *http.Client
	// Passes bounds full failover sweeps over the ring sequence: one
	// call tries every node once per pass, sleeping between passes
	// (0 = 2; 1 = a single sweep, no backoff).
	Passes int
	// BaseDelay / MaxDelay shape the between-pass backoff exactly like
	// Client's per-attempt backoff (0 = 100ms / 5s); a node's
	// Retry-After hint floors the sleep.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Breakers is the per-node circuit group (nil = a new group on
	// Metrics). One node's failures open only that node's breaker;
	// the failover sweep skips open nodes without touching the network.
	Breakers *BreakerGroup
	// Metrics receives the per-endpoint breaker_* series (nil = none).
	Metrics *obs.Registry
	// Replication enables client-side replica write-behind: after an
	// uncached Solve answers, the response is re-posted asynchronously
	// to the key's other ring replicas' /v1/cache/entries, mirroring an
	// isedfleet router's replication factor — a fleet driven directly
	// by this client keeps the same key durability. 0 or 1 = off.
	// Call Close to drain in-flight write-behinds (tests, shutdown).
	Replication int
}

// Fleet is the fleet-aware client: it speaks to the ised backends
// directly, routing every call by the same fleet.Plan an isedfleet
// router computes, so every Solve lands on the node whose cache
// already holds equivalent instances. When the owner refuses (429/503)
// or its circuit is open, the call fails over along the plan's
// candidates — the exact nodes that would inherit the key if the owner
// left — under one request ID, so the hops of one logical call line up
// in every backend's decision log.
//
// The zero value is not usable; create with NewFleet. Safe for
// concurrent use.
type Fleet struct {
	cfg    FleetConfig
	ring   *fleet.Ring
	byName map[string]*Client

	// replWG tracks in-flight write-behind posts; replSem bounds their
	// concurrency so a solve burst cannot spawn an unbounded goroutine
	// herd (write-behind past the bound blocks briefly, never drops —
	// the client, unlike the router, has no queue to shed from).
	replWG  sync.WaitGroup
	replSem chan struct{}
}

// NewFleet builds a fleet client over the given members.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if len(cfg.Members) == 0 {
		return nil, errors.New("client: fleet needs at least one member")
	}
	members, err := fleet.CleanMembers(cfg.Members)
	if err != nil {
		return nil, err
	}
	if cfg.Breakers == nil {
		cfg.Breakers = NewBreakerGroup(cfg.Metrics)
	}
	f := &Fleet{cfg: cfg, byName: make(map[string]*Client, len(members))}
	if cfg.Replication >= 2 {
		f.replSem = make(chan struct{}, 4)
	}
	names := make([]string, 0, len(members))
	for _, m := range members {
		names = append(names, m.Name)
		f.byName[m.Name] = &Client{
			BaseURL:    m.URL,
			HTTPClient: cfg.HTTPClient,
			// One attempt per node per sweep: the sweep is the retry.
			// Per-node backoff here would stall the failover that is the
			// whole point of having replicas.
			MaxRetries: -1,
			Breakers:   cfg.Breakers,
		}
	}
	f.ring = fleet.NewRing(names, cfg.Replicas)
	return f, nil
}

// canonScratch pools canonicalization arenas across calls (and across
// Fleet instances; the arena is instance-shaped, not fleet-shaped).
var canonScratch = sync.Pool{New: func() any { return new(canon.Scratch) }}

func canonKey(inst *calib.Instance) uint64 {
	cs := canonScratch.Get().(*canon.Scratch)
	key := cs.Canonicalize(inst).Key
	canonScratch.Put(cs)
	return key
}

// Owner returns the node name owning inst's canonical key — where the
// fleet's cached schedule for it lives.
func (f *Fleet) Owner(inst *calib.Instance) string { return f.ring.Owner(canonKey(inst)) }

// Node returns the per-node client for a member name (nil if unknown);
// exposed for health checks and tests.
func (f *Fleet) Node(name string) *Client { return f.byName[name] }

// Solve solves one instance, routed by its key's fleet.Plan: to the
// affinity owner, failing over in ring-inheritance order.
func (f *Fleet) Solve(ctx context.Context, req *api.SolveRequest) (*api.SolveResponse, error) {
	if req == nil || req.Instance == nil {
		return nil, errors.New("client: missing instance")
	}
	if err := req.Instance.Validate(); err != nil {
		return nil, err
	}
	p := fleet.NewPlan(f.ring, canonKey(req.Instance), f.cfg.Replication, nil)
	var out api.SolveResponse
	served, err := f.failover(ctx, p.Candidates, mintRequestID(), "/v1/solve", req, &out)
	if err != nil {
		return nil, err
	}
	f.replicate(p.Replicas, served, req, &out)
	return &out, nil
}

// replicate write-behinds one fresh solve to the key's replicas, the
// node that served it excepted.
// The body is marshaled synchronously — req and out belong to the
// caller, who may mutate them the moment Solve returns — and posted
// asynchronously; failures are ignored (a lost replica write costs a
// future re-solve, never this call). Batch rows are not replicated:
// batch is a bulk-load path and replicating it would double its
// traffic exactly when the fleet is busiest.
func (f *Fleet) replicate(replicas []string, served string, req *api.SolveRequest, out *api.SolveResponse) {
	if f.cfg.Replication < 2 || out.Cached {
		return
	}
	raw, err := json.Marshal(&api.CacheEntriesRequest{
		Entries: []api.CacheEntry{{Request: req, Response: out}},
	})
	if err != nil {
		return
	}
	for _, name := range replicas {
		if name == served {
			continue
		}
		c := f.byName[name]
		f.replWG.Add(1)
		f.replSem <- struct{}{}
		go func() {
			defer f.replWG.Done()
			defer func() { <-f.replSem }()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			var resp api.CacheEntriesResponse
			_ = c.postID(ctx, "/v1/cache/entries", mintRequestID(), json.RawMessage(raw), &resp)
		}()
	}
}

// Close drains in-flight replica write-behinds. The Fleet stays usable
// afterwards — Close is a barrier, not a shutdown — so callers can
// also use it between a load phase and an assertion phase.
func (f *Fleet) Close() { f.replWG.Wait() }

// Batch splits the rows by affinity owner with fleet.SplitBatch — the
// split an isedfleet router makes, so each sub-batch lands where its
// cache entries live — solves the sub-batches concurrently with
// per-group failover, and reassembles results in request order. Rows
// that cannot route (nil or invalid instances) fail locally; a
// sub-batch whose every candidate node failed reports that error on
// each of its rows.
func (f *Fleet) Batch(ctx context.Context, req *api.BatchRequest) (*api.BatchResponse, error) {
	if req == nil || len(req.Instances) == 0 {
		return nil, errors.New("client: empty batch")
	}
	id := mintRequestID()
	cs := canonScratch.Get().(*canon.Scratch)
	split := fleet.SplitBatch(f.ring, req, cs, nil)
	canonScratch.Put(cs)
	results := split.Run(id, func(g *fleet.Group, gid string) ([]*api.BatchResult, error) {
		var out api.BatchResponse
		_, err := f.failover(ctx, g.Plan.Candidates, gid, "/v1/batch", &g.Sub, &out)
		return out.Results, err
	})
	return &api.BatchResponse{Results: results, RequestID: id}, nil
}

func (f *Fleet) passes() int {
	if f.cfg.Passes <= 0 {
		return 2
	}
	return f.cfg.Passes
}

func (f *Fleet) baseDelay() time.Duration {
	if f.cfg.BaseDelay <= 0 {
		return 100 * time.Millisecond
	}
	return f.cfg.BaseDelay
}

func (f *Fleet) maxDelay() time.Duration {
	if f.cfg.MaxDelay <= 0 {
		return 5 * time.Second
	}
	return f.cfg.MaxDelay
}

// failover walks a plan's candidates — owner first, then the nodes
// that would inherit the key — giving each node one attempt per pass
// under the shared request ID. Open breakers are skipped locally;
// refusals (429/503) and transport errors move to the next candidate;
// a conclusive 4xx/500 returns immediately (it would fail the same on
// every node). Between passes the call backs off with full jitter,
// floored by the largest Retry-After any node asked for. Returns the
// name of the node that answered, for write-behind.
func (f *Fleet) failover(ctx context.Context, candidates []string, id, path string, body, out any) (string, error) {
	var lastErr error
	for pass := 0; ; pass++ {
		var hint time.Duration
		for _, name := range candidates {
			err := f.byName[name].postID(ctx, path, id, body, out)
			if err == nil {
				return name, nil
			}
			lastErr = err
			if errors.Is(err, ErrBreakerOpen) {
				continue
			}
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return "", err
			}
			retryable, h := retryInfo(err)
			if !retryable {
				return "", err
			}
			if h > hint {
				hint = h
			}
		}
		if pass+1 >= f.passes() {
			return "", lastErr
		}
		delay := backoffDelay(f.baseDelay(), f.maxDelay(), hint, pass, rand.Int64N)
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return "", ctx.Err()
		}
	}
}
