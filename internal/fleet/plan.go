package fleet

import (
	"fmt"
	"sync"

	"calib/api"
	"calib/internal/canon"
)

// Plan is the whole routing decision for one canonical key, read off
// one ring snapshot: where the key lives, the order to try nodes in,
// and which nodes hold its replicas. The isedfleet router and the
// fleet-aware client (calib/client) both route by it, so a key lands
// on the same nodes whichever side sends it.
//
// The slices may share a backing array; callers must not mutate them.
type Plan struct {
	// Owner is the key's affinity owner: the node whose cache holds
	// its schedule ("" on an empty ring).
	Owner string
	// Candidates is the try order: the ring sequence — owner first,
	// then the nodes that would inherit the key if the ones before
	// them vanished — filtered to the nodes the health predicate
	// accepts. When it accepts none, Candidates is the whole sequence:
	// probes lag recoveries, and trying beats refusing.
	Candidates []string
	// Replicas is the first `replication` names of the ring sequence,
	// owner included and health ignored: the nodes that hold the key's
	// cache entry (the router parks a write aimed at a down replica as
	// a hint).
	Replicas []string
}

// NewPlan walks ring once for key. healthy reports whether a node is
// routable; nil accepts every node.
func NewPlan(ring *Ring, key uint64, replication int, healthy func(name string) bool) Plan {
	seq := ring.Sequence(key)
	if len(seq) == 0 {
		return Plan{}
	}
	k := min(max(replication, 0), len(seq))
	p := Plan{Owner: seq[0], Candidates: seq, Replicas: seq[:k:k]}
	if healthy == nil {
		return p
	}
	live := make([]string, 0, len(seq))
	for _, name := range seq {
		if healthy(name) {
			live = append(live, name)
		}
	}
	if len(live) > 0 {
		p.Candidates = live
	}
	return p
}

// Split is a /v1/batch request divided by affinity owner, so every
// sub-batch lands where its rows' cache entries live. Build with
// SplitBatch; Run sends the groups and reassembles the rows.
type Split struct {
	// Results aligns with the request's rows. SplitBatch fills in the
	// rows that cannot route; Run fills in the rest.
	Results []*api.BatchResult
	// Groups holds one sub-batch per owner, in order of first row.
	Groups []*Group
}

// Group is one owner's sub-batch.
type Group struct {
	// Plan routes the sub-batch: the plan of its first row's key.
	Plan Plan
	// Rows are the rows' indices in the request, in request order.
	Rows []int
	// Sub is the sub-batch to send, with the request's options.
	Sub api.BatchRequest
}

// SplitBatch groups req's valid rows by owner on ring, using cs to
// canonicalize them, and gives nil and invalid rows their local errors
// with the same wording a backend would use. Group plans read health
// through healthy (nil accepts every node) and carry no replicas:
// batch rows are not replicated.
func SplitBatch(ring *Ring, req *api.BatchRequest, cs *canon.Scratch, healthy func(name string) bool) *Split {
	s := &Split{Results: make([]*api.BatchResult, len(req.Instances))}
	byOwner := map[string]*Group{}
	for i, inst := range req.Instances {
		if inst == nil {
			s.Results[i] = &api.BatchResult{Error: "missing instance"}
			continue
		}
		if err := inst.Validate(); err != nil {
			s.Results[i] = &api.BatchResult{Error: err.Error()}
			continue
		}
		key := cs.Canonicalize(inst).Key
		owner := ring.Owner(key)
		g := byOwner[owner]
		if g == nil {
			g = &Group{Plan: NewPlan(ring, key, 0, healthy), Sub: api.BatchRequest{SolveOptions: req.SolveOptions}}
			byOwner[owner] = g
			s.Groups = append(s.Groups, g)
		}
		g.Rows = append(g.Rows, i)
		g.Sub.Instances = append(g.Sub.Instances, inst)
	}
	return s
}

// Run sends every group concurrently, group i under the request ID
// "<id>.g<i>", and scatters each outcome to its rows' request
// positions: the backend's row result, the group's error when send
// failed, or an error for a row the backend's answer left out. It
// returns Results.
func (s *Split) Run(id string, send func(g *Group, id string) ([]*api.BatchResult, error)) []*api.BatchResult {
	var wg sync.WaitGroup
	for gi, g := range s.Groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results, err := send(g, fmt.Sprintf("%s.g%d", id, gi))
			// Groups own disjoint rows, so no two goroutines write one
			// element of Results.
			for ri, row := range g.Rows {
				switch {
				case err != nil:
					s.Results[row] = &api.BatchResult{Error: err.Error()}
				case ri < len(results) && results[ri] != nil:
					s.Results[row] = results[ri]
				default:
					s.Results[row] = &api.BatchResult{Error: "backend returned no result for row"}
				}
			}
		}()
	}
	wg.Wait()
	return s.Results
}
