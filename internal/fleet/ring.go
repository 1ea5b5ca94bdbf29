// Package fleet distributes the ised solver service across N
// backends: a consistent-hash ring keyed by the canonical 64-bit
// instance key (internal/canon), the one routing rule built on it
// (Plan: the owner first, then its ring successors in inheritance
// order), static or file-watched membership with per-node health
// probing, and the HTTP router (cmd/isedfleet) that fronts the fleet.
//
// The design goal is the paper's economy lifted to the cluster: never
// pay for a solve the fleet has already paid for. Equivalent instances
// canonicalize to one key, the ring maps each key to one owner node,
// so the owner's cache absorbs every re-ask — and the
// cache-hit-bypasses-admission invariant survives distribution because
// a hit on the owner never consumes an admission slot anywhere.
// Spillover (the owner shedding or unhealthy) trades that affinity for
// availability and is therefore counted, reason-labeled, in
// fleet_spillover_total.
package fleet

import (
	"fmt"
	"sort"
)

// Ring is an immutable consistent-hash ring over named nodes. Each
// node contributes `replicas` virtual points; a key is owned by the
// first point clockwise from the key's (bit-mixed) hash position.
// Build with NewRing; membership changes build a new Ring and swap it
// atomically (Fleet.rebuild), so readers never see a half-built ring.
//
// Consistency property (pinned by TestRingRemovalOnlyMovesOwnedKeys):
// removing one node remaps only the keys that node owned; every other
// key keeps its owner. That is what preserves the surviving nodes'
// cache affinity when a backend dies.
type Ring struct {
	points []ringPoint // sorted by hash
	names  []string    // distinct node names, sorted (for introspection)
}

type ringPoint struct {
	hash uint64
	node string
}

// DefaultReplicas is the virtual-node count per member when the
// configuration does not say otherwise. 128 keeps the ring under a
// few thousand points for typical fleets while holding per-node load
// within ~10% of uniform; raise it (e.g. cmd/isedfleet -replicas) when
// tighter balance matters more than rebuild cost.
const DefaultReplicas = 128

// NewRing builds a ring with `replicas` virtual points per node
// (<= 0 uses DefaultReplicas). Node names must be non-empty and
// distinct; the caller (roster validation) guarantees that.
func NewRing(nodes []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	r := &Ring{
		points: make([]ringPoint, 0, len(nodes)*replicas),
		names:  append([]string(nil), nodes...),
	}
	sort.Strings(r.names)
	var buf [20]byte
	for _, n := range nodes {
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, ringPoint{hash: vnodeHash(n, i, buf[:0]), node: n})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		p, q := r.points[a], r.points[b]
		if p.hash != q.hash {
			return p.hash < q.hash
		}
		// Tie-break on node name so the layout is a pure function of the
		// membership, never of insertion order.
		return p.node < q.node
	})
	return r
}

// vnodeHash positions one virtual point: FNV-1a over "name#i",
// finalized through mix64. The finalizer matters: raw FNV of short,
// similar strings leaves the high bits — the ones binary search on the
// ring orders by — poorly avalanched, which skews arc lengths by tens
// of percent; mixing restores uniform positions (TestRingBalance).
// The index is appended as decimal digits into buf to keep the hash
// loop allocation-free during rebuilds.
func vnodeHash(name string, i int, buf []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for j := 0; j < len(name); j++ {
		h = (h ^ uint64(name[j])) * prime64
	}
	h = (h ^ '#') * prime64
	buf = fmt.Appendf(buf, "%d", i)
	for _, c := range buf {
		h = (h ^ uint64(c)) * prime64
	}
	return mix64(h)
}

// mix64 is splitmix64's finalizer. Canonical keys are FNV-1a content
// hashes whose low bits carry most structure; mixing before the ring
// lookup decorrelates the ring position from the key's byte patterns.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Len reports the number of distinct nodes on the ring.
func (r *Ring) Len() int { return len(r.names) }

// Points reports the number of virtual points (nodes × replicas).
func (r *Ring) Points() int { return len(r.points) }

// Nodes returns the distinct node names, sorted. The slice is shared;
// callers must not mutate it.
func (r *Ring) Nodes() []string { return r.names }

// Owner returns the node owning key: the affinity target routing
// tries first. Empty string on an empty ring.
func (r *Ring) Owner(key uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.start(key)].node
}

// start locates the first point clockwise from key's mixed position.
func (r *Ring) start(key uint64) int {
	h := mix64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Sequence returns every node once, in ring order starting at key's
// owner: the replica preference order for failover (owner first, then
// the nodes that would inherit the key if the ones before them
// vanished). The result is freshly allocated.
func (r *Ring) Sequence(key uint64) []string {
	if len(r.points) == 0 {
		return nil
	}
	n := len(r.names)
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for i, taken := r.start(key), 0; taken < len(r.points); i, taken = (i+1)%len(r.points), taken+1 {
		p := r.points[i].node
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		out = append(out, p)
		if len(out) == n {
			break
		}
	}
	return out
}
