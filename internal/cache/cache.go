// Package cache is a sharded LRU of solved results keyed by the
// 64-bit canonical instance hash (internal/canon), with singleflight
// deduplication: when several callers ask for the same key at once,
// one of them solves and the rest wait for that solve instead of
// duplicating it. The serving layer (internal/server) keeps canonical
// schedules in it so identical re-solves never reach a solver engine.
//
// The cache is safe for concurrent use. Locking is per shard — the
// key's low bits pick one of 16 shards, each with its own mutex, LRU
// list, and in-flight table — so concurrent requests for different
// keys rarely contend. Telemetry goes to the cache_* series in
// internal/obs (hits, misses, evictions, live entries, singleflight
// joins); a nil registry disables it at the usual zero cost.
package cache

import (
	"container/list"

	"sync"

	"calib/internal/fault"
	"calib/internal/obs"
)

const numShards = 16

// Aliases for the injection points the snapshot layer consults, so
// snapshot.go reads without the package qualifier.
const (
	faultCacheCorrupt = fault.CacheCorrupt
	faultSnapTruncate = fault.SnapTruncate
)

// Cache is a sharded LRU with singleflight, generic over the cached
// value type. Create with New.
type Cache[V any] struct {
	capPerShard int
	shards      [numShards]shard[V]
	fault       *fault.Injector

	hits, misses, evictions, shared *obs.Counter
	snapshots, restored             *obs.Counter
	restoreCorrupt                  *obs.Counter
	entries, snapEntries            *obs.Gauge
}

type shard[V any] struct {
	mu      sync.Mutex
	items   map[uint64]*list.Element
	lru     *list.List // front = most recently used; values are *entry[V]
	flights map[uint64]*flight[V]
}

type entry[V any] struct {
	key uint64
	val V
}

// flight is one in-progress solve; waiters block on done.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns a cache holding up to capacity entries (split evenly
// across shards, so the effective capacity rounds up to a multiple of
// 16). capacity <= 0 disables storage — lookups always miss — but
// singleflight deduplication still collapses concurrent identical
// solves. met receives the cache_* series; nil disables telemetry.
func New[V any](capacity int, met *obs.Registry) *Cache[V] {
	per := 0
	if capacity > 0 {
		per = (capacity + numShards - 1) / numShards
	}
	c := &Cache[V]{
		capPerShard:    per,
		hits:           met.Counter(obs.MCacheHits),
		misses:         met.Counter(obs.MCacheMisses),
		evictions:      met.Counter(obs.MCacheEvictions),
		shared:         met.Counter(obs.MCacheShared),
		snapshots:      met.Counter(obs.MCacheSnapshots),
		restored:       met.Counter(obs.MCacheRestored),
		restoreCorrupt: met.Counter(obs.MCacheRestoreCorrupt),
		entries:        met.Gauge(obs.MCacheEntries),
		snapEntries:    met.Gauge(obs.MCacheSnapshotDirty),
	}
	for i := range c.shards {
		c.shards[i].items = map[uint64]*list.Element{}
		c.shards[i].lru = list.New()
		c.shards[i].flights = map[uint64]*flight[V]{}
	}
	return c
}

func (c *Cache[V]) shard(key uint64) *shard[V] { return &c.shards[key%numShards] }

// SetFault installs the deterministic fault injector consulted by the
// snapshot layer (cache_corrupt on restore reads, snapshot_truncate
// on saves). Call before any snapshot activity; nil (the default)
// disables injection at zero cost.
func (c *Cache[V]) SetFault(f *fault.Injector) { c.fault = f }

// Get returns the cached value for key, marking it most recently used.
// A hit counts in cache_hits_total. A miss counts nothing: the miss
// counter counts solves, and a caller that goes on to solve counts it
// through Do.
func (c *Cache[V]) Get(key uint64) (V, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.lru.MoveToFront(el)
		c.hits.Inc()
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// Peek reports whether key is cached without touching LRU order or the
// hit/miss counters. It exists for observers — the workload simulator
// predicts the serving layer's cache verdict with it — and must never
// be used on the request path, where Get's accounting is the point.
func (c *Cache[V]) Peek(key uint64) bool {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.items[key]
	return ok
}

// Put stores val under key (most recently used), evicting the least
// recently used entry of the shard when over capacity. A no-op when
// storage is disabled.
func (c *Cache[V]) Put(key uint64, val V) {
	if c.capPerShard <= 0 {
		return
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	c.put(s, key, val)
}

// put inserts under s.mu.
func (c *Cache[V]) put(s *shard[V], key uint64, val V) {
	if el, ok := s.items[key]; ok {
		el.Value.(*entry[V]).val = val
		s.lru.MoveToFront(el)
		return
	}
	s.items[key] = s.lru.PushFront(&entry[V]{key: key, val: val})
	c.entries.Add(1)
	c.evictOver(s)
}

// evictOver drops least-recently-used entries until the shard is back
// under capacity. Caller holds s.mu.
func (c *Cache[V]) evictOver(s *shard[V]) {
	for s.lru.Len() > c.capPerShard {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.items, oldest.Value.(*entry[V]).key)
		c.evictions.Inc()
		c.entries.Add(-1)
	}
}

// PutIfAbsent stores val under key only when the key is not already
// cached, reporting whether it stored. Unlike Put it never replaces an
// existing entry and never touches that entry's LRU recency or the
// hit/miss counters: the fleet's replica write-behind lands here, and
// a replicated payload racing a fresher local solve must lose, while a
// remote write must not make an entry look hotter than the traffic
// this node actually served. A stored entry still enters at the front
// (it is the newest thing this shard learned) and still evicts over
// capacity. A no-op returning false when storage is disabled.
func (c *Cache[V]) PutIfAbsent(key uint64, val V) bool {
	if c.capPerShard <= 0 {
		return false
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.items[key]; ok {
		return false
	}
	s.items[key] = s.lru.PushFront(&entry[V]{key: key, val: val})
	c.entries.Add(1)
	c.evictOver(s)
	return true
}

// Role says how a Do call obtained its value: from the LRU (RoleHit),
// by running the solve itself (RoleLeader), or by waiting on another
// caller's in-flight solve (RoleFollower). The serving layer's flight
// recorder stamps it into each request's decision record.
type Role uint8

const (
	RoleHit Role = iota
	RoleLeader
	RoleFollower
)

// String returns the decision-log spelling of the role.
func (r Role) String() string {
	switch r {
	case RoleHit:
		return "hit"
	case RoleLeader:
		return "leader"
	case RoleFollower:
		return "follower"
	}
	return "unknown"
}

// Do returns the value for key, solving at most once across all
// concurrent callers: a cached value is returned immediately
// (hit=true); otherwise the first caller runs solve and every
// concurrent caller for the same key waits for that one result
// (hit=false for all of them). Successful results are stored;
// errors are returned to every waiter and nothing is cached, so the
// next request retries.
func (c *Cache[V]) Do(key uint64, solve func() (V, error)) (val V, hit bool, err error) {
	val, role, err := c.DoRole(key, solve)
	return val, role == RoleHit, err
}

// DoRole is Do, additionally reporting the caller's singleflight role.
func (c *Cache[V]) DoRole(key uint64, solve func() (V, error)) (val V, role Role, err error) {
	s := c.shard(key)
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		s.lru.MoveToFront(el)
		c.hits.Inc()
		// Copy under the lock: put overwrites the entry's value in
		// place when a Put or a finishing leader writes the same key.
		val = el.Value.(*entry[V]).val
		s.mu.Unlock()
		return val, RoleHit, nil
	}
	if f, ok := s.flights[key]; ok {
		c.shared.Inc()
		s.mu.Unlock()
		<-f.done
		return f.val, RoleFollower, f.err
	}
	c.misses.Inc()
	f := &flight[V]{done: make(chan struct{})}
	s.flights[key] = f
	s.mu.Unlock()

	// Resolve the flight even if solve panics: waiters must not hang,
	// and the panic keeps propagating to the caller's recovery layer.
	completed := false
	defer func() {
		if !completed {
			f.err = errPanicked
		}
		s.mu.Lock()
		if f.err == nil {
			c.put(s, key, f.val)
		}
		delete(s.flights, key)
		s.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = solve()
	completed = true
	return f.val, RoleLeader, f.err
}

// errPanicked is what waiters see when the leading solve panicked.
var errPanicked = &panicError{}

type panicError struct{}

func (*panicError) Error() string { return "cache: in-flight solve panicked" }

// Len returns the number of live entries across all shards.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}
