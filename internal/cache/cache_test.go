package cache

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"calib/internal/obs"
)

func TestGetPutLRU(t *testing.T) {
	// Capacity 16 = one entry per shard; keys in the same shard evict
	// each other in LRU order.
	c := New[int](16, nil)
	const shardStride = 16 // keys k and k+16 land in the same shard
	c.Put(1, 100)
	if v, ok := c.Get(1); !ok || v != 100 {
		t.Fatalf("Get(1) = %d,%v want 100,true", v, ok)
	}
	c.Put(1+shardStride, 200) // same shard: evicts key 1
	if _, ok := c.Get(1); ok {
		t.Fatal("key 1 survived eviction")
	}
	if v, ok := c.Get(1 + shardStride); !ok || v != 200 {
		t.Fatalf("Get(17) = %d,%v want 200,true", v, ok)
	}
}

func TestLRUOrderIsRecency(t *testing.T) {
	c := New[int](32, nil) // two entries per shard
	c.Put(0, 1)
	c.Put(16, 2)
	c.Get(0)     // 0 is now most recent
	c.Put(32, 3) // evicts 16, not 0
	if _, ok := c.Get(16); ok {
		t.Error("least recently used entry survived")
	}
	if _, ok := c.Get(0); !ok {
		t.Error("recently used entry evicted")
	}
}

func TestDoCachesSuccessNotError(t *testing.T) {
	c := New[string](64, nil)
	calls := 0
	boom := errors.New("boom")
	_, _, err := c.Do(7, func() (string, error) { calls++; return "", boom })
	if err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	v, hit, err := c.Do(7, func() (string, error) { calls++; return "ok", nil })
	if err != nil || hit || v != "ok" {
		t.Fatalf("second Do = %q,%v,%v", v, hit, err)
	}
	v, hit, err = c.Do(7, func() (string, error) { calls++; return "never", nil })
	if err != nil || !hit || v != "ok" {
		t.Fatalf("third Do = %q,%v,%v want cached ok", v, hit, err)
	}
	if calls != 2 {
		t.Fatalf("solve ran %d times, want 2", calls)
	}
}

func TestDoSingleflight(t *testing.T) {
	reg := obs.NewRegistry()
	c := New[int](64, reg)
	const waiters = 32
	var calls atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.Do(42, func() (int, error) {
				calls.Add(1)
				// Hold the flight open until every other caller has
				// joined it (visible on the shared counter), so the
				// test is deterministic even on GOMAXPROCS=1: a caller
				// can't sneak in after completion and take a plain
				// cache hit instead of a join.
				for reg.Counter(obs.MCacheShared).Value() < waiters-1 {
					runtime.Gosched()
				}
				return 99, nil
			})
			if err != nil || v != 99 {
				t.Errorf("Do = %d,%v", v, err)
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("solve ran %d times under singleflight, want 1", n)
	}
	if shared := reg.Counter(obs.MCacheShared).Value(); shared != waiters-1 {
		t.Errorf("singleflight joins = %d, want %d", shared, waiters-1)
	}
}

func TestZeroCapacityStillDedups(t *testing.T) {
	c := New[int](0, nil)
	c.Put(1, 5)
	if _, ok := c.Get(1); ok {
		t.Fatal("zero-capacity cache stored an entry")
	}
	if _, hit, _ := c.Do(1, func() (int, error) { return 5, nil }); hit {
		t.Fatal("zero-capacity cache reported a hit")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0", c.Len())
	}
}

func TestDoPanicReleasesWaiters(t *testing.T) {
	c := New[int](16, nil)
	entered := make(chan struct{})
	waited := make(chan error, 1)
	go func() {
		defer func() { recover() }()
		c.Do(5, func() (int, error) {
			close(entered)
			panic("solver bug")
		})
	}()
	<-entered
	go func() {
		_, _, err := c.Do(5, func() (int, error) { return 1, nil })
		waited <- err
	}()
	// The waiter either joined the panicking flight (gets errPanicked)
	// or started fresh after cleanup (gets nil); both terminate.
	if err := <-waited; err != nil && err.Error() != (&panicError{}).Error() {
		t.Fatalf("waiter error = %v", err)
	}
	// The key must not be poisoned: a later Do solves normally.
	v, _, err := c.Do(5, func() (int, error) { return 7, nil })
	if err != nil {
		t.Fatalf("post-panic Do: %v", err)
	}
	if v != 7 && v != 1 {
		t.Fatalf("post-panic Do = %d", v)
	}
}

func TestMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	c := New[int](16, reg)
	c.Put(1, 1)
	c.Get(1) // hit
	c.Get(2) // a miss that solves nothing: not counted
	// The miss that solves; storing its answer evicts 1.
	c.Do(1+16, func() (int, error) { return 2, nil })
	if got := reg.Counter(obs.MCacheHits).Value(); got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	if got := reg.Counter(obs.MCacheMisses).Value(); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	if got := reg.Counter(obs.MCacheEvictions).Value(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if got := reg.Gauge(obs.MCacheEntries).Value(); got != 1 {
		t.Errorf("entries gauge = %v, want 1", got)
	}
	if got := c.Len(); got != 1 {
		t.Errorf("Len = %d, want 1", got)
	}
}

// TestConcurrentMixed hammers all operations from many goroutines;
// its value is running under -race.
func TestConcurrentMixed(t *testing.T) {
	c := New[int](64, obs.NewRegistry())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := uint64(i % 97)
				switch i % 3 {
				case 0:
					c.Do(key, func() (int, error) { return i, nil })
				case 1:
					c.Get(key)
				default:
					c.Put(key, i)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64+numShards {
		t.Errorf("cache overflowed: %d entries", c.Len())
	}
}
