package fleet

import (
	"fmt"
	"math/rand"
	"testing"
)

func ringNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("node-%02d", i)
	}
	return names
}

// TestRingDeterministic: the ring layout is a pure function of the
// membership set — insertion order must not matter, or two routers
// fed the same roster in different orders would disagree on owners.
func TestRingDeterministic(t *testing.T) {
	names := ringNames(8)
	shuffled := append([]string(nil), names...)
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })

	r1 := NewRing(names, 64)
	r2 := NewRing(shuffled, 64)
	for i := 0; i < 10000; i++ {
		key := rng.Uint64()
		if o1, o2 := r1.Owner(key), r2.Owner(key); o1 != o2 {
			t.Fatalf("key %x: owner %s vs %s under shuffled membership", key, o1, o2)
		}
	}
}

// TestRingSequence: the failover order starts at the owner and visits
// every node exactly once.
func TestRingSequence(t *testing.T) {
	r := NewRing(ringNames(6), 64)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		key := rng.Uint64()
		seq := r.Sequence(key)
		if len(seq) != 6 {
			t.Fatalf("sequence length %d, want 6", len(seq))
		}
		if seq[0] != r.Owner(key) {
			t.Fatalf("sequence head %s != owner %s", seq[0], r.Owner(key))
		}
		seen := map[string]bool{}
		for _, n := range seq {
			if seen[n] {
				t.Fatalf("duplicate node %s in sequence", n)
			}
			seen[n] = true
		}
	}
}

// TestRingRemovalOnlyMovesOwnedKeys pins the consistency property the
// whole design leans on: when a node leaves, only the keys it owned
// are remapped. Every other key keeps its owner — and therefore its
// backend cache — which is what makes losing one backend lose only
// that backend's cache warmth.
func TestRingRemovalOnlyMovesOwnedKeys(t *testing.T) {
	names := ringNames(8)
	const removed = "node-03"
	before := NewRing(names, 128)
	survivors := make([]string, 0, len(names)-1)
	for _, n := range names {
		if n != removed {
			survivors = append(survivors, n)
		}
	}
	after := NewRing(survivors, 128)

	rng := rand.New(rand.NewSource(3))
	moved, owned := 0, 0
	for i := 0; i < 20000; i++ {
		key := rng.Uint64()
		was, is := before.Owner(key), after.Owner(key)
		if was == removed {
			owned++
			if is == removed {
				t.Fatalf("key %x still owned by removed node", key)
			}
			continue
		}
		if was != is {
			moved++
			t.Errorf("key %x moved %s -> %s though %s did not own it", key, was, is, removed)
			if moved > 5 {
				t.Fatalf("giving up after %d spurious moves", moved)
			}
		}
	}
	if owned == 0 {
		t.Fatal("sample never hit the removed node; test is vacuous")
	}
}

// TestRingSequenceIsInheritanceOrder: the replica sequence must be
// exactly the nodes that would inherit the key as nodes before them
// vanish — that is what makes client-side failover land where the
// next ring rebuild will route anyway.
func TestRingSequenceIsInheritanceOrder(t *testing.T) {
	names := ringNames(5)
	r := NewRing(names, 128)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		key := rng.Uint64()
		seq := r.Sequence(key)
		remaining := append([]string(nil), names...)
		for hop := 0; hop < len(seq)-1; hop++ {
			// Remove everything the sequence visited so far; the shrunken
			// ring's owner must be the next hop.
			keep := remaining[:0]
			for _, n := range remaining {
				if n != seq[hop] {
					keep = append(keep, n)
				}
			}
			remaining = keep
			sub := NewRing(append([]string(nil), remaining...), 128)
			if got := sub.Owner(key); got != seq[hop+1] {
				t.Fatalf("key %x after removing %v: owner %s, sequence says %s",
					key, seq[:hop+1], got, seq[hop+1])
			}
		}
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	empty := NewRing(nil, 0)
	if o := empty.Owner(42); o != "" {
		t.Fatalf("empty ring owner = %q", o)
	}
	if s := empty.Sequence(42); s != nil {
		t.Fatalf("empty ring sequence = %v", s)
	}
	one := NewRing([]string{"solo"}, 0)
	if o := one.Owner(42); o != "solo" {
		t.Fatalf("single ring owner = %q", o)
	}
	if one.Points() != DefaultReplicas {
		t.Fatalf("points = %d, want %d", one.Points(), DefaultReplicas)
	}
}

// TestRingBalance: with enough virtual nodes, random keys spread
// within a modest factor of uniform. This is the ring-arc property;
// the canonical-key dispersion over real workloads is pinned
// separately in dispersion_test.go.
func TestRingBalance(t *testing.T) {
	names := ringNames(16)
	r := NewRing(names, 256)
	counts := map[string]int{}
	rng := rand.New(rand.NewSource(5))
	const total = 64000
	for i := 0; i < total; i++ {
		counts[r.Owner(rng.Uint64())]++
	}
	want := total / len(names)
	for _, n := range names {
		got := counts[n]
		if got < want*70/100 || got > want*130/100 {
			t.Errorf("node %s owns %d keys, want %d +-30%%", n, got, want)
		}
	}
}
