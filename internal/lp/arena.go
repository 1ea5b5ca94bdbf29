package lp

import (
	"math/bits"
	"runtime"
	"sync"
	"time"
)

// arena is the memory of one tableau: its cells followed by the phase
// cost vector (f), its nonzero-index words (u), and its basis, slot
// maps and elimination scratch (i). A solve takes one from the free
// list, reslices it, and gives it back when it returns, so consecutive
// LPs reuse the same memory instead of allocating, zeroing and
// collecting a tableau each.
type arena struct {
	f []float64
	u []uint64
	i []int
}

// span is how many elements of each of an arena's slices one tableau
// takes.
type span struct{ f, u, i int }

// bytes is the memory a span covers.
func (s span) bytes() int { return 8*(s.f+s.u) + bits.UintSize/8*s.i }

// newArena allocates a bit-zero arena of exactly s.
func newArena(s span) *arena {
	return &arena{f: make([]float64, s.f), u: make([]uint64, s.u), i: make([]int, s.i)}
}

// size is the arena's capacity as a span.
func (a *arena) size() span { return span{cap(a.f), cap(a.u), cap(a.i)} }

// fits reports whether the arena can hold a tableau that takes s.
func (a *arena) fits(s span) bool {
	return cap(a.f) >= s.f && cap(a.u) >= s.u && cap(a.i) >= s.i
}

const (
	// maxPooledBytes is the largest arena the free list keeps: several
	// times the largest tableau a served request builds (6–9 MiB for an
	// n = 40 `long` component), so every served LP reuses memory, while
	// one rare huge LP does not stay pinned after it returns. A larger
	// LP allocates its own arena and drops it. A per-solve memory cap
	// would check the span against its limit at the same point, before
	// anything is allocated.
	maxPooledBytes = 64 << 20
	// idleGrace is how long the free list outlives the last solve that
	// ended. A busy server spends part of every request outside the LP
	// (the exact rung, rounding, encoding, the next request's decode),
	// so its count of solves in flight touches zero many times a second;
	// dropping the list at each of those reused only a third of the
	// tableau bytes on perfbench's cold-ladder. An idle process keeps
	// nothing past the grace.
	idleGrace = 20 * time.Millisecond
)

// freeList holds the arenas of finished solves while the solver is
// busy. It keeps at most GOMAXPROCS arenas, the largest ones: at most
// that many LPs run at any instant, so more would sit unused. Once no
// solve has held an arena for idleGrace it drops them all.
type freeList struct {
	mu     sync.Mutex
	free   []*arena
	busy   int    // solves holding an arena
	starts uint64 // arenas handed out so far
	seen   uint64 // starts when the idle timer was armed
	armed  bool   // the idle timer is pending
	timer  *time.Timer
}

// arenas is the free list every SolveChecked call draws from.
var arenas freeList

// testHookArena, when set, sees every arena handed to a solve along
// with the span the solve will use.
var testHookArena func(a *arena, s span)

// get returns an arena that fits s, bit-zero over s: the smallest free
// arena that fits, cleared over s, or a new one. A recycled arena is
// cleared here, not when it is given back, so an arena returned by a
// solve that stopped anywhere, a panicking one included, is never seen
// dirty.
func (l *freeList) get(s span) *arena {
	l.mu.Lock()
	l.busy++
	l.starts++
	best := -1
	for k, a := range l.free {
		if a.fits(s) && (best < 0 || a.size().bytes() < l.free[best].size().bytes()) {
			best = k
		}
	}
	var a *arena
	if best >= 0 {
		a = l.free[best]
		last := len(l.free) - 1
		l.free[best], l.free[last] = l.free[last], nil
		l.free = l.free[:last]
	}
	l.mu.Unlock()
	if a == nil {
		a = newArena(s)
	} else {
		clear(a.f[:s.f])
		clear(a.u[:s.u])
		clear(a.i[:s.i])
	}
	if testHookArena != nil {
		testHookArena(a, s)
	}
	return a
}

// put gives back an arena taken by get. The free list keeps it unless
// it is over maxPooledBytes or smaller than every arena of a full list,
// and arms the idle timer when the last solve in flight ends.
func (l *freeList) put(a *arena) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.busy--
	if b := a.size().bytes(); b <= maxPooledBytes {
		if len(l.free) < runtime.GOMAXPROCS(0) {
			l.free = append(l.free, a)
		} else {
			small := 0
			for k, f := range l.free {
				if f.size().bytes() < l.free[small].size().bytes() {
					small = k
				}
			}
			if b > l.free[small].size().bytes() {
				l.free[small] = a
			}
		}
	}
	if l.busy == 0 && !l.armed {
		l.arm()
	}
}

// arm starts the idle timer; l.mu must be held.
func (l *freeList) arm() {
	l.armed, l.seen = true, l.starts
	if l.timer == nil {
		l.timer = time.AfterFunc(idleGrace, l.idle)
	} else {
		l.timer.Reset(idleGrace)
	}
}

// idle runs when the timer fires. It drops the free list if no solve
// is in flight and none started during the grace period; if one
// started and has already ended, it waits another grace period; if
// one is still running, the put that ends the last of them re-arms.
func (l *freeList) idle() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.armed = false
	switch {
	case l.busy > 0:
	case l.starts != l.seen:
		l.arm()
	default:
		l.free = nil
	}
}
