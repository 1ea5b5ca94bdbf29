package lp

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// randomLP returns a feasible, bounded LP of about m rows over n
// variables: sparse <=, >= and = rows through a random nonnegative
// point, costs of both signs, and a <= row over every variable that
// keeps the objective bounded.
func randomLP(seed int64, m, n int) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := NewProblem()
	x0 := make([]float64, n)
	all := make([]Term, n)
	for v := range x0 {
		p.AddVar("", float64(rng.Intn(7)-2))
		x0[v] = float64(rng.Intn(4))
		all[v] = Term{v, 1}
	}
	for i := 0; i < m; i++ {
		var terms []Term
		dot := 0.0
		for k := 0; k < 4; k++ {
			v, c := rng.Intn(n), float64(rng.Intn(7)-3)/float64(1+rng.Intn(3))
			terms = append(terms, Term{v, c})
			dot += c * x0[v]
		}
		switch rng.Intn(3) {
		case 0:
			p.AddConstraint(LE, dot+float64(rng.Intn(3)), terms...)
		case 1:
			p.AddConstraint(GE, dot-float64(rng.Intn(3)), terms...)
		default:
			p.AddConstraint(EQ, dot, terms...)
		}
	}
	p.AddConstraint(LE, float64(10*n), all...)
	return p
}

// solveFresh solves p on a newly allocated arena, outside the free
// list.
func solveFresh(p *Problem, check CheckFunc) (*Solution, error) {
	f := formOf(p)
	return solve(p, f, newArena(f.span()), check)
}

// sameSolution reports how a and b differ, bit for bit, or "".
func sameSolution(a, b *Solution) string {
	switch {
	case a.Status != b.Status:
		return "status"
	case a.Iterations != b.Iterations:
		return "iterations"
	case math.Float64bits(a.Objective) != math.Float64bits(b.Objective):
		return "objective"
	case len(a.X) != len(b.X) || len(a.Dual) != len(b.Dual):
		return "lengths"
	}
	for v := range a.X {
		if math.Float64bits(a.X[v]) != math.Float64bits(b.X[v]) {
			return "X"
		}
	}
	for i := range a.Dual {
		if math.Float64bits(a.Dual[i]) != math.Float64bits(b.Dual[i]) {
			return "Dual"
		}
	}
	return ""
}

// resetArenas empties the free list.
func resetArenas() {
	arenas.mu.Lock()
	arenas.free = nil
	arenas.mu.Unlock()
}

// freeArenas returns a copy of the free list.
func freeArenas() []*arena {
	arenas.mu.Lock()
	defer arenas.mu.Unlock()
	return append([]*arena(nil), arenas.free...)
}

// cancelAfter returns a check that stops a solve after the given
// number of pivots.
func cancelAfter(pivots int) CheckFunc {
	done := 0
	return func(work int) error {
		if done += work; done > pivots {
			return errors.New("cancelled")
		}
		return nil
	}
}

// TestArenaReuse solves a large LP, a small one, the large one again,
// another large one cancelled mid-solve, and the first once more, all
// through the shared free list. Every solve after the first must take
// the first one's arena, every span handed out must be bit-zero, and
// every Solution must equal the same solve on a fresh tableau bit for
// bit.
func TestArenaReuse(t *testing.T) {
	resetArenas()
	// A solve held open for the whole test keeps the idle timer from
	// dropping the list between steps.
	hold := arenas.get(span{})
	defer arenas.put(hold)
	var handed []*arena
	testHookArena = func(a *arena, s span) {
		handed = append(handed, a)
		for k, v := range a.f[:s.f] {
			if math.Float64bits(v) != 0 {
				t.Errorf("solve %d: float cell %d is %v (bits %#x), want +0", len(handed), k, v, math.Float64bits(v))
				return
			}
		}
		for k, v := range a.u[:s.u] {
			if v != 0 {
				t.Errorf("solve %d: index word %d is %#x, want 0", len(handed), k, v)
				return
			}
		}
		for k, v := range a.i[:s.i] {
			if v != 0 {
				t.Errorf("solve %d: int %d is %d, want 0", len(handed), k, v)
				return
			}
		}
	}
	defer func() { testHookArena = nil }()

	large, small, other := randomLP(1, 60, 90), randomLP(2, 8, 12), randomLP(3, 50, 80)
	if !newArena(formOf(large).span()).fits(formOf(other).span()) {
		t.Fatal("the cancelled LP must fit the large LP's arena")
	}
	full, err := solveFresh(other, nil)
	if err != nil || full.Status != Optimal || full.Iterations < 4 {
		t.Fatalf("cancelled LP solved fresh: %v after %d pivots, err %v; want optimal after at least 4", full.Status, full.Iterations, err)
	}
	stop := full.Iterations / 2
	steps := []struct {
		name   string
		p      *Problem
		cancel int // pivots before the check stops the solve, 0 for none
	}{
		{"large", large, 0},
		{"small", small, 0},
		{"large again", large, 0},
		{"cancelled", other, stop},
		{"large after the cancel", large, 0},
	}
	for _, st := range steps {
		var check, freshCheck CheckFunc
		if st.cancel > 0 {
			check, freshCheck = cancelAfter(st.cancel), cancelAfter(st.cancel)
		}
		got, gotErr := SolveChecked(st.p, check)
		want, wantErr := solveFresh(st.p, freshCheck)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: error %v, fresh tableau gives %v", st.name, gotErr, wantErr)
		}
		if d := sameSolution(got, want); d != "" {
			t.Fatalf("%s: %s differs from the fresh tableau's: %+v against %+v", st.name, d, got, want)
		}
		if st.cancel > 0 && got.Status != Aborted {
			t.Fatalf("%s: status %v, want aborted", st.name, got.Status)
		}
		if st.cancel == 0 && got.Status != Optimal {
			t.Fatalf("%s: status %v, want optimal", st.name, got.Status)
		}
	}
	if len(handed) != len(steps) {
		t.Fatalf("%d arenas handed out for %d solves", len(handed), len(steps))
	}
	for k, a := range handed[1:] {
		if a != handed[0] {
			t.Errorf("%s took a new arena, not the first solve's", steps[k+1].name)
		}
	}
}

// TestArenaBounds checks the free list's bounds: it keeps at most
// GOMAXPROCS arenas, the largest ones, and none above maxPooledBytes;
// concurrent solves leave it within both; it keeps its arenas while a
// solve is in flight and is empty once idleGrace passes with none.
func TestArenaBounds(t *testing.T) {
	resetArenas()
	procs := runtime.GOMAXPROCS(0)
	// A solve held open until the end keeps the idle timer from
	// dropping the list before then.
	hold := arenas.get(span{})
	held := make([]*arena, procs+2)
	for k := range held {
		held[k] = arenas.get(span{f: 100 * (k + 1), u: 1, i: 1})
	}
	for _, a := range held {
		arenas.put(a)
	}
	kept := freeArenas()
	if len(kept) != procs {
		t.Fatalf("free list holds %d arenas after %d puts, want GOMAXPROCS = %d", len(kept), len(held), procs)
	}
	for _, a := range held[:2] {
		for _, k := range kept {
			if k == a {
				t.Errorf("free list kept a %d-byte arena over larger ones", a.size().bytes())
			}
		}
	}

	// An arena over the limit is never pooled.
	huge := arenas.get(span{f: maxPooledBytes/8 + 1})
	arenas.put(huge)
	for _, a := range freeArenas() {
		if a == huge {
			t.Fatal("free list kept an arena over maxPooledBytes")
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 2*procs+1; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				p := randomLP(int64(g*4+k), 10+7*g, 15+9*k)
				got, err := Solve(p)
				want, _ := solveFresh(p, nil)
				if err != nil || sameSolution(got, want) != "" {
					t.Errorf("concurrent solve %d/%d: %+v, err %v; fresh tableau gives %+v", g, k, got, err, want)
				}
			}
		}(g)
	}
	wg.Wait()
	kept = freeArenas()
	if len(kept) > procs {
		t.Errorf("free list holds %d arenas after concurrent solves, GOMAXPROCS is %d", len(kept), procs)
	}
	for _, a := range kept {
		if a.size().bytes() > maxPooledBytes {
			t.Errorf("free list holds a %d-byte arena, limit %d", a.size().bytes(), maxPooledBytes)
		}
	}

	// Kept while a solve is in flight, dropped once none is.
	time.Sleep(3 * idleGrace)
	if len(freeArenas()) == 0 {
		t.Fatal("free list dropped while a solve was in flight")
	}
	arenas.put(hold)
	deadline := time.Now().Add(5 * time.Second)
	for len(freeArenas()) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("free list still holds %d arenas 5 s after the last solve ended", len(freeArenas()))
		}
		time.Sleep(idleGrace)
	}
}

// TestTableauStoresNonbasicColumnsOnly pins the tableau's size: with
// m rows and n variables, slacks and artificials counted, it holds
// (m+1)×(n−m+1) cells, not the (m+1)×(n+1) of a full tableau.
func TestTableauStoresNonbasicColumnsOnly(t *testing.T) {
	p := NewProblem()
	for v := 0; v < 4; v++ {
		p.AddVar("", 1)
	}
	p.AddConstraint(LE, 4, Term{0, 1}, Term{1, 1})
	p.AddConstraint(LE, -2, Term{1, -1}, Term{2, 1}) // a >= row once normalized
	p.AddConstraint(GE, 1, Term{2, 1}, Term{3, 1})
	p.AddConstraint(EQ, 3, Term{0, 1}, Term{3, 2})
	// 4 structural variables, 1 slack, 2 surpluses, 3 artificials.
	const m, n = 4, 10
	f := formOf(p)
	tb, err := build(p, f, newArena(f.span()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tb.m != m || tb.n != n {
		t.Fatalf("tableau has %d rows and %d variables, want %d and %d", tb.m, tb.n, m, n)
	}
	if want := (m + 1) * (n - m + 1); len(tb.a) != want || cap(tb.a) != want {
		t.Fatalf("tableau has %d cells (capacity %d), want (m+1)×(n−m+1) = %d", len(tb.a), cap(tb.a), want)
	}
}
