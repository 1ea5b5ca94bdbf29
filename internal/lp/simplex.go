package lp

import (
	"math"
	"math/bits"
)

// Numerical tolerances for the float64 engine.
const (
	epsPivot   = 1e-9 // smallest usable pivot magnitude
	epsReduced = 1e-9 // reduced-cost optimality tolerance
	epsPhase1  = 1e-7 // residual artificial mass considered infeasible
)

// tableau is a condensed simplex tableau: m constraint rows plus one
// cost row, over the nonbasic variables only plus a right-hand-side
// column, stored row-major. A basic variable's column is the unit
// vector of its row, so it is not stored: the n variables share
// w = n-m slots, one per nonbasic variable, and column w is the rhs.
// A pivot hands the entering variable's slot to the leaving variable.
//
// Every stored cell goes through exactly the floating-point operations
// a full (m+1)×(n+1) tableau applies to the same variable's cell, and
// every pricing, ratio-test and purge decision picks the variable the
// full tableau picks, so the two layouts give bit-identical solutions,
// duals and pivot counts. Three facts make that hold: the leaving
// variable's cells are computed as 1*inv in the pivot row and +0-f*inv
// elsewhere (the full tableau subtracts from the +0 of its unit
// column there); ties break on variable index, not slot; and a basic
// variable's reduced cost is exactly +0 in the full tableau (installCost
// gives x-x, a pivot writes 0), so it is never chosen and contributes
// +0 to a dual.
type tableau struct {
	m, n   int // constraint rows, variables
	w      int // slots, n-m; column w is the rhs
	a      []float64
	basis  []int // basic variable of each constraint row
	varOf  []int // variable in each slot
	slotOf []int // slot of each variable, -1 while it is basic
	artLo  int   // first artificial variable; variables >= artLo are artificial
	// Dual extraction: row i's dual value is dualMult[i] times the
	// final reduced cost of variable dualCol[i] (the row's slack,
	// surplus, or artificial), with dualMult folding in both the
	// column's unit sign and any rhs-normalization flip.
	dualCol  []int
	dualMult []float64
	// cost holds each phase's per-variable costs for installCost.
	cost []float64
	// Elimination scratch, carved once per solve: the pivot row's
	// nonzero columns (capacity w+1) and the pivot column's nonzero
	// rows, cost row included (capacity m+1).
	cols, rows []int
	// The nonzero index: rowNZ holds rw words per row (cost row
	// included) with bit j set for column j, colNZ holds cw words per
	// column (rhs included) with bit i set for row i. Every nonzero
	// cell has both its bits set; a set bit may cover a cell that has
	// since cancelled to zero, and walks clear such bits as they meet
	// them.
	rowNZ, colNZ []uint64
	rw, cw       int
}

func (t *tableau) at(i, j int) float64     { return t.a[i*(t.w+1)+j] }
func (t *tableau) set(i, j int, v float64) { t.a[i*(t.w+1)+j] = v }
func (t *tableau) row(i int) []float64     { return t.a[i*(t.w+1) : (i+1)*(t.w+1)] }
func (t *tableau) rhs(i int) float64       { return t.at(i, t.w) }

// rowBits and colBits are row i's and column j's words of the nonzero
// index.
func (t *tableau) rowBits(i int) []uint64 { return t.rowNZ[i*t.rw : (i+1)*t.rw] }
func (t *tableau) colBits(j int) []uint64 { return t.colNZ[j*t.cw : (j+1)*t.cw] }

// indexWords returns the words per row and per column of the nonzero
// index of an m-row, w-slot tableau, and the index's total words.
func indexWords(m, w int) (rw, cw, words int) {
	rw, cw = (w+64)/64, (m+64)/64
	return rw, cw, (m+1)*rw + (w+1)*cw
}

// setIndex makes the front of nz, which must be bit-zero there, the
// tableau's empty nonzero index.
func (t *tableau) setIndex(nz []uint64) {
	var words int
	t.rw, t.cw, words = indexWords(t.m, t.w)
	t.rowNZ, t.colNZ = nz[:(t.m+1)*t.rw:(t.m+1)*t.rw], nz[(t.m+1)*t.rw:words:words]
}

// mark records cell (i, j) in the nonzero index.
func (t *tableau) mark(i, j int) {
	t.rowNZ[i*t.rw+(j>>6)] |= 1 << (j & 63)
	t.colNZ[j*t.cw+(i>>6)] |= 1 << (i & 63)
}

// Solve runs the two-phase simplex on p over a condensed float64
// tableau.
func Solve(p *Problem) (*Solution, error) {
	return SolveChecked(p, nil)
}

// SolveChecked is Solve with a cancellation/budget hook consulted once
// per pivot (each pivot prices every nonbasic column, O(n) before any
// elimination, so the per-pivot atomic check is noise) and, with zero
// work, every buildCheckRows rows while the tableau is built. On abort
// the Solution carries Status Aborted and the check's error is
// returned. Each call builds one condensed tableau of (m+1)×(n−m+1)
// float64s, m rows and n variables counting slacks and artificials,
// in an arena from a free list that all calls share, and gives the
// arena back on every return path, so the next call reuses its memory.
// The free list holds at most GOMAXPROCS arenas of at most
// maxPooledBytes each and is dropped once no call has been in flight
// for idleGrace. The returned Solution shares no memory with the
// arena.
func SolveChecked(p *Problem, check CheckFunc) (*Solution, error) {
	f := formOf(p)
	a := arenas.get(f.span())
	defer arenas.put(a)
	return solve(p, f, a, check)
}

// solve runs both phases on a tableau built in a, which must be
// bit-zero over f's span.
func solve(p *Problem, f form, a *arena, check CheckFunc) (*Solution, error) {
	t, err := build(p, f, a, check)
	if err != nil {
		return &Solution{Status: Aborted}, err
	}
	sol := &Solution{}
	if f.nArt > 0 {
		// Phase 1: minimize the sum of artificials. The cost vector
		// starts bit-zero.
		for j := t.artLo; j < t.n; j++ {
			t.cost[j] = 1
		}
		t.installCost(t.cost)
		st, iters, err := t.iterate(true, check)
		sol.Iterations += iters
		if err != nil {
			sol.Status = st
			return sol, err
		}
		if st != Optimal {
			// Phase 1 is bounded below by 0, so non-optimal means the
			// iteration cap was hit.
			sol.Status = IterLimit
			return sol, nil
		}
		if mass := -t.rhs(t.m); mass > epsPhase1*(1+math.Abs(mass)) {
			sol.Status = Infeasible
			return sol, nil
		}
		t.purgeArtificials()
	}
	// Phase 2: minimize the real objective.
	clear(t.cost)
	copy(t.cost, p.obj)
	t.installCost(t.cost)
	st, iters, err := t.iterate(false, check)
	sol.Iterations += iters
	sol.Status = st
	if err != nil {
		return sol, err
	}
	if st != Optimal {
		return sol, nil
	}
	sol.X = make([]float64, p.NumVars())
	for i, b := range t.basis {
		if b < p.NumVars() {
			sol.X[b] = t.rhs(i)
		}
	}
	for v, x := range sol.X {
		if x < 0 {
			// Tiny negative values are numerical noise; clamp.
			sol.X[v] = 0
		}
		sol.Objective += p.obj[v] * sol.X[v]
	}
	sol.Dual = make([]float64, t.m)
	crow := t.row(t.m)
	for i := 0; i < t.m; i++ {
		var d float64 // a basic variable's reduced cost, +0
		if s := t.slotOf[t.dualCol[i]]; s >= 0 {
			d = crow[s]
		}
		sol.Dual[i] = t.dualMult[i] * d
	}
	return sol, nil
}

// form is the shape of p's standard form: m rows over nvar structural
// variables, nSlack slacks and surpluses, and nArt artificials (one
// slack per <=, one surplus per >=, one artificial per >= and =, after
// the rhs is normalized to be nonnegative).
type form struct{ m, nvar, nSlack, nArt int }

func formOf(p *Problem) form {
	f := form{m: p.NumRows(), nvar: p.NumVars()}
	for _, r := range p.rows {
		switch normalizedRel(r) {
		case LE:
			f.nSlack++
		case GE:
			f.nSlack++ // surplus
			f.nArt++
		case EQ:
			f.nArt++
		}
	}
	return f
}

// span is what the form's tableau takes of an arena: its (m+1)×(w+1)
// cells, cost vector and dual multipliers; its nonzero index; and its
// basis, dual columns, slot maps and elimination scratch.
func (f form) span() span {
	n := f.nvar + f.nSlack + f.nArt
	w := n - f.m
	_, _, words := indexWords(f.m, w)
	return span{
		f: (f.m+1)*(w+1) + n + f.m,
		u: words,
		i: 2*f.m + w + n + (w + 1) + (f.m + 1),
	}
}

// carve cuts the next k elements off *s, capped at k.
func carve[T any](s *[]T, k int) []T {
	out := (*s)[:k:k]
	*s = (*s)[k:]
	return out
}

// buildCheckRows is build's check cadence in rows: the largest
// relaxations the pipeline builds take long enough before the first
// pivot's check that a cancel landing there would overrun its latency
// bound (TestCancelConformance), so build polls too.
const buildCheckRows = 64

// build converts p, whose standard form is f, into a tableau carved
// from a, which must be bit-zero over f's span. The starting basis is
// each <= row's slack and each other row's artificial; the slots hold
// the structural variables and the surpluses in increasing variable
// index. Returns the tableau, or the error of a check that stopped the
// build.
func build(p *Problem, f form, a *arena, check CheckFunc) (*tableau, error) {
	m, nvar := f.m, f.nvar
	n := nvar + f.nSlack + f.nArt
	w := n - m
	fs, is := a.f, a.i
	t := &tableau{
		m:        m,
		n:        n,
		w:        w,
		a:        carve(&fs, (m+1)*(w+1)),
		cost:     carve(&fs, n),
		dualMult: carve(&fs, m),
		basis:    carve(&is, m),
		dualCol:  carve(&is, m),
		varOf:    carve(&is, w),
		slotOf:   carve(&is, n),
		cols:     carve(&is, w+1)[:0],
		rows:     carve(&is, m+1)[:0],
		artLo:    nvar + f.nSlack,
	}
	t.setIndex(a.u)
	for v := range t.slotOf {
		t.slotOf[v] = -1
	}
	// A structural variable's slot is its own index.
	for v := 0; v < nvar; v++ {
		t.varOf[v], t.slotOf[v] = v, v
	}
	set := func(i, j int, v float64) {
		t.set(i, j, v)
		t.mark(i, j)
	}
	slack, art, surplus := nvar, t.artLo, nvar
	for i, r := range p.rows {
		if check != nil && i%buildCheckRows == 0 {
			if err := check(0); err != nil {
				return nil, err
			}
		}
		sign := 1.0
		rhs := r.rhs
		if rhs < 0 {
			sign, rhs = -1, -rhs
		}
		for _, term := range r.terms {
			set(i, term.Var, t.at(i, term.Var)+sign*term.Coeff)
		}
		set(i, w, rhs)
		switch normalizedRel(r) {
		case LE:
			t.basis[i] = slack
			// d_slack = -y_norm; y_orig = sign * y_norm.
			t.dualCol[i], t.dualMult[i] = slack, -sign
			slack++
		case GE:
			t.varOf[surplus], t.slotOf[slack] = slack, surplus
			set(i, surplus, -1)
			surplus++
			// d_surplus = +y_norm.
			t.dualCol[i], t.dualMult[i] = slack, sign
			slack++
			t.basis[i] = art
			art++
		case EQ:
			t.basis[i] = art
			// d_artificial = -y_norm (artificials cost 0 in phase 2).
			t.dualCol[i], t.dualMult[i] = art, -sign
			art++
		}
	}
	return t, nil
}

// normalizedRel returns the relation of r after multiplying through by
// -1 when the rhs is negative (LE <-> GE swap, EQ unchanged).
func normalizedRel(r row) Rel {
	if r.rhs >= 0 {
		return r.rel
	}
	switch r.rel {
	case LE:
		return GE
	case GE:
		return LE
	default:
		return EQ
	}
}

// installCost writes the cost row for the given per-variable costs and
// prices out the current basis, leaving reduced costs in row m and the
// negated objective in the cost row's rhs cell. Pricing out a basic
// row walks its nonzero index: a cell outside it is zero, and
// subtracting a zero product leaves every cost cell but a -0 as it
// was.
func (t *tableau) installCost(cost []float64) {
	crow := t.row(t.m)
	for s, v := range t.varOf {
		crow[s] = cost[v]
	}
	crow[t.w] = 0
	for i, b := range t.basis {
		if cb := cost[b]; cb != 0 {
			ri := t.row(i)
			for w, word := range t.rowBits(i) {
				for ; word != 0; word &= word - 1 {
					j := w<<6 | bits.TrailingZeros64(word)
					crow[j] -= cb * ri[j]
				}
			}
		}
	}
	for j, v := range crow {
		if v != 0 {
			t.mark(t.m, j)
		}
	}
}

// iterate runs simplex pivots until optimality, unboundedness, or the
// iteration cap. In phase 1 all variables may enter; in phase 2
// artificial variables are excluded. Dantzig pricing is used until
// degeneracy stalls progress, after which Bland's rule takes over to
// guarantee termination. Both rules scan the slots and break ties on
// the lowest variable index, as a scan of the full tableau's columns
// in index order would.
func (t *tableau) iterate(phase1 bool, check CheckFunc) (Status, int, error) {
	maxIters := 200*(t.m+t.n) + 20000
	stall := 0
	bland := false
	lastObj := math.Inf(1)
	hi := t.n
	if !phase1 {
		hi = t.artLo
	}
	for iter := 0; iter < maxIters; iter++ {
		if check != nil {
			if err := check(1); err != nil {
				return Aborted, iter, err
			}
		}
		var enter int
		if bland {
			enter = t.blandEnter(hi)
		} else {
			enter = t.dantzigEnter(hi)
		}
		if enter < 0 {
			return Optimal, iter, nil
		}
		// Ratio test: leaving row. It walks the entering column's
		// index in row order, so it also records the column's nonzero
		// rows for the pivot. The cost row's bit, the column's last,
		// is skipped.
		rows := t.rows[:0]
		leave := -1
		var bestRatio float64
		col := t.colBits(enter)
		for w, word := range col {
			for ; word != 0; word &= word - 1 {
				i := w<<6 | bits.TrailingZeros64(word)
				if i == t.m {
					break
				}
				aij := t.at(i, enter)
				if aij == 0 {
					col[w] &^= word & -word
					continue
				}
				rows = append(rows, i)
				if aij <= epsPivot {
					continue
				}
				ratio := t.rhs(i) / aij
				if leave < 0 || ratio < bestRatio-epsPivot ||
					(ratio < bestRatio+epsPivot && t.basis[i] < t.basis[leave]) {
					leave, bestRatio = i, ratio
				}
			}
		}
		if leave < 0 {
			return Unbounded, iter, nil
		}
		// The entering column's reduced cost is negative, so the cost
		// row always takes part in the elimination.
		t.pivot(leave, enter, append(rows, t.m))
		// Degeneracy watch: if the objective stops improving for many
		// pivots, fall back to Bland's rule.
		obj := -t.rhs(t.m)
		if obj < lastObj-1e-12 {
			lastObj = obj
			stall = 0
		} else {
			stall++
			if stall > t.m+100 {
				bland = true
			}
		}
	}
	return IterLimit, maxIters, nil
}

// dantzigEnter returns the slot of the entering variable under
// Dantzig's rule, or -1 if none qualifies: among the variables below
// hi, the one with the most negative reduced cost below -epsReduced,
// ties going to the lowest variable index.
func (t *tableau) dantzigEnter(hi int) int {
	// The variable is loaded only for a candidate at least as good as
	// the best so far; ev = -1 keeps a reduced cost of exactly
	// -epsReduced out, as a strict < would.
	enter, ev := -1, -1
	best := -epsReduced
	for s, d := range t.row(t.m)[:t.w] {
		if d <= best {
			if v := t.varOf[s]; v < hi && (d < best || v < ev) {
				best, enter, ev = d, s, v
			}
		}
	}
	return enter
}

// blandEnter returns the slot of the entering variable under Bland's
// rule, or -1 if none qualifies: the lowest-index variable below hi
// whose reduced cost is below -epsReduced.
func (t *tableau) blandEnter(hi int) int {
	enter, ev := -1, -1
	for s, d := range t.row(t.m)[:t.w] {
		if d < -epsReduced {
			if v := t.varOf[s]; v < hi && (ev < 0 || v < ev) {
				enter, ev = s, v
			}
		}
	}
	return enter
}

// pivot performs Gauss-Jordan elimination on (r, s): the variable in
// slot s becomes basic in row r, and row r's basic variable leaves
// into slot s. rows must list every row, the cost row included, whose
// slot-s entry is nonzero, and each of them must have its bit in slot
// s's index. Only those rows change, and only at the pivot row's
// nonzero columns: for a zero pivot-row entry the full-row update
// ri[j] - f*0 leaves ri[j] as it was, up to the sign of a zero, and
// the engine compares ±0 as equal everywhere.
//
// Slot s then holds the leaving variable's column, which was the unit
// vector e_r: the pivot row scales its 1 to inv, and each updated row
// i gets +0 - f*inv, both exactly what the full tableau computes for
// that column. Its nonzeros sit at the rows of the entering column,
// so slot s's column index is kept. The rest of the index follows the
// elimination: an updated row can turn nonzero only at the pivot
// row's columns, and such a column only at the pivot column's rows,
// so each updated row takes the pivot row's bits and each such column
// the pivot column's.
func (t *tableau) pivot(r, s int, rows []int) {
	pr := t.row(r)
	inv := 1 / pr[s]
	cols := t.cols[:0]
	prBits := t.rowBits(r)
	for w, word := range prBits {
		for ; word != 0; word &= word - 1 {
			j := w<<6 | bits.TrailingZeros64(word)
			if v := pr[j]; v != 0 {
				pr[j] = v * inv
				cols = append(cols, j)
			} else {
				prBits[w] &^= word & -word
			}
		}
	}
	pr[s] = inv // the leaving variable's 1, scaled
	for _, i := range rows {
		if i == r {
			continue
		}
		ri := t.row(i)
		f := ri[s]
		for _, j := range cols {
			ri[j] -= f * pr[j]
		}
		// Subtract from +0, as the full tableau does at the leaving
		// variable's column; -(f*inv) would turn a +0 product into -0.
		ri[s] = 0 - f*inv
		riBits := t.rowBits(i)
		for w, word := range prBits {
			riBits[w] |= word
		}
	}
	sBits := t.colBits(s)
	for _, j := range cols {
		if j == s {
			continue
		}
		jBits := t.colBits(j)
		for w, word := range sBits {
			jBits[w] |= word
		}
	}
	c, lv := t.varOf[s], t.basis[r]
	t.varOf[s], t.slotOf[lv] = lv, s
	t.slotOf[c], t.basis[r] = -1, c
}

// nonzeroRows returns the rows, the cost row included, whose slot-s
// entry is nonzero, in the tableau's row scratch.
func (t *tableau) nonzeroRows(s int) []int {
	rows := t.rows[:0]
	col := t.colBits(s)
	for w, word := range col {
		for ; word != 0; word &= word - 1 {
			if i := w<<6 | bits.TrailingZeros64(word); t.at(i, s) != 0 {
				rows = append(rows, i)
			} else {
				col[w] &^= word & -word
			}
		}
	}
	return rows
}

// purgeArtificials drives basic artificial variables out of the basis
// after phase 1. Rows whose artificial cannot be replaced (all
// structural coefficients zero) are redundant and are cleared so they
// can never bind again.
func (t *tableau) purgeArtificials() {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artLo {
			continue
		}
		// The artificial is basic at (numerically) zero level. Pivot in
		// the lowest non-artificial variable with a usable coefficient;
		// usable cells are nonzero, so the row's index covers them.
		ri := t.row(i)
		piv, pv := -1, t.artLo
		for w, word := range t.rowBits(i) {
			for ; word != 0; word &= word - 1 {
				s := w<<6 | bits.TrailingZeros64(word)
				if s == t.w {
					break
				}
				if v := t.varOf[s]; v < pv && math.Abs(ri[s]) > epsPivot {
					piv, pv = s, v
				}
			}
		}
		if piv >= 0 {
			t.pivot(i, piv, t.nonzeroRows(piv))
			continue
		}
		// Redundant row: zero it so it never constrains anything. Its
		// artificial stays formally basic at 0.
		clear(ri)
	}
	// Nonbasic artificial columns are intentionally left intact: phase
	// 2 never prices them (iterate's hi excludes them), and their
	// tableau values equal B^{-1} e_i, which is exactly what dual
	// extraction reads after optimality.
}
