package lp

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// fullTableau is the tableau the condensed one stands for: m
// constraint rows plus the cost row over every variable's column plus
// the rhs, a basic variable's column stored as the unit vector it is.
type fullTableau struct {
	m, n  int // constraint rows, variables
	a     []float64
	basis []int
}

func (t *fullTableau) at(i, j int) float64 { return t.a[i*(t.n+1)+j] }
func (t *fullTableau) row(i int) []float64 { return t.a[i*(t.n+1) : (i+1)*(t.n+1)] }

// expand returns the full tableau of t: each slot's cells in its
// variable's column, the unit vector of its row in each basic
// variable's column (+0 in the cost row), and the rhs last.
func expand(t *tableau) *fullTableau {
	f := &fullTableau{
		m:     t.m,
		n:     t.n,
		a:     make([]float64, (t.m+1)*(t.n+1)),
		basis: append([]int(nil), t.basis...),
	}
	for i := 0; i <= t.m; i++ {
		fi := f.row(i)
		for s, v := range t.varOf {
			fi[v] = t.at(i, s)
		}
		fi[t.n] = t.rhs(i)
	}
	for i, b := range t.basis {
		f.row(i)[b] = 1
	}
	return f
}

// fullRowPivot is the dense engine's original elimination, kept here
// as the oracle for pivot: on the full tableau it scales every column
// of the pivot row and eliminates every column of every row whose
// pivot-column entry is nonzero.
func fullRowPivot(t *fullTableau, r, c int) {
	pr := t.row(r)
	inv := 1 / pr[c]
	for j := range pr {
		pr[j] *= inv
	}
	pr[c] = 1 // exact
	for i := 0; i <= t.m; i++ {
		if i == r {
			continue
		}
		ri := t.row(i)
		f := ri[c]
		if f == 0 {
			continue
		}
		for j := range ri {
			ri[j] -= f * pr[j]
		}
		ri[c] = 0 // exact
	}
	t.basis[r] = c
}

// decodeTableau derives a small, mostly zero condensed tableau from
// fuzz bytes: 1-6 constraint rows plus the cost row, 1-8 slots plus
// the rhs, with small integers, thirds and sevenths, and zeros of both
// signs. Its basis is consistent: the variables, one per row and one
// per slot, are dealt out in an order a byte seeds, the first ones
// basic in the rows and the rest into the slots. Its nonzero index
// marks every nonzero cell, as build does, plus the zero cells the
// bytes pick: stale bits the index allows. Some inputs spread the rows
// and slots stride apart, with all-zero rows and slots between them,
// so the index spans more than one word; the tableau's slot j is then
// slot j*stride.
func decodeTableau(next func() int) (t *tableau, stride int) {
	shape := next()
	m, w := 1+shape%6, 1+next()%8
	stride = 1
	if shape/6%2 == 1 {
		stride = 13
	}
	pm, pw := (m-1)*stride+1, (w-1)*stride+1
	t = &tableau{
		m:      pm,
		n:      pm + pw,
		w:      pw,
		a:      make([]float64, (pm+1)*(pw+1)),
		basis:  make([]int, pm),
		varOf:  make([]int, pw),
		slotOf: make([]int, pm+pw),
		cols:   make([]int, 0, pw+1),
		rows:   make([]int, 0, pm+1),
	}
	t.newIndex()
	for i := 0; i <= m; i++ {
		for j := 0; j <= w; j++ {
			v := next()
			small := float64((v>>3)%9 - 4)
			var x float64
			switch v % 8 {
			case 4:
				x = small
			case 5:
				x = small / 3
			case 6:
				x = small / 7
			case 7:
				x = math.Copysign(0, small-0.5) // -0 or +0
			}
			pi, pj := min(i*stride, pm), min(j*stride, pw)
			t.set(pi, pj, x)
			if x != 0 || v&64 != 0 {
				t.mark(pi, pj)
			}
		}
	}
	order := rand.New(rand.NewSource(int64(next()))).Perm(t.n)
	copy(t.basis, order[:pm])
	copy(t.varOf, order[pm:])
	for _, b := range t.basis {
		t.slotOf[b] = -1
	}
	for s, v := range t.varOf {
		t.slotOf[v] = s
	}
	return t, stride
}

// newIndex gives a hand-built tableau an empty nonzero index of its
// own.
func (t *tableau) newIndex() {
	_, _, words := indexWords(t.m, t.w)
	t.setIndex(make([]uint64, words))
}

// indexed reports whether cell (i, j)'s row and column bits are set.
func (t *tableau) indexed(i, j int) bool {
	return t.rowBits(i)[j>>6]&(1<<(j&63)) != 0 && t.colBits(j)[i>>6]&(1<<(i&63)) != 0
}

// FuzzPivotMatchesFullRow checks the condensed, zero-skipping
// elimination against the full-row loop on the full tableau: the
// tableau is expanded once, with unit columns for its basic variables,
// and the same pivots on both must leave every stored cell equal to
// the full tableau's cell of the same variable (±0 compare equal), the
// same basis, and a slot map that holds exactly the nonbasic
// variables. The full tableau's basic columns must stay the unit
// vectors the condensed layout leaves out. Pivot elements of either
// sign are chosen, as purgeArtificials may pick a negative one, and
// the rows handed to pivot are built both ways production builds
// them: by nonzeroRows, and as the ratio test does, from the pivot
// slot's index with the cost row appended unconditionally. After
// every pivot the nonzero index must still cover every nonzero cell.
func FuzzPivotMatchesFullRow(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 3, 4, 12, 0, 7, 5, 20, 0, 0, 6, 44, 4, 0, 13, 0, 1, 4, 0, 1, 2, 1, 0,
		7, 4, 1, 0, 1, 3, 1, 0, 2, 0, 1, 0, 1, 1})
	f.Add([]byte{5, 7, 4, 0, 0, 12, 0, 7, 15, 0, 0, 4, 0, 0, 20, 0, 0, 0, 36, 0, 4, 5, 0,
		0, 13, 0, 0, 28, 0, 0, 4, 0, 7, 12, 0, 0, 0, 5, 0, 0, 44, 0, 0, 0, 6, 0, 0, 0, 4,
		0, 0, 3, 9, 1, 4, 2, 2, 3, 5, 0, 1, 1, 7, 6, 3,
		9, 7, 3, 1, 1, 0, 2, 0, 5, 0, 1, 7, 1, 0, 2, 3, 1, 6, 0, 0, 1, 1, 1, 4, 0, 0, 0, 1, 1})
	f.Add([]byte{3, 2, 60, 61, 62, 63, 68, 69, 70, 71, 76, 77, 78, 79, 36, 37, 38, 39, 3, 0, 1, 1,
		5, 4, 1, 1, 0, 2, 0, 1, 0, 1, 1, 2, 2, 0})
	// The third seed again, spread stride apart: its index spans two
	// words.
	f.Add([]byte{11, 7, 4, 0, 0, 12, 0, 7, 15, 0, 0, 4, 0, 0, 20, 0, 0, 0, 36, 0, 4, 5, 0,
		0, 13, 0, 0, 28, 0, 0, 4, 0, 7, 12, 0, 0, 0, 5, 0, 0, 44, 0, 0, 0, 6, 0, 0, 0, 4,
		0, 0, 3, 9, 1, 4, 2, 2, 3, 5, 0, 1, 1, 7, 6, 3,
		9, 7, 3, 1, 1, 0, 2, 0, 5, 0, 1, 7, 1, 0, 2, 3, 1, 6, 0, 0, 1, 1, 1, 4, 0, 0, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		got, stride := decodeTableau(next)
		want := expand(got)
		pivots := 1 + next()%8
		for k := 0; k < pivots; k++ {
			s := next() % ((got.w-1)/stride + 1) * stride
			var usable []int
			for i := 0; i < got.m; i++ {
				if v := got.at(i, s); v > epsPivot || v < -epsPivot {
					usable = append(usable, i)
				}
			}
			if len(usable) == 0 {
				continue
			}
			r := usable[next()%len(usable)]
			var rows []int
			if next()%2 == 0 {
				rows = got.nonzeroRows(s)
			} else {
				rows = got.rows[:0]
				col := got.colBits(s)
				for w, word := range col {
					for ; word != 0; word &= word - 1 {
						i := w<<6 | bits.TrailingZeros64(word)
						if i == got.m {
							break
						}
						if got.at(i, s) == 0 {
							col[w] &^= word & -word
							continue
						}
						rows = append(rows, i)
					}
				}
				rows = append(rows, got.m)
			}
			c := got.varOf[s]
			got.pivot(r, s, rows)
			fullRowPivot(want, r, c)
			for i := 0; i <= got.m; i++ {
				for j := 0; j <= got.w; j++ {
					v := got.n // the rhs
					if j < got.w {
						v = got.varOf[j]
					}
					if g, w := got.at(i, j), want.at(i, v); g != w {
						t.Fatalf("pivot %d on (%d,%d): cell (%d,%d) of variable %d = %v, full tableau gives %v",
							k, r, s, i, j, v, g, w)
					}
					if g := got.at(i, j); g != 0 && !got.indexed(i, j) {
						t.Fatalf("pivot %d on (%d,%d): nonzero cell (%d,%d) = %v is missing from the index", k, r, s, i, j, g)
					}
				}
			}
			for i, b := range got.basis {
				if b != want.basis[i] {
					t.Fatalf("pivot %d on (%d,%d): basis[%d] = %d, full tableau gives %d", k, r, s, i, b, want.basis[i])
				}
				if got.slotOf[b] != -1 {
					t.Fatalf("pivot %d on (%d,%d): basic variable %d has slot %d", k, r, s, b, got.slotOf[b])
				}
				for i2 := 0; i2 <= want.m; i2++ {
					unit := 0.0
					if i2 == i {
						unit = 1
					}
					if v := want.at(i2, b); v != unit {
						t.Fatalf("pivot %d on (%d,%d): basic variable %d's full column has %v in row %d, want %v", k, r, s, b, v, i2, unit)
					}
				}
			}
			for j, v := range got.varOf {
				if got.slotOf[v] != j {
					t.Fatalf("pivot %d on (%d,%d): slot %d holds variable %d, whose slot is %d", k, r, s, j, v, got.slotOf[v])
				}
			}
		}
	})
}

// TestPivotLeavingColumnSignOfZero pins the leaving variable's cells
// to +0 - f*inv rather than -(f*inv): the full tableau subtracts from
// the +0 of the leaving unit column there, so when f*inv underflows to
// +0 the cell must stay +0. Here f is the smallest subnormal and inv
// is 1/2, whose product rounds to +0.
func TestPivotLeavingColumnSignOfZero(t *testing.T) {
	tb := &tableau{
		m:      2,
		n:      3,
		w:      1,
		a:      []float64{2, 1, math.SmallestNonzeroFloat64, 0, 0, 0},
		basis:  []int{1, 2},
		varOf:  []int{0},
		slotOf: []int{0, -1, -1},
		cols:   make([]int, 0, 2),
		rows:   make([]int, 0, 3),
	}
	tb.newIndex()
	tb.mark(0, 0)
	tb.mark(0, 1)
	tb.mark(1, 0)
	tb.pivot(0, 0, tb.nonzeroRows(0))
	if v := tb.at(1, 0); v != 0 || math.Signbit(v) {
		t.Fatalf("leaving variable's cell in row 1 = %v (signbit %v), want +0", v, math.Signbit(v))
	}
	if tb.varOf[0] != 1 || tb.basis[0] != 0 || tb.slotOf[0] != -1 || tb.slotOf[1] != 0 {
		t.Fatalf("after pivot: varOf %v basis %v slotOf %v", tb.varOf, tb.basis, tb.slotOf)
	}
}

// TestPurgePicksLowestVariable pins purgeArtificials to the lowest
// usable variable index, as the full tableau's scan of its columns in
// index order chose, when the slots hold the variables out of order:
// slot 0 holds variable 2 and slot 2 variable 1, both usable, so
// variable 1 must replace the basic artificial (variable 3).
func TestPurgePicksLowestVariable(t *testing.T) {
	tb := &tableau{
		m:      1,
		n:      4,
		w:      3,
		a:      []float64{1, 0, 2, 0, 0, 0, 0, 0},
		basis:  []int{3},
		varOf:  []int{2, 0, 1},
		slotOf: []int{1, 2, 0, -1},
		artLo:  3,
		cols:   make([]int, 0, 4),
		rows:   make([]int, 0, 2),
	}
	tb.newIndex()
	tb.mark(0, 0)
	tb.mark(0, 2)
	tb.purgeArtificials()
	if tb.basis[0] != 1 || tb.varOf[2] != 3 || tb.slotOf[1] != -1 || tb.slotOf[3] != 2 {
		t.Fatalf("after purge: basis %v varOf %v slotOf %v, want variable 1 basic and the artificial in its slot 2",
			tb.basis, tb.varOf, tb.slotOf)
	}
}

// pricingTableau is a one-row tableau whose four slots hold variables
// 2, 0, 3 and 1, variable 3 artificial, with the given reduced costs.
func pricingTableau(costs ...float64) *tableau {
	return &tableau{
		m:      1,
		n:      5,
		w:      4,
		a:      append(make([]float64, 5), append(costs, 0)...),
		basis:  []int{4},
		varOf:  []int{2, 0, 3, 1},
		slotOf: []int{1, 3, 0, 2, -1},
		artLo:  3,
	}
}

// TestDantzigPicksLowestVariable pins Dantzig pricing's tie-break to
// the lowest variable index, as the full tableau's scan of its columns
// in index order chose, when the slots hold the variables out of
// order; and keeps artificials out of phase 2 and a reduced cost of
// exactly -epsReduced out of both phases.
func TestDantzigPicksLowestVariable(t *testing.T) {
	tb := pricingTableau(-2, 0, -5, -2)
	if s := tb.dantzigEnter(tb.n); s != 2 {
		t.Errorf("phase 1: slot %d entered, want slot 2 (variable 3, reduced cost -5)", s)
	}
	if s := tb.dantzigEnter(tb.artLo); s != 3 {
		t.Errorf("phase 2: slot %d entered, want slot 3 (variable 1, tied at -2 with variable 2 in slot 0)", s)
	}
	if s := pricingTableau(-epsReduced, 1, 0, 0).dantzigEnter(5); s != -1 {
		t.Errorf("slot %d entered on a reduced cost of exactly -epsReduced, want none", s)
	}
}

// TestBlandPicksLowestVariable pins Bland's rule to the lowest
// variable index with a negative reduced cost, whatever its slot and
// however small its reduced cost.
func TestBlandPicksLowestVariable(t *testing.T) {
	tb := pricingTableau(-5, 1, -7, -1)
	if s := tb.blandEnter(tb.artLo); s != 3 {
		t.Errorf("phase 2: slot %d entered, want slot 3 (variable 1)", s)
	}
	if s := tb.blandEnter(tb.n); s != 3 {
		t.Errorf("phase 1: slot %d entered, want slot 3 (variable 1)", s)
	}
	if s := pricingTableau(1, 1, -7, 0).blandEnter(3); s != -1 {
		t.Errorf("phase 2: slot %d entered with only an artificial priced negative, want none", s)
	}
}
