package lp

import (
	"math"
	"math/bits"
	"testing"
)

// fullRowPivot is the dense engine's original elimination, kept here
// as the oracle for pivot: it scales every column of the pivot row and
// eliminates every column of every row whose pivot-column entry is
// nonzero.
func fullRowPivot(t *tableau, r, c int) {
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

// decodeTableau derives a small, mostly zero tableau from fuzz bytes:
// 1-6 constraint rows plus the cost row, 1-8 columns plus the rhs,
// with small integers, thirds and sevenths, and zeros of both signs.
// Its nonzero index marks every nonzero cell, as build does, plus the
// zero cells the bytes pick: stale bits the index allows. Some inputs
// spread the rows and columns stride apart, with all-zero rows and
// columns between them, so the index spans more than one word; the
// tableau's structural column j is then column j*stride.
func decodeTableau(next func() int) (t *tableau, stride int) {
	shape := next()
	m, n := 1+shape%6, 1+next()%8
	stride = 1
	if shape/6%2 == 1 {
		stride = 13
	}
	pm, pn := (m-1)*stride+1, (n-1)*stride+1
	t = &tableau{
		m:     pm,
		n:     pn,
		a:     make([]float64, (pm+1)*(pn+1)),
		basis: make([]int, pm),
		cols:  make([]int, 0, pn+1),
		rows:  make([]int, 0, pm+1),
	}
	t.newIndex()
	for i := 0; i <= m; i++ {
		for j := 0; j <= n; j++ {
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
			pi, pj := min(i*stride, pm), min(j*stride, pn)
			t.set(pi, pj, x)
			if x != 0 || v&64 != 0 {
				t.mark(pi, pj)
			}
		}
	}
	for i := range t.basis {
		t.basis[i] = -1 - i
	}
	return t, stride
}

// indexed reports whether cell (i, j)'s row and column bits are set.
func (t *tableau) indexed(i, j int) bool {
	return t.rowBits(i)[j>>6]&(1<<(j&63)) != 0 && t.colBits(j)[i>>6]&(1<<(i&63)) != 0
}

// FuzzPivotMatchesFullRow checks the zero-skipping elimination against
// the full-row loop it replaced: the same pivots on the same tableau
// must leave every cell equal (±0 compare equal) and the same basis.
// Pivot elements of either sign are chosen, as purgeArtificials may
// pick a negative one, and the rows handed to pivot are built both
// ways production builds them: by nonzeroRows, and as the ratio test
// does, from the pivot column's index with the cost row appended
// unconditionally. After every pivot the nonzero index must still
// cover every nonzero cell, and the pivot column's index must be
// exactly the pivot row.
func FuzzPivotMatchesFullRow(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 3, 4, 12, 0, 7, 5, 20, 0, 0, 6, 44, 4, 0, 13, 0, 1, 4, 0, 1, 2, 1, 0})
	f.Add([]byte{5, 7, 4, 0, 0, 12, 0, 7, 15, 0, 0, 4, 0, 0, 20, 0, 0, 0, 36, 0, 4, 5, 0,
		0, 13, 0, 0, 28, 0, 0, 4, 0, 7, 12, 0, 0, 0, 5, 0, 0, 44, 0, 0, 0, 6, 0, 0, 0, 4,
		0, 0, 3, 9, 1, 4, 2, 2, 3, 5, 0, 1, 1, 7, 6, 3})
	f.Add([]byte{3, 2, 60, 61, 62, 63, 68, 69, 70, 71, 76, 77, 78, 79, 36, 37, 38, 39, 3, 0, 1, 1, 0, 2, 0})
	// The third seed again, spread stride apart: its index spans two
	// words.
	f.Add([]byte{11, 7, 4, 0, 0, 12, 0, 7, 15, 0, 0, 4, 0, 0, 20, 0, 0, 0, 36, 0, 4, 5, 0,
		0, 13, 0, 0, 28, 0, 0, 4, 0, 7, 12, 0, 0, 0, 5, 0, 0, 44, 0, 0, 0, 6, 0, 0, 0, 4,
		0, 0, 3, 9, 1, 4, 2, 2, 3, 5, 0, 1, 1, 7, 6, 3})
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
		want := *got
		want.a = append([]float64(nil), got.a...)
		want.basis = append([]int(nil), got.basis...)
		pivots := 1 + next()%8
		for k := 0; k < pivots; k++ {
			c := next() % ((got.n-1)/stride + 1) * stride
			var usable []int
			for i := 0; i < got.m; i++ {
				if v := got.at(i, c); v > epsPivot || v < -epsPivot {
					usable = append(usable, i)
				}
			}
			if len(usable) == 0 {
				continue
			}
			r := usable[next()%len(usable)]
			var rows []int
			if next()%2 == 0 {
				rows = got.nonzeroRows(c)
			} else {
				rows = got.rows[:0]
				col := got.colBits(c)
				for w, word := range col {
					for ; word != 0; word &= word - 1 {
						i := w<<6 | bits.TrailingZeros64(word)
						if i == got.m {
							break
						}
						if got.at(i, c) == 0 {
							col[w] &^= word & -word
							continue
						}
						rows = append(rows, i)
					}
				}
				rows = append(rows, got.m)
			}
			got.pivot(r, c, rows)
			fullRowPivot(&want, r, c)
			for j, v := range got.a {
				if v != want.a[j] {
					t.Fatalf("pivot %d on (%d,%d): cell (%d,%d) = %v, full-row loop gives %v",
						k, r, c, j/(got.n+1), j%(got.n+1), v, want.a[j])
				}
			}
			for i, b := range got.basis {
				if b != want.basis[i] {
					t.Fatalf("pivot %d on (%d,%d): basis[%d] = %d, full-row loop gives %d", k, r, c, i, b, want.basis[i])
				}
			}
			for j, v := range got.a {
				if i, jj := j/(got.n+1), j%(got.n+1); v != 0 && !got.indexed(i, jj) {
					t.Fatalf("pivot %d on (%d,%d): nonzero cell (%d,%d) = %v is missing from the index", k, r, c, i, jj, v)
				}
			}
			for i := 0; i <= got.m; i++ {
				if inCol := got.colBits(c)[i>>6]&(1<<(i&63)) != 0; inCol != (i == r) {
					t.Fatalf("pivot %d on (%d,%d): column %d's index has row %d = %v, want only row %d", k, r, c, c, i, inCol, r)
				}
			}
		}
	})
}
