package lp

import (
	"math"
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
func decodeTableau(next func() int) *tableau {
	m, n := 1+next()%6, 1+next()%8
	t := &tableau{
		m:     m,
		n:     n,
		a:     make([]float64, (m+1)*(n+1)),
		basis: make([]int, m),
		cols:  make([]int, 0, n+1),
		rows:  make([]int, 0, m+1),
	}
	for k := range t.a {
		v := next()
		small := float64((v>>3)%9 - 4)
		switch v % 8 {
		case 4:
			t.a[k] = small
		case 5:
			t.a[k] = small / 3
		case 6:
			t.a[k] = small / 7
		case 7:
			t.a[k] = math.Copysign(0, small-0.5) // -0 or +0
		}
	}
	for i := range t.basis {
		t.basis[i] = -1 - i
	}
	return t
}

// FuzzPivotMatchesFullRow checks the zero-skipping elimination against
// the full-row loop it replaced: the same pivots on the same tableau
// must leave every cell equal (±0 compare equal) and the same basis.
// Pivot elements of either sign are chosen, as purgeArtificials may
// pick a negative one, and the rows handed to pivot are built both
// ways production builds them: by nonzeroRows, and as the ratio test
// does, with the cost row appended unconditionally.
func FuzzPivotMatchesFullRow(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 3, 4, 12, 0, 7, 5, 20, 0, 0, 6, 44, 4, 0, 13, 0, 1, 4, 0, 1, 2, 1, 0})
	f.Add([]byte{5, 7, 4, 0, 0, 12, 0, 7, 15, 0, 0, 4, 0, 0, 20, 0, 0, 0, 36, 0, 4, 5, 0,
		0, 13, 0, 0, 28, 0, 0, 4, 0, 7, 12, 0, 0, 0, 5, 0, 0, 44, 0, 0, 0, 6, 0, 0, 0, 4,
		0, 0, 3, 9, 1, 4, 2, 2, 3, 5, 0, 1, 1, 7, 6, 3})
	f.Add([]byte{3, 2, 60, 61, 62, 63, 68, 69, 70, 71, 76, 77, 78, 79, 36, 37, 38, 39, 3, 0, 1, 1, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		got := decodeTableau(next)
		want := *got
		want.a = append([]float64(nil), got.a...)
		want.basis = append([]int(nil), got.basis...)
		pivots := 1 + next()%8
		for k := 0; k < pivots; k++ {
			c := next() % got.n
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
				for i := 0; i < got.m; i++ {
					if got.at(i, c) != 0 {
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
		}
	})
}
