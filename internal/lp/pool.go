package lp

import "sync"

// workspace is the pooled scratch arena of one revised-simplex solve:
// every tableau vector, the CSR backing of the standard-form columns,
// and the per-representation factorization scratch live here, so a
// warm re-solve on the service hot path performs no vector allocation
// at all. Arrays grow monotonically and are reused across solves; the
// only state that escapes a solve (Solution vectors, the Basis, the
// dense inverse or LU factor carried for warm starts) is allocated
// outside the workspace.
type workspace struct {
	t revTableau

	// Tableau vectors (sized m or n, see buildSparse).
	b, ub, xB, rowSign        []float64
	y, w, rho, d, alpha, rvec []float64
	cpos, cost1, cost2        []float64
	probeU, probeZ            []float64
	basis                     []int
	inBasis, atUpper          []bool

	// Standard-form column backing: one CSR arena for the structural
	// columns plus a singleton arena for aux/artificial columns.
	cols           []sparseCol
	colIdx, auxIdx []int32
	colVal, auxVal []float64
	cnt, off       []int32

	// Basis representations. The structs persist across solves so
	// their internal scratch (dense Gauss-Jordan arena, LU elimination
	// queues and bump) is reused; arrays that escape into a Basis are
	// detached before the workspace is pooled.
	dense denseBasis
	lu    luBasis
}

var wsPool = sync.Pool{New: func() any { return new(workspace) }}

// release returns the solve's workspace to the pool. The tableau must
// not be touched afterwards: t aliases ws.t and every slice points
// into the pooled arena.
func (t *revTableau) release() {
	ws := t.ws
	if ws == nil {
		return
	}
	t.ws = nil
	wsPool.Put(ws)
}

// f64s returns *p resized to n, reallocating only on capacity growth.
// Contents are unspecified; callers fully initialize.
func f64s(p *[]float64, n int) []float64 {
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return *p
}

func i32s(p *[]int32, n int) []int32 {
	if cap(*p) < n {
		*p = make([]int32, n)
	}
	*p = (*p)[:n]
	return *p
}

func ints(p *[]int, n int) []int {
	if cap(*p) < n {
		*p = make([]int, n)
	}
	*p = (*p)[:n]
	return *p
}

func bools(p *[]bool, n int) []bool {
	if cap(*p) < n {
		*p = make([]bool, n)
	}
	*p = (*p)[:n]
	return *p
}

func zeroF(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

func zeroI32(s []int32) {
	for i := range s {
		s[i] = 0
	}
}
