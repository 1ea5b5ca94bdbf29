package lp

import "math"

// basisRep abstracts the factorized representation of the simplex
// basis B (one column of the standard-form matrix per row). Two
// implementations exist: luBasis, the default — a sparse LU
// factorization with Markowitz ordering and Forrest–Tomlin column-eta
// updates, O(nnz) per solve — and denseBasis, the original explicit
// m×m inverse with product-form updates, kept as the reference
// implementation and the divergence-guard fallback.
//
// Vector index conventions: FTRAN input and BTRAN output are in row
// space (constraint-row indices); FTRAN output and BTRAN input are in
// basis-position space (position k holds the coefficient of the k-th
// basic column). The two spaces share the index range 0..m-1 and the
// tableau identifies position k with row k throughout.
type basisRep interface {
	// setIdentity installs the exact identity basis (the cold-start
	// state: slack/artificial unit columns) without a factorization.
	setIdentity(m int)
	// refactorize rebuilds the representation from the tableau's
	// current basis columns. False means numerically singular.
	refactorize(t *revTableau) bool
	// adoptWarm installs the factorized state carried by a warm Basis,
	// verifying it against the current columns. False means the caller
	// must refactorize.
	adoptWarm(t *revTableau, warm *Basis) bool
	// ftranCol computes w = B⁻¹ a for a sparse column a.
	ftranCol(col *sparseCol, w []float64)
	// ftranVec computes out = B⁻¹ in for a dense vector (in is not
	// modified; in and out must not alias).
	ftranVec(in, out []float64)
	// btran computes y = cᵀ B⁻¹ for a position-space vector c.
	btran(cpos, y []float64)
	// btranUnit returns row r of B⁻¹ (ρ = e_rᵀ B⁻¹), either as a view
	// into internal state or computed into rho.
	btranUnit(r int, rho []float64) []float64
	// update folds the pivot "column with FTRAN image w enters at
	// position r" into the representation. ok=false requests a
	// refactorization instead (reason is one of eta_limit, fill_in,
	// instability); the caller has already updated t.basis, so
	// refactorize sees the post-pivot basis.
	update(t *revTableau, r int, w []float64) (ok bool, reason string)
	// exportBasis moves the representation into bs for warm-start
	// carry; the representation must not be used afterwards.
	exportBasis(bs *Basis)
}

// denseBasis is the explicit-inverse representation: binv holds B⁻¹
// row-major and pivots apply the product-form update row by row. Work
// per pivot is O(m · nnz(pivot row)) and per FTRAN/BTRAN O(m²) — the
// reference implementation the sparse path is validated against.
type denseBasis struct {
	m      int
	binv   []float64 // m×m row-major; detached on exportBasis
	gj     []float64 // Gauss-Jordan arena, m×2m, pooled
	rowIdx []int32   // pivot-row nonzero positions, pooled
}

func (d *denseBasis) init(m int) {
	d.m = m
	if cap(d.binv) < m*m {
		d.binv = make([]float64, m*m)
	}
	d.binv = d.binv[:m*m]
}

func (d *denseBasis) setIdentity(m int) {
	d.init(m)
	zeroF(d.binv)
	for i := 0; i < m; i++ {
		d.binv[i*m+i] = 1
	}
}

// refactorize rebuilds binv = B⁻¹ by Gauss-Jordan elimination with
// partial pivoting on [B | I]. Returns false when the basis matrix is
// (numerically) singular.
func (d *denseBasis) refactorize(t *revTableau) bool {
	m := t.m
	d.init(m)
	if m == 0 {
		return true
	}
	a := f64s(&d.gj, m*2*m)
	zeroF(a)
	for col, b := range t.basis {
		c := &t.cols[b]
		for k, ri := range c.idx {
			a[int(ri)*2*m+col] = c.val[k]
		}
	}
	for i := 0; i < m; i++ {
		a[i*2*m+m+i] = 1
	}
	for col := 0; col < m; col++ {
		piv, pv := -1, 1e-10
		for i := col; i < m; i++ {
			if v := math.Abs(a[i*2*m+col]); v > pv {
				piv, pv = i, v
			}
		}
		if piv < 0 {
			return false
		}
		if piv != col {
			// A row interchange is an elementary operation on [B | I];
			// the basis order itself is untouched.
			pr, cr := a[piv*2*m:(piv+1)*2*m], a[col*2*m:(col+1)*2*m]
			for k := range pr {
				pr[k], cr[k] = cr[k], pr[k]
			}
		}
		cr := a[col*2*m : (col+1)*2*m]
		inv := 1 / cr[col]
		for k := range cr {
			cr[k] *= inv
		}
		cr[col] = 1
		for i := 0; i < m; i++ {
			if i == col {
				continue
			}
			ri := a[i*2*m : (i+1)*2*m]
			f := ri[col]
			if f == 0 {
				continue
			}
			for k := range ri {
				ri[k] -= f * cr[k]
			}
			ri[col] = 0
		}
	}
	for i := 0; i < m; i++ {
		copy(d.binv[i*m:(i+1)*m], a[i*2*m+m:(i+1)*2*m])
	}
	return true
}

// adoptWarm copies the cached inverse of the warm basis and verifies it
// against the actual columns (Binv*B ≈ I); any mismatch (changed
// coefficients, flipped row signs, a hand-built basis) returns false
// and the caller refactorizes from scratch. Copying keeps the shared
// Basis immutable.
func (d *denseBasis) adoptWarm(t *revTableau, warm *Basis) bool {
	m := t.m
	d.init(m)
	if len(warm.binv) != m*m || m == 0 {
		return false
	}
	copy(d.binv, warm.binv)
	return t.verifyFactor(d)
}

func (d *denseBasis) ftranCol(col *sparseCol, w []float64) {
	m := d.m
	for i := range w {
		w[i] = 0
	}
	for k, ri := range col.idx {
		v := col.val[k]
		if v == 0 {
			continue
		}
		c := int(ri)
		for i := 0; i < m; i++ {
			w[i] += d.binv[i*m+c] * v
		}
	}
}

func (d *denseBasis) ftranVec(in, out []float64) {
	m := d.m
	for i := 0; i < m; i++ {
		v := 0.0
		row := d.binv[i*m : (i+1)*m]
		for k, x := range in {
			v += row[k] * x
		}
		out[i] = v
	}
}

func (d *denseBasis) btran(cpos, y []float64) {
	m := d.m
	for i := range y {
		y[i] = 0
	}
	for k, cb := range cpos {
		if cb == 0 {
			continue
		}
		row := d.binv[k*m : (k+1)*m]
		for i := 0; i < m; i++ {
			y[i] += cb * row[i]
		}
	}
}

// btranUnit returns row r of the inverse directly — the dense
// representation's one structural advantage (the dual ratio test gets
// it for free).
func (d *denseBasis) btranUnit(r int, _ []float64) []float64 {
	return d.binv[r*d.m : (r+1)*d.m]
}

// update applies the product-form update: binv ← E⁻¹ binv where E is
// the identity with column r replaced by w. The pivot row of binv is
// sparse until fill-in accumulates; updating only its nonzero
// positions makes each pivot O(touched rows * nnz(row r)) instead of
// O(m²). The dense representation never requests a refactorization.
func (d *denseBasis) update(_ *revTableau, r int, w []float64) (bool, string) {
	m := d.m
	inv := 1 / w[r]
	rrow := d.binv[r*m : (r+1)*m]
	if cap(d.rowIdx) < m {
		d.rowIdx = make([]int32, 0, m)
	}
	idx := d.rowIdx[:0]
	for k, v := range rrow {
		if v != 0 {
			rrow[k] = v * inv
			idx = append(idx, int32(k))
		}
	}
	d.rowIdx = idx
	for i := 0; i < m; i++ {
		if i == r {
			continue
		}
		f := w[i] // rrow is already scaled by 1/w[r]
		if f == 0 {
			continue
		}
		irow := d.binv[i*m : (i+1)*m]
		for _, k := range idx {
			irow[k] -= f * rrow[k]
		}
	}
	return true, ""
}

// exportBasis moves ownership of the inverse into bs; the pooled
// workspace must not hand the same array to a later solve, so the
// local reference is dropped.
func (d *denseBasis) exportBasis(bs *Basis) {
	bs.binv = d.binv
	d.binv = nil
}

// verifyFactor checks B⁻¹B ≈ I through the representation with
// deterministic pseudo-random probe vectors: for each probe u it forms
// z = B*u (sparse, O(nnz)) and tests FTRAN(z) ≈ u. Any coefficient
// change, row-sign flip, or basis/factor mismatch perturbs z and fails
// the residual with overwhelming probability, at a cost far below both
// a refactorization and an explicit column-by-column check.
func (t *revTableau) verifyFactor(rep basisRep) bool {
	m := t.m
	u := f64s(&t.ws.probeU, m)
	z := f64s(&t.ws.probeZ, m)
	for probe := 0; probe < 2; probe++ {
		// splitmix64-style hash, scaled into [0.5, 1.5): well away from
		// zero so no basis column is masked.
		seed := uint64(probe)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
		for i := range u {
			x := uint64(i+1)*0x9e3779b97f4a7c15 + seed
			x ^= x >> 30
			x *= 0xbf58476d1ce4e5b9
			x ^= x >> 27
			u[i] = 0.5 + float64(x>>11)/(1<<53)
			z[i] = 0
		}
		zmax := 0.0
		for j, b := range t.basis {
			c := &t.cols[b]
			uj := u[j]
			for k, ri := range c.idx {
				z[ri] += uj * c.val[k]
			}
		}
		for _, v := range z {
			if a := math.Abs(v); a > zmax {
				zmax = a
			}
		}
		rep.ftranVec(z, t.w)
		tol := 1e-6 * (1 + zmax)
		for i := 0; i < m; i++ {
			if math.Abs(t.w[i]-u[i]) > tol {
				return false
			}
		}
	}
	return true
}
