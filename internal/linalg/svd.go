package linalg

import (
	"math"
)

// SVDResult holds a thin singular value decomposition A = U diag(S) Vᵀ with
// singular values sorted descending. For an n x m input with r =
// min(n, m): U is n x r, S has length r, V is m x r.
type SVDResult struct {
	U *Dense
	S []float64
	V *Dense
}

// SVD computes a thin singular value decomposition via the symmetric
// eigendecomposition of the smaller Gram matrix. This is accurate to about
// sqrt(machine epsilon) for the smallest singular values, which is plenty
// for the rotation updates (OPQ, ITQ) that use it: those only need the
// orthogonal factors.
func SVD(a *Dense) (*SVDResult, error) {
	n, m := a.Rows, a.Cols
	if n == 0 || m == 0 {
		return &SVDResult{U: NewDense(n, 0), S: nil, V: NewDense(m, 0)}, nil
	}
	if n >= m {
		// Eigen of AᵀA (m x m): A = U S Vᵀ with V the eigenvectors.
		at := a.T()
		ata, err := at.Mul(a)
		if err != nil {
			return nil, err
		}
		eig, err := SymEig(ata, EigAuto)
		if err != nil {
			return nil, err
		}
		r := m
		s := make([]float64, r)
		for i := 0; i < r; i++ {
			v := eig.Values[i]
			if v < 0 {
				v = 0
			}
			s[i] = math.Sqrt(v)
		}
		v := eig.Vectors
		av, err := a.Mul(v)
		if err != nil {
			return nil, err
		}
		u := NewDense(n, r)
		for j := 0; j < r; j++ {
			if s[j] > 1e-12*s[0] && s[j] > 0 {
				inv := 1 / s[j]
				for i := 0; i < n; i++ {
					u.Set(i, j, av.At(i, j)*inv)
				}
			} else {
				// Null-space direction: synthesize a unit column
				// orthogonal to the previous ones so U stays
				// orthonormal enough for rotation updates.
				fillOrthonormalColumn(u, j)
			}
		}
		return &SVDResult{U: u, S: s, V: v}, nil
	}
	// n < m: decompose the transpose and swap factors.
	res, err := SVD(a.T())
	if err != nil {
		return nil, err
	}
	return &SVDResult{U: res.V, S: res.S, V: res.U}, nil
}

// fillOrthonormalColumn writes into column j of u a unit vector orthogonal
// to columns [0, j) using Gram-Schmidt over canonical basis candidates.
func fillOrthonormalColumn(u *Dense, j int) {
	n := u.Rows
	col := make([]float64, n)
	for try := 0; try < n; try++ {
		for i := range col {
			col[i] = 0
		}
		col[try] = 1
		for prev := 0; prev < j; prev++ {
			var dot float64
			for i := 0; i < n; i++ {
				dot += float64(col[i] * u.At(i, prev))
			}
			for i := 0; i < n; i++ {
				col[i] -= float64(dot * u.At(i, prev))
			}
		}
		var norm float64
		for _, v := range col {
			norm += float64(v * v)
		}
		norm = math.Sqrt(norm)
		if norm > 1e-6 {
			for i := 0; i < n; i++ {
				u.Set(i, j, col[i]/norm)
			}
			return
		}
	}
	// Degenerate (should not happen for j < n); leave zeros.
}

// OrthoProcrustes returns the orthogonal matrix R minimizing ||A - B·R||_F
// given the cross-covariance M = BᵀA, i.e. R = U·Vᵀ... precisely: with
// SVD M = U S Vᵀ, the minimizer is R = U Vᵀ. Used by OPQ and ITQ updates.
func OrthoProcrustes(m *Dense) (*Dense, error) {
	svd, err := SVD(m)
	if err != nil {
		return nil, err
	}
	vt := svd.V.T()
	return svd.U.Mul(vt)
}
