package linalg

import (
	"fmt"
	"math"
	"math/rand"
)

// TopKEig computes the k largest-magnitude eigenpairs of the symmetric
// matrix a by subspace (block power) iteration with Rayleigh-Ritz
// extraction. The paper (§III-B) notes that for large d, sketching-style
// methods replace the full O(d³) eigendecomposition; this is that path:
// each iteration costs O(d²·k) and a handful of iterations suffice when
// the spectrum decays — exactly the data regime VAQ targets.
func TopKEig(a *Dense, k, iters int, seed int64) (*EigResult, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: TopKEig needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	d := a.Rows
	if k < 1 || k > d {
		return nil, fmt.Errorf("linalg: TopKEig k=%d out of range [1,%d]", k, d)
	}
	if iters <= 0 {
		iters = 30
	}
	rng := rand.New(rand.NewSource(seed))
	// Random start block, orthonormalized.
	q := NewDense(d, k)
	for i := range q.Data {
		q.Data[i] = rng.NormFloat64()
	}
	orthonormalizeColumns(q)
	for it := 0; it < iters; it++ {
		aq, err := a.Mul(q)
		if err != nil {
			return nil, err
		}
		q = aq
		orthonormalizeColumns(q)
	}
	// Rayleigh-Ritz: B = Qᵀ A Q, eigendecompose, rotate.
	aq, err := a.Mul(q)
	if err != nil {
		return nil, err
	}
	b, err := q.T().Mul(aq)
	if err != nil {
		return nil, err
	}
	small, err := SymEig(b, EigAuto)
	if err != nil {
		return nil, err
	}
	vecs, err := q.Mul(small.Vectors)
	if err != nil {
		return nil, err
	}
	return &EigResult{Values: small.Values, Vectors: vecs}, nil
}

// orthonormalizeColumns runs modified Gram-Schmidt on the columns of q in
// place. Columns that collapse numerically are replaced by fresh canonical
// directions orthogonalized against the previous ones.
func orthonormalizeColumns(q *Dense) {
	d, k := q.Rows, q.Cols
	for j := 0; j < k; j++ {
		for prev := 0; prev < j; prev++ {
			var dot float64
			for i := 0; i < d; i++ {
				dot += float64(q.At(i, j) * q.At(i, prev))
			}
			for i := 0; i < d; i++ {
				q.Set(i, j, q.At(i, j)-float64(dot*q.At(i, prev)))
			}
		}
		var norm float64
		for i := 0; i < d; i++ {
			norm += float64(q.At(i, j) * q.At(i, j))
		}
		norm = math.Sqrt(norm)
		if norm < 1e-12 {
			fillOrthonormalColumn(q, j)
			continue
		}
		inv := 1 / norm
		for i := 0; i < d; i++ {
			q.Set(i, j, q.At(i, j)*inv)
		}
	}
}
