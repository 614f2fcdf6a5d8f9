// Package pca implements principal component analysis on top of the
// linalg eigensolver. It corresponds to Algorithm 1 ("Measuring Variance of
// Dimensions", VarPCA) of the VAQ paper: eigendecompose the second-moment
// matrix XᵀX, sort eigenpairs by descending eigenvalue, and expose the
// normalized eigenvalue energy as the per-dimension importance measure
// (paper Equation 6).
package pca

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"vaq/internal/linalg"
	"vaq/internal/vec"
)

// Model is a fitted PCA: an orthonormal basis sorted by descending
// explained variance, plus the variance profile itself.
type Model struct {
	// Dim is the input dimensionality d.
	Dim int
	// Eigenvalues are sorted descending; negative values (possible only
	// through rounding) are clamped to zero.
	Eigenvalues []float64
	// Components is the d x d matrix whose COLUMNS are the eigenvectors,
	// ordered to match Eigenvalues. Projecting data is X * Components.
	Components *linalg.Dense
	// Centered records whether the model subtracted column means.
	Mean []float64 // nil when not centered
}

// Options configures Fit.
type Options struct {
	// Center subtracts per-column means before computing the covariance.
	// The paper operates on z-normalized series and uses the raw
	// second-moment matrix XᵀX (Algorithm 1), so the default is false.
	Center bool
	// Method selects the eigensolver (default EigAuto).
	Method linalg.EigMethod
}

// Fit computes a PCA model of x.
func Fit(x *vec.Matrix, opt Options) (*Model, error) {
	if x.Rows == 0 || x.Cols == 0 {
		return nil, errors.New("pca: empty input")
	}
	cov := linalg.Covariance(x, opt.Center)
	eig, err := linalg.SymEig(cov, opt.Method)
	if err != nil {
		return nil, fmt.Errorf("pca: %w", err)
	}
	vals := make([]float64, len(eig.Values))
	for i, v := range eig.Values {
		if v < 0 {
			v = 0
		}
		vals[i] = v
	}
	m := &Model{Dim: x.Cols, Eigenvalues: vals, Components: eig.Vectors}
	if opt.Center {
		m.Mean = vec.ColumnMeans(x)
	}
	return m, nil
}

// ExplainedVarianceRatio returns the normalized eigenvalue energy
// |λi| / Σj |λj| (paper Equation 6). The result sums to 1 unless all
// eigenvalues are zero, in which case a uniform profile is returned so that
// downstream bit allocation remains well defined.
func (m *Model) ExplainedVarianceRatio() []float64 {
	out := make([]float64, len(m.Eigenvalues))
	var total float64
	for _, v := range m.Eigenvalues {
		total += math.Abs(v)
	}
	if total == 0 {
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	for i, v := range m.Eigenvalues {
		out[i] = math.Abs(v) / total
	}
	return out
}

// Project maps x (n x d) onto the PCA basis, producing the principal
// component scores Z = X * V (n x d). If the model was centered, the mean
// is subtracted first. Rows are split across GOMAXPROCS.
func (m *Model) Project(x *vec.Matrix) (*vec.Matrix, error) {
	if x.Cols != m.Dim {
		return nil, fmt.Errorf("pca: project dimension %d, model has %d", x.Cols, m.Dim)
	}
	out := vec.NewMatrix(x.Rows, m.Dim)
	workers := runtime.GOMAXPROCS(0)
	if workers > x.Rows/projectRowsPerWorker {
		workers = x.Rows / projectRowsPerWorker
	}
	if workers <= 1 {
		m.projectRows(x, out, 0, x.Rows)
		return out, nil
	}
	var wg sync.WaitGroup
	chunk := (x.Rows + workers - 1) / workers
	for lo := 0; lo < x.Rows; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			m.projectRows(x, out, lo, hi)
		}(lo, min(lo+chunk, x.Rows))
	}
	wg.Wait()
	return out, nil
}

// projectRowsPerWorker is the fewest rows worth a goroutine of their own:
// a 128-d row projects in under 10 µs.
const projectRowsPerWorker = 32

func (m *Model) projectRows(x, out *vec.Matrix, lo, hi int) {
	acc := make([]float64, m.Dim)
	for i := lo; i < hi; i++ {
		m.projectInto(x.Row(i), out.Row(i), acc)
	}
}

// projectInto computes dst = (src - Mean) * Components with acc (length
// Dim) as scratch. It walks Components row by row — acc[j] += x[k]*V[k][j]
// with j innermost, so memory is read sequentially — while every output
// still receives its terms in ascending k, the order (and therefore the
// bits) of the column-walking dot product it replaces.
func (m *Model) projectInto(src, dst []float32, acc []float64) {
	clear(acc)
	d := m.Dim
	x := func(k int) float64 {
		if m.Mean != nil {
			return float64(src[k]) - m.Mean[k]
		}
		return float64(src[k])
	}
	v := m.Components.Data
	k := 0
	// Two rows of Components per pass halve the traffic on acc; each
	// acc[j] still takes its k term before its k+1 term.
	for ; k+2 <= d; k += 2 {
		x0, x1 := x(k), x(k+1)
		r0, r1 := v[k*d:][:len(acc)], v[(k+1)*d:][:len(acc)]
		for j := range acc {
			acc[j] = acc[j] + x0*r0[j] + x1*r1[j]
		}
	}
	for ; k < d; k++ {
		xk := x(k)
		for j, vkj := range v[k*d : (k+1)*d] {
			acc[j] += xk * vkj
		}
	}
	for j, s := range acc {
		dst[j] = float32(s)
	}
}

// ProjectVec maps a single vector onto the PCA basis.
func (m *Model) ProjectVec(x []float32) ([]float32, error) {
	return m.ProjectVecInto(x, nil, nil)
}

// ProjectVecInto is ProjectVec into caller-owned storage: dst and acc are
// reused when they have capacity for Dim values, so a per-query caller that
// keeps them allocates nothing. It returns dst resliced to Dim; acc is
// scratch whose contents are overwritten.
func (m *Model) ProjectVecInto(x, dst []float32, acc []float64) ([]float32, error) {
	if len(x) != m.Dim {
		return nil, fmt.Errorf("pca: project dimension %d, model has %d", len(x), m.Dim)
	}
	if cap(dst) < m.Dim {
		dst = make([]float32, m.Dim)
	}
	if cap(acc) < m.Dim {
		acc = make([]float64, m.Dim)
	}
	dst = dst[:m.Dim]
	m.projectInto(x, dst, acc[:m.Dim])
	return dst, nil
}

// PermuteComponents reorders the eigenpairs according to perm: the new j-th
// component is the old perm[j]-th. Used by VAQ's partial balancing step and
// by OPQ's eigenvalue-allocation permutation.
func (m *Model) PermuteComponents(perm []int) error {
	if len(perm) != m.Dim {
		return fmt.Errorf("pca: permutation length %d != dim %d", len(perm), m.Dim)
	}
	seen := make([]bool, m.Dim)
	for _, p := range perm {
		if p < 0 || p >= m.Dim || seen[p] {
			return fmt.Errorf("pca: invalid permutation entry %d", p)
		}
		seen[p] = true
	}
	vals := make([]float64, m.Dim)
	comp := linalg.NewDense(m.Dim, m.Dim)
	for j, p := range perm {
		vals[j] = m.Eigenvalues[p]
		for i := 0; i < m.Dim; i++ {
			comp.Set(i, j, m.Components.At(i, p))
		}
	}
	m.Eigenvalues = vals
	m.Components = comp
	return nil
}

// Clone returns a deep copy of the model.
func (m *Model) Clone() *Model {
	c := &Model{
		Dim:         m.Dim,
		Eigenvalues: append([]float64(nil), m.Eigenvalues...),
		Components:  m.Components.Clone(),
	}
	if m.Mean != nil {
		c.Mean = append([]float64(nil), m.Mean...)
	}
	return c
}
