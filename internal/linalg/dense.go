// Package linalg implements the dense float64 linear algebra this project
// needs for training: covariance matrices, symmetric eigendecomposition
// (two algorithms: cyclic Jacobi, and Householder tridiagonalization with
// implicit-shift QL), and singular value decomposition built on top of the
// symmetric solver. It is written from scratch on the standard library,
// trades peak speed for robustness, and is property-tested against the
// defining identities (A·v = λ·v, Vᵀ·V = I, A = U·Σ·Vᵀ).
package linalg

import (
	"fmt"
	"math"

	"vaq/internal/vec"
)

// Dense is a row-major n x m float64 matrix.
type Dense struct {
	Rows int
	Cols int
	Data []float64
}

// NewDense allocates a zeroed rows x cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// DenseFromRows copies the given rows into a new matrix.
func DenseFromRows(rows [][]float64) (*Dense, error) {
	if len(rows) == 0 {
		return &Dense{}, nil
	}
	d := len(rows[0])
	m := NewDense(len(rows), d)
	for i, r := range rows {
		if len(r) != d {
			return nil, fmt.Errorf("linalg: row %d has length %d, want %d", i, len(r), d)
		}
		copy(m.Row(i), r)
	}
	return m, nil
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols : (i+1)*m.Cols] }

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		r := m.Row(i)
		for j, v := range r {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// Mul returns m * b.
func (m *Dense) Mul(b *Dense) (*Dense, error) {
	if m.Cols != b.Rows {
		return nil, fmt.Errorf("linalg: Mul shape mismatch %dx%d * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols)
	}
	out := NewDense(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		ri := m.Row(i)
		ro := out.Row(i)
		for k, aik := range ri {
			if aik == 0 {
				continue
			}
			bk := b.Row(k)
			for j, bkj := range bk {
				ro[j] += float64(aik * bkj)
			}
		}
	}
	return out, nil
}

// MulVec returns m * x as a new vector.
func (m *Dense) MulVec(x []float64) ([]float64, error) {
	if m.Cols != len(x) {
		return nil, fmt.Errorf("linalg: MulVec shape mismatch %dx%d * %d", m.Rows, m.Cols, len(x))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		r := m.Row(i)
		var s float64
		for j, v := range r {
			s += float64(v * x[j])
		}
		out[i] = s
	}
	return out, nil
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Col extracts column j as a new slice.
func (m *Dense) Col(j int) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

// MaxAbsDiff returns the largest absolute elementwise difference between two
// same-shaped matrices; useful in tests.
func MaxAbsDiff(a, b *Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return math.Inf(1)
	}
	var m float64
	for i, v := range a.Data {
		d := math.Abs(v - b.Data[i])
		if d > m {
			m = d
		}
	}
	return m
}

// FromFloat32 converts a vec.Matrix into a Dense copy.
func FromFloat32(m *vec.Matrix) *Dense {
	out := NewDense(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = float64(v)
	}
	return out
}

// ToFloat32 converts a Dense into a vec.Matrix copy.
func (m *Dense) ToFloat32() *vec.Matrix {
	out := vec.NewMatrix(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = float32(v)
	}
	return out
}

// Covariance computes the d x d covariance matrix of the n x d float32 data
// matrix x (population normalization, matching the paper's Equation 4).
// If center is true the per-column mean is subtracted first; the paper's
// Algorithm 1 uses the uncentered second-moment matrix XᵀX on z-normalized
// data, so callers choose.
func Covariance(x *vec.Matrix, center bool) *Dense {
	n, d := x.Rows, x.Cols
	cov := NewDense(d, d)
	if n == 0 || d == 0 {
		return cov
	}
	means := make([]float64, d)
	if center {
		means = vec.ColumnMeans(x)
	}
	row := make([]float64, d)
	for i := 0; i < n; i++ {
		r := x.Row(i)
		for j := 0; j < d; j++ {
			row[j] = float64(r[j]) - means[j]
		}
		for a := 0; a < d; a++ {
			va := row[a]
			if va == 0 {
				continue
			}
			ca := cov.Row(a)
			for b := a; b < d; b++ {
				ca[b] += float64(va * row[b])
			}
		}
	}
	inv := 1 / float64(n)
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			v := cov.At(a, b) * inv
			cov.Set(a, b, v)
			cov.Set(b, a, v)
		}
	}
	return cov
}
