// Package vec provides the flat float32 matrix representation and the
// distance kernels shared by every quantizer and index in this repository.
//
// Vectors live in row-major order inside a single backing slice so that
// scans walk memory sequentially. Training-time linear algebra happens in
// float64 (package linalg); everything on the query path stays in float32,
// mirroring how production ANN libraries lay out data.
package vec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Matrix is an n x d row-major matrix of float32 values.
// The zero value is an empty matrix.
type Matrix struct {
	Rows int
	Cols int
	Data []float32
}

// NewMatrix allocates an n x d matrix of zeros.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("vec: negative matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromRows builds a matrix by copying the given rows. All rows must share
// the same length.
func FromRows(rows [][]float32) (*Matrix, error) {
	if len(rows) == 0 {
		return &Matrix{}, nil
	}
	d := len(rows[0])
	m := NewMatrix(len(rows), d)
	for i, r := range rows {
		if len(r) != d {
			return nil, fmt.Errorf("vec: row %d has length %d, want %d", i, len(r), d)
		}
		copy(m.Row(i), r)
	}
	return m, nil
}

// ErrNonFinite reports a NaN or infinite value in vectors handed to a
// build, an Add or a search. The write path's ordered dictionary search is
// undefined on NaN, and a NaN query has no nearest neighbors, so such input
// is refused before anything is encoded or scanned.
var ErrNonFinite = errors.New("non-finite value")

// CheckFinite returns an error wrapping ErrNonFinite, naming the first
// offending row and column, if m holds a NaN or an infinity.
func CheckFinite(m *Matrix) error {
	for i, v := range m.Data {
		if v-v != 0 { // NaN and ±Inf are the only values with v-v != 0
			return fmt.Errorf("%w %v at row %d, column %d", ErrNonFinite, v, i/m.Cols, i%m.Cols)
		}
	}
	return nil
}

// CheckFiniteVec is CheckFinite for one vector (a query), naming the first
// offending component.
func CheckFiniteVec(v []float32) error {
	for j, x := range v {
		if x-x != 0 {
			return fmt.Errorf("%w %v at component %d", ErrNonFinite, x, j)
		}
	}
	return nil
}

// Row returns the i-th row as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols : (i+1)*m.Cols]
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// SliceRows returns a view of rows [lo, hi). The view shares storage.
func (m *Matrix) SliceRows(lo, hi int) *Matrix {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("vec: SliceRows[%d:%d] out of range for %d rows", lo, hi, m.Rows))
	}
	return &Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// SelectRowsCopy returns a new matrix containing copies of the given rows
// in order.
func (m *Matrix) SelectRowsCopy(rows []int) *Matrix {
	out := NewMatrix(len(rows), m.Cols)
	for i, r := range rows {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// SelectColumns returns a new matrix containing the given columns in order.
func (m *Matrix) SelectColumns(cols []int) *Matrix {
	out := NewMatrix(m.Rows, len(cols))
	for i := 0; i < m.Rows; i++ {
		src := m.Row(i)
		dst := out.Row(i)
		for j, c := range cols {
			dst[j] = src[c]
		}
	}
	return out
}

// SelectColumnsRange returns a new matrix containing columns [lo, hi).
func (m *Matrix) SelectColumnsRange(lo, hi int) *Matrix {
	if lo < 0 || hi > m.Cols || lo > hi {
		panic(fmt.Sprintf("vec: SelectColumnsRange[%d:%d] out of range for %d cols", lo, hi, m.Cols))
	}
	out := NewMatrix(m.Rows, hi-lo)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i)[lo:hi])
	}
	return out
}

// PermuteColumns returns a new matrix whose column j is the perm[j]-th
// column of m. perm must be a permutation of [0, Cols).
func (m *Matrix) PermuteColumns(perm []int) (*Matrix, error) {
	if len(perm) != m.Cols {
		return nil, fmt.Errorf("vec: permutation length %d != %d columns", len(perm), m.Cols)
	}
	seen := make([]bool, m.Cols)
	for _, p := range perm {
		if p < 0 || p >= m.Cols || seen[p] {
			return nil, fmt.Errorf("vec: invalid permutation entry %d", p)
		}
		seen[p] = true
	}
	return m.SelectColumns(perm), nil
}

// MulTransposed computes m * bT' where bT is given row-major as (k x d):
// the result is (n x k) with result[i][j] = <m.Row(i), bT.Row(j)>.
func (m *Matrix) MulTransposed(bT *Matrix) (*Matrix, error) {
	if m.Cols != bT.Cols {
		return nil, fmt.Errorf("vec: dimension mismatch %d vs %d", m.Cols, bT.Cols)
	}
	out := NewMatrix(m.Rows, bT.Rows)
	for i := 0; i < m.Rows; i++ {
		ri := m.Row(i)
		ro := out.Row(i)
		for j := 0; j < bT.Rows; j++ {
			ro[j] = Dot(ri, bT.Row(j))
		}
	}
	return out, nil
}

// Equal reports whether two matrices have identical shape and contents.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		if v != o.Data[i] {
			return false
		}
	}
	return true
}

var magicMatrix = [4]byte{'V', 'A', 'Q', '1'}

// WriteTo serializes the matrix in a compact little-endian binary format.
func (m *Matrix) WriteTo(w io.Writer) (int64, error) {
	var hdr [20]byte
	copy(hdr[:4], magicMatrix[:])
	binary.LittleEndian.PutUint64(hdr[4:], uint64(m.Rows))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(m.Cols))
	n, err := w.Write(hdr[:])
	total := int64(n)
	if err != nil {
		return total, err
	}
	buf := make([]byte, 4*8192)
	for off := 0; off < len(m.Data); {
		chunk := len(m.Data) - off
		if chunk > 8192 {
			chunk = 8192
		}
		for i := 0; i < chunk; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(m.Data[off+i]))
		}
		n, err := w.Write(buf[:4*chunk])
		total += int64(n)
		if err != nil {
			return total, err
		}
		off += chunk
	}
	return total, nil
}

// ReadMatrix deserializes a matrix written by WriteTo.
func ReadMatrix(r io.Reader) (*Matrix, error) {
	var hdr [20]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("vec: reading matrix header: %w", err)
	}
	if [4]byte(hdr[:4]) != magicMatrix {
		return nil, errors.New("vec: bad matrix magic")
	}
	rows := int(binary.LittleEndian.Uint64(hdr[4:]))
	cols := int(binary.LittleEndian.Uint64(hdr[12:]))
	if rows < 0 || cols < 0 || (cols != 0 && rows > (1<<40)/cols) {
		return nil, fmt.Errorf("vec: implausible matrix shape %dx%d", rows, cols)
	}
	m := NewMatrix(rows, cols)
	buf := make([]byte, 4*8192)
	for off := 0; off < len(m.Data); {
		chunk := len(m.Data) - off
		if chunk > 8192 {
			chunk = 8192
		}
		if _, err := io.ReadFull(r, buf[:4*chunk]); err != nil {
			return nil, fmt.Errorf("vec: reading matrix body: %w", err)
		}
		for i := 0; i < chunk; i++ {
			m.Data[off+i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		off += chunk
	}
	return m, nil
}
