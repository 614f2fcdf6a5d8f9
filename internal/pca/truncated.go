package pca

import (
	"errors"
	"fmt"

	"vaq/internal/linalg"
	"vaq/internal/vec"
)

// TruncatedModel is a rank-k PCA: the k leading eigenpairs only, computed
// with the subspace-iteration eigensolver so the cost stays O(d²·k)
// instead of O(d³). Used where only the top of the spectrum matters
// (ITQ's code length, exploratory spectra on very long series).
type TruncatedModel struct {
	Dim         int
	K           int
	Eigenvalues []float64     // k values, descending, clamped to >= 0
	Components  *linalg.Dense // d x k, columns are eigenvectors
	Mean        []float64     // nil when not centered
	// TotalVariance is the full trace of the covariance, so explained
	// ratios remain well defined despite truncation.
	TotalVariance float64
}

// FitTruncated computes the k leading principal components of x.
func FitTruncated(x *vec.Matrix, k int, opt Options) (*TruncatedModel, error) {
	if x.Rows == 0 || x.Cols == 0 {
		return nil, errors.New("pca: empty input")
	}
	if k < 1 || k > x.Cols {
		return nil, fmt.Errorf("pca: truncated k=%d out of range [1,%d]", k, x.Cols)
	}
	cov := linalg.Covariance(x, opt.Center)
	var trace float64
	for i := 0; i < cov.Rows; i++ {
		trace += cov.At(i, i)
	}
	eig, err := linalg.TopKEig(cov, k, 40, 1)
	if err != nil {
		return nil, fmt.Errorf("pca: %w", err)
	}
	vals := make([]float64, k)
	for i, v := range eig.Values {
		if v < 0 {
			v = 0
		}
		vals[i] = v
	}
	m := &TruncatedModel{
		Dim:           x.Cols,
		K:             k,
		Eigenvalues:   vals,
		Components:    eig.Vectors,
		TotalVariance: trace,
	}
	if opt.Center {
		m.Mean = vec.ColumnMeans(x)
	}
	return m, nil
}

// ExplainedVarianceRatio returns each retained component's share of the
// TOTAL variance (so the ratios sum to <= 1; the remainder lives in the
// truncated tail).
func (m *TruncatedModel) ExplainedVarianceRatio() []float64 {
	out := make([]float64, m.K)
	if m.TotalVariance <= 0 {
		return out
	}
	for i, v := range m.Eigenvalues {
		out[i] = v / m.TotalVariance
	}
	return out
}

// Project maps x (n x d) onto the k retained components, producing n x k
// scores.
func (m *TruncatedModel) Project(x *vec.Matrix) (*vec.Matrix, error) {
	if x.Cols != m.Dim {
		return nil, fmt.Errorf("pca: project dimension %d, model has %d", x.Cols, m.Dim)
	}
	out := vec.NewMatrix(x.Rows, m.K)
	row := make([]float64, m.Dim)
	for i := 0; i < x.Rows; i++ {
		src := x.Row(i)
		for j := 0; j < m.Dim; j++ {
			row[j] = float64(src[j])
			if m.Mean != nil {
				row[j] -= m.Mean[j]
			}
		}
		dst := out.Row(i)
		for j := 0; j < m.K; j++ {
			var s float64
			for t := 0; t < m.Dim; t++ {
				s += float64(row[t] * m.Components.At(t, j))
			}
			dst[j] = float32(s)
		}
	}
	return out, nil
}
