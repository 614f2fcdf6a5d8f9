// Package rvq implements Residual Vector Quantization, the simplest member
// of the additive-quantization family (AQ/CQ in the paper's Table I and
// §II-C): a vector is represented as the SUM of one codeword per stage,
// each stage quantizing the residual left by the previous stages. Additive
// families improve recall over product quantization at the same budget but
// pay encoding and query-time overheads — exactly the trade-off Table I
// records ("Recall/Accuracy Improvement: yes; runtime/encoding overheads:
// yes"), which is why the paper positions VAQ against OPQ instead.
//
// The ADC trick for additive codes: with x̂ = Σ_s c_s,
//
//	||q - x̂||² = ||q||² - 2·Σ_s ⟨q, c_s⟩ + ||x̂||²,
//
// so queries precompute ⟨q, c⟩ tables per stage and each database vector
// stores its reconstruction norm — one extra float per vector, the storage
// overhead Table I notes.
package rvq

import (
	"fmt"

	"vaq/internal/kmeans"
	"vaq/internal/vec"
)

// Config controls Build.
type Config struct {
	// Stages is the number of additive codebooks M.
	Stages int
	// BitsPerStage is each codebook's size exponent (default 8).
	BitsPerStage int
	// Train seeds and bounds the k-means runs.
	Seed    int64
	MaxIter int
}

// Index is a built RVQ index.
type Index struct {
	books  []*vec.Matrix // Stages x (2^bits x d)
	codes  []uint16      // n x Stages
	norms  []float32     // ||x̂||² per vector
	stages int
	n      int
	dim    int
}

// Build trains the stage codebooks on train (sequential residual k-means)
// and encodes data greedily.
func Build(train, data *vec.Matrix, cfg Config) (*Index, error) {
	if cfg.Stages < 1 {
		return nil, fmt.Errorf("rvq: Stages must be >= 1, got %d", cfg.Stages)
	}
	if cfg.BitsPerStage == 0 {
		cfg.BitsPerStage = 8
	}
	if cfg.BitsPerStage < 1 || cfg.BitsPerStage > 12 {
		return nil, fmt.Errorf("rvq: BitsPerStage=%d out of range [1,12]", cfg.BitsPerStage)
	}
	if train.Cols != data.Cols {
		return nil, fmt.Errorf("rvq: train dim %d != data dim %d", train.Cols, data.Cols)
	}
	if train.Rows == 0 || data.Rows == 0 {
		return nil, fmt.Errorf("rvq: empty train or data")
	}
	d := train.Cols
	ix := &Index{stages: cfg.Stages, n: data.Rows, dim: d}
	// Train on residuals.
	resid := train.Clone()
	for s := 0; s < cfg.Stages; s++ {
		res, err := kmeans.Train(resid, kmeans.Config{
			K:        1 << cfg.BitsPerStage,
			Seed:     cfg.Seed + int64(s)*31,
			MaxIter:  cfg.MaxIter,
			Parallel: true,
		})
		if err != nil {
			return nil, fmt.Errorf("rvq: stage %d: %w", s, err)
		}
		ix.books = append(ix.books, res.Centroids)
		// Subtract assigned centroids to form the next stage's residuals.
		for i := 0; i < resid.Rows; i++ {
			row := resid.Row(i)
			c := res.Centroids.Row(res.Assign[i])
			for j := 0; j < d; j++ {
				row[j] -= c[j]
			}
		}
	}
	// Encode data greedily stage by stage.
	ix.codes = make([]uint16, data.Rows*cfg.Stages)
	ix.norms = make([]float32, data.Rows)
	buf := make([]float32, d)
	recon := make([]float32, d)
	for i := 0; i < data.Rows; i++ {
		copy(buf, data.Row(i))
		for j := range recon {
			recon[j] = 0
		}
		for s := 0; s < cfg.Stages; s++ {
			c, _ := kmeans.Nearest(ix.books[s], buf)
			ix.codes[i*cfg.Stages+s] = uint16(c)
			cr := ix.books[s].Row(c)
			for j := 0; j < d; j++ {
				buf[j] -= cr[j]
				recon[j] += cr[j]
			}
		}
		ix.norms[i] = vec.Dot(recon, recon)
	}
	return ix, nil
}

// Len reports the number of encoded vectors.
func (ix *Index) Len() int { return ix.n }

// Dim reports the expected query dimensionality.
func (ix *Index) Dim() int { return ix.dim }

// Decode reconstructs vector i's approximation into out.
func (ix *Index) Decode(i int, out []float32) {
	for j := range out {
		out[j] = 0
	}
	for s := 0; s < ix.stages; s++ {
		c := ix.books[s].Row(int(ix.codes[i*ix.stages+s]))
		for j := range out {
			out[j] += c[j]
		}
	}
}

// Search returns the approximate k nearest neighbors. Distances are exact
// squared Euclidean distances between q and each reconstruction.
func (ix *Index) Search(q []float32, k int) ([]vec.Neighbor, error) {
	if len(q) != ix.dim {
		return nil, fmt.Errorf("rvq: query dim %d, index dim %d", len(q), ix.dim)
	}
	if k < 1 {
		return nil, fmt.Errorf("rvq: k must be >= 1, got %d", k)
	}
	// Inner-product tables per stage.
	offsets := make([]int, ix.stages+1)
	total := 0
	for s := 0; s < ix.stages; s++ {
		offsets[s] = total
		total += ix.books[s].Rows
	}
	offsets[ix.stages] = total
	lut := make([]float32, total)
	for s := 0; s < ix.stages; s++ {
		book := ix.books[s]
		for c := 0; c < book.Rows; c++ {
			lut[offsets[s]+c] = vec.Dot(q, book.Row(c))
		}
	}
	qNorm := vec.Dot(q, q)
	tk := vec.NewTopK(k)
	for i := 0; i < ix.n; i++ {
		base := i * ix.stages
		var dot float32
		for s := 0; s < ix.stages; s++ {
			dot += lut[offsets[s]+int(ix.codes[base+s])]
		}
		tk.Push(i, qNorm-2*dot+ix.norms[i])
	}
	return tk.Results(), nil
}

// ReconstructionError reports the mean squared reconstruction error of the
// encoded dataset against data (which must be the matrix passed to Build).
func (ix *Index) ReconstructionError(data *vec.Matrix) float64 {
	buf := make([]float32, ix.dim)
	var total float64
	for i := 0; i < ix.n; i++ {
		ix.Decode(i, buf)
		total += float64(vec.SquaredL2(data.Row(i), buf))
	}
	return total / float64(ix.n)
}
