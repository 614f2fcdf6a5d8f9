package quantizer

import (
	"fmt"

	"vaq/internal/kmeans"
	"vaq/internal/vec"
)

// VQ is plain vector quantization (paper §II-C): a single dictionary over
// all dimensions. It is only practical for tiny budgets and serves as the
// conceptual baseline PQ generalizes.
type VQ struct {
	centroids *vec.Matrix
	assign    []uint16
	n         int
}

// VQConfig configures TrainVQ.
type VQConfig struct {
	Bits  int // dictionary size = 2^Bits (<= 16)
	Train TrainConfig
}

// TrainVQ learns a single dictionary on train and encodes data.
func TrainVQ(train, data *vec.Matrix, cfg VQConfig) (*VQ, error) {
	if cfg.Bits < 1 || cfg.Bits > 16 {
		return nil, fmt.Errorf("quantizer: VQ bits=%d out of range [1,16]", cfg.Bits)
	}
	if train.Cols != data.Cols {
		return nil, fmt.Errorf("quantizer: train dim %d != data dim %d", train.Cols, data.Cols)
	}
	res, err := kmeans.Train(train, kmeans.Config{
		K:        1 << cfg.Bits,
		Seed:     cfg.Train.Seed,
		MaxIter:  cfg.Train.MaxIter,
		Parallel: cfg.Train.Parallel,
	})
	if err != nil {
		return nil, err
	}
	assign := make([]uint16, data.Rows)
	for i := range assign {
		c, _ := kmeans.Nearest(res.Centroids, data.Row(i))
		assign[i] = uint16(c)
	}
	return &VQ{centroids: res.Centroids, assign: assign, n: data.Rows}, nil
}

// Len reports the number of encoded vectors.
func (v *VQ) Len() int { return v.n }

// Search returns the approximate k nearest neighbors: each encoded vector
// is scored by the distance between the query and its codeword (ADC with a
// single subspace).
func (v *VQ) Search(q []float32, k int) ([]vec.Neighbor, error) {
	if len(q) != v.centroids.Cols {
		return nil, fmt.Errorf("quantizer: query dim %d, index dim %d", len(q), v.centroids.Cols)
	}
	lut := make([]float32, v.centroids.Rows)
	for c := range lut {
		lut[c] = vec.SquaredL2(q, v.centroids.Row(c))
	}
	tk := vec.NewTopK(k)
	for i, a := range v.assign {
		tk.Push(i, lut[a])
	}
	return tk.Results(), nil
}
