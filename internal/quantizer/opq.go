package quantizer

import (
	"fmt"
	"math"
	"sort"

	"vaq/internal/linalg"
	"vaq/internal/pca"
	"vaq/internal/vec"
)

// OPQ is Optimized Product Quantization (Ge et al.; paper §II-C): it learns
// an orthogonal transform of the data that balances the informativeness of
// the subspaces, then applies plain PQ in the rotated space.
//
// This implementation provides the parametric solution (PCA + eigenvalue
// allocation, the variant the OPQ paper recommends for Gaussian-like data
// and the one whose permutation VAQ §III-C contrasts with) and an optional
// non-parametric refinement loop that alternates codebook training with an
// orthogonal Procrustes update of the rotation.
type OPQ struct {
	pcaModel *pca.Model
	rotation *linalg.Dense // extra non-parametric rotation (may be nil)
	cb       *Codebooks
	codes    *Codes
	n        int
	qbuf     []float32
}

// OPQConfig configures TrainOPQ.
type OPQConfig struct {
	M               int
	BitsPerSubspace int
	// NonParametricIters runs that many rotation-refinement sweeps after
	// the parametric initialization (0 = parametric only).
	NonParametricIters int
	Train              TrainConfig
}

// EigenvalueAllocation returns a permutation of the d PCA dimensions into m
// buckets of equal size that balances the PRODUCT of eigenvalues per bucket
// (the OPQ paper's criterion: minimize the maximum log-product gap).
// Dimensions are considered in descending eigenvalue order and each is
// assigned greedily to the non-full bucket with the smallest current
// log-product. The returned slice perm has the property that new dimension
// j is old dimension perm[j], with buckets laid out contiguously.
func EigenvalueAllocation(eigenvalues []float64, m int) ([]int, error) {
	d := len(eigenvalues)
	if m < 1 || d < m {
		return nil, fmt.Errorf("quantizer: cannot allocate %d dims into %d buckets", d, m)
	}
	// Bucket capacities mirror UniformSubspaces: base d/m, with the first
	// d%m buckets holding one extra dimension.
	type bucket struct {
		logProd float64
		cap     int
		dims    []int
	}
	buckets := make([]bucket, m)
	base, rem := d/m, d%m
	for b := range buckets {
		buckets[b].cap = base
		if b < rem {
			buckets[b].cap++
		}
	}
	// Eigenvalues are expected sorted descending already (pca.Fit output);
	// be safe and sort indices.
	idx := make([]int, d)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return eigenvalues[idx[a]] > eigenvalues[idx[b]] })
	for _, dim := range idx {
		best := -1
		for b := range buckets {
			if len(buckets[b].dims) >= buckets[b].cap {
				continue
			}
			if best == -1 || buckets[b].logProd < buckets[best].logProd {
				best = b
			}
		}
		ev := eigenvalues[dim]
		if ev < 1e-12 {
			ev = 1e-12 // avoid -Inf products for null directions
		}
		buckets[best].logProd += math.Log(ev)
		buckets[best].dims = append(buckets[best].dims, dim)
	}
	perm := make([]int, 0, d)
	for b := range buckets {
		perm = append(perm, buckets[b].dims...)
	}
	return perm, nil
}

// TrainOPQ fits the rotation on train and encodes data.
func TrainOPQ(train, data *vec.Matrix, cfg OPQConfig) (*OPQ, error) {
	if train.Cols != data.Cols {
		return nil, fmt.Errorf("quantizer: train dim %d != data dim %d", train.Cols, data.Cols)
	}
	model, err := pca.Fit(train, pca.Options{})
	if err != nil {
		return nil, err
	}
	perm, err := EigenvalueAllocation(model.Eigenvalues, cfg.M)
	if err != nil {
		return nil, err
	}
	if err := model.PermuteComponents(perm); err != nil {
		return nil, err
	}
	trainRot, err := model.Project(train)
	if err != nil {
		return nil, err
	}
	sub, err := UniformSubspaces(train.Cols, cfg.M)
	if err != nil {
		return nil, err
	}
	bits := make([]int, cfg.M)
	for i := range bits {
		bits[i] = cfg.BitsPerSubspace
	}
	cb, err := TrainCodebooks(trainRot, sub, bits, cfg.Train)
	if err != nil {
		return nil, err
	}
	var extraRot *linalg.Dense
	if cfg.NonParametricIters > 0 {
		extraRot, cb, err = refineRotation(trainRot, sub, bits, cfg)
		if err != nil {
			return nil, err
		}
	}
	o := &OPQ{pcaModel: model, rotation: extraRot, cb: cb, n: data.Rows,
		qbuf: make([]float32, train.Cols)}
	dataRot, err := o.transform(data)
	if err != nil {
		return nil, err
	}
	codes, err := cb.Encode(dataRot, true)
	if err != nil {
		return nil, err
	}
	o.codes = codes
	return o, nil
}

// refineRotation runs the non-parametric OPQ loop on already-PCA-rotated
// training data: encode, reconstruct, solve the orthogonal Procrustes
// problem R = argmin ||X R - X̂||, apply, retrain.
func refineRotation(trainRot *vec.Matrix, sub Subspaces, bits []int, cfg OPQConfig) (*linalg.Dense, *Codebooks, error) {
	d := trainRot.Cols
	r := linalg.Identity(d)
	current := trainRot.Clone()
	var cb *Codebooks
	var err error
	for iter := 0; iter < cfg.NonParametricIters; iter++ {
		tcfg := cfg.Train
		tcfg.Seed = cfg.Train.Seed + int64(iter+1)
		cb, err = TrainCodebooks(current, sub, bits, tcfg)
		if err != nil {
			return nil, nil, err
		}
		codes, err := cb.Encode(current, true)
		if err != nil {
			return nil, nil, err
		}
		// Reconstruct X̂ and solve Procrustes over M = Xᵀ X̂ (X is the
		// PCA-rotated input, so the learned R composes with PCA).
		xt := linalg.FromFloat32(trainRot).T()
		xhat := linalg.NewDense(trainRot.Rows, d)
		buf := make([]float32, d)
		for i := 0; i < trainRot.Rows; i++ {
			cb.Decode(codes.Row(i), buf)
			row := xhat.Row(i)
			for j, v := range buf {
				row[j] = float64(v)
			}
		}
		m, err := xt.Mul(xhat)
		if err != nil {
			return nil, nil, err
		}
		r, err = linalg.OrthoProcrustes(m)
		if err != nil {
			return nil, nil, err
		}
		// Re-rotate the training data: current = trainRot * R.
		rf := r.ToFloat32()
		for i := 0; i < trainRot.Rows; i++ {
			src := trainRot.Row(i)
			dst := current.Row(i)
			for j := 0; j < d; j++ {
				var s float32
				for k := 0; k < d; k++ {
					s += float32(src[k] * rf.At(k, j))
				}
				dst[j] = s
			}
		}
	}
	// Train final codebooks on the final rotation.
	cb, err = TrainCodebooks(current, sub, bits, cfg.Train)
	if err != nil {
		return nil, nil, err
	}
	return r, cb, nil
}

// transform applies PCA (+ optional refinement rotation) to a matrix.
func (o *OPQ) transform(x *vec.Matrix) (*vec.Matrix, error) {
	z, err := o.pcaModel.Project(x)
	if err != nil {
		return nil, err
	}
	if o.rotation == nil {
		return z, nil
	}
	d := z.Cols
	rf := o.rotation.ToFloat32()
	out := vec.NewMatrix(z.Rows, d)
	for i := 0; i < z.Rows; i++ {
		src := z.Row(i)
		dst := out.Row(i)
		for j := 0; j < d; j++ {
			var s float32
			for k := 0; k < d; k++ {
				s += float32(src[k] * rf.At(k, j))
			}
			dst[j] = s
		}
	}
	return out, nil
}

// TransformQuery rotates a query into the OPQ space.
func (o *OPQ) TransformQuery(q []float32) ([]float32, error) {
	m := &vec.Matrix{Rows: 1, Cols: len(q), Data: q}
	out, err := o.transform(m)
	if err != nil {
		return nil, err
	}
	return out.Row(0), nil
}

// Codebooks exposes the trained dictionaries.
func (o *OPQ) Codebooks() *Codebooks { return o.cb }

// Codes exposes the encoded dataset.
func (o *OPQ) Codes() *Codes { return o.codes }

// Len reports the number of encoded vectors.
func (o *OPQ) Len() int { return o.n }

// Search returns the approximate k nearest neighbors of q.
func (o *OPQ) Search(q []float32, k int) ([]vec.Neighbor, error) {
	if len(q) != o.cb.Sub.Dim() {
		return nil, fmt.Errorf("quantizer: query dim %d, index dim %d", len(q), o.cb.Sub.Dim())
	}
	qr, err := o.TransformQuery(q)
	if err != nil {
		return nil, err
	}
	lut := o.cb.BuildLUT(qr)
	return ScanADC(o.codes, lut, k), nil
}
