package quantizer

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"vaq/internal/kmeans"
	"vaq/internal/vec"
)

// Codebooks is a set of per-subspace dictionaries. Books[i] is a
// (2^bits[i]) x Lengths[i] centroid matrix; sizes may differ per subspace
// (that is VAQ's "variable-sized dictionaries", §III-D; PQ/OPQ use equal
// sizes).
//
// Dictionaries are stored in canonical order — rows ascending by first
// coordinate (kmeans.SortRows) — so encoding searches them in place with
// the bounded kmeans.NearestSorted and no sorted copy is kept live. A code
// value is therefore a label of this order, not of training order. Build
// through NewCodebooks: it records, per book, whether the rows really are
// in order, and a book that is not (a stream written before the canonical
// order existed, a literal) is searched with the linear scan instead.
type Codebooks struct {
	Sub   Subspaces
	Bits  []int
	Books []*vec.Matrix
	// sorted[s]: Books[s] satisfies kmeans.IsSorted. nil = none checked.
	sorted []bool
}

// NewCodebooks wraps already-trained dictionaries, checking each book's
// row order once (O(entries)).
func NewCodebooks(sub Subspaces, bits []int, books []*vec.Matrix) *Codebooks {
	cb := &Codebooks{Sub: sub, Bits: bits, Books: books, sorted: make([]bool, len(books))}
	for s, book := range books {
		cb.sorted[s] = kmeans.IsSorted(book)
	}
	return cb
}

// TrainConfig controls codebook training.
type TrainConfig struct {
	Seed     int64
	MaxIter  int
	Parallel bool
	// HierarchicalThreshold: subspace dictionaries larger than this are
	// trained hierarchically (paper §III-D uses 2^10). 0 disables.
	HierarchicalThreshold int
}

// TrainCodebooks learns one k-means dictionary per subspace over data laid
// out according to sub, with 2^bits[i] centroids in subspace i.
func TrainCodebooks(data *vec.Matrix, sub Subspaces, bits []int, cfg TrainConfig) (*Codebooks, error) {
	m := sub.M()
	if len(bits) != m {
		return nil, fmt.Errorf("quantizer: %d bit entries for %d subspaces", len(bits), m)
	}
	if sub.Dim() != data.Cols {
		return nil, fmt.Errorf("quantizer: subspaces cover %d dims, data has %d", sub.Dim(), data.Cols)
	}
	if data.Rows == 0 {
		return nil, errors.New("quantizer: empty training data")
	}
	for i, b := range bits {
		if b < 1 || b > 16 {
			return nil, fmt.Errorf("quantizer: subspace %d bits=%d out of range [1,16]", i, b)
		}
	}
	books := make([]*vec.Matrix, m)

	type job struct{ i int }
	var wg sync.WaitGroup
	jobs := make(chan job)
	var mu sync.Mutex
	var firstErr error
	workers := runtime.GOMAXPROCS(0)
	if !cfg.Parallel || workers > m {
		workers = 1
		if cfg.Parallel && m > 1 {
			workers = m
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				i := j.i
				subData := data.SelectColumnsRange(sub.Offsets[i], sub.Offsets[i]+sub.Lengths[i])
				res, err := kmeans.Train(subData, kmeans.Config{
					K:                     1 << bits[i],
					Seed:                  cfg.Seed + int64(i)*7919,
					MaxIter:               cfg.MaxIter,
					Parallel:              !cfg.Parallel, // parallelize inside when not across
					HierarchicalThreshold: cfg.HierarchicalThreshold,
				})
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("quantizer: subspace %d: %w", i, err)
					}
					mu.Unlock()
					continue
				}
				// Canonical order, before anything is encoded against it.
				kmeans.SortRows(res.Centroids)
				books[i] = res.Centroids
			}
		}()
	}
	for i := 0; i < m; i++ {
		jobs <- job{i}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return NewCodebooks(sub, append([]int(nil), bits...), books), nil
}

// Codes stores the encoded dataset: N vectors x M subspace indices. Indices
// are uint16 because VAQ dictionaries can exceed 256 entries (up to 13
// bits in the paper's experiments).
type Codes struct {
	N, M int
	Data []uint16
}

// NewCodes allocates code storage.
func NewCodes(n, m int) *Codes {
	return &Codes{N: n, M: m, Data: make([]uint16, n*m)}
}

// Row returns the code word of vector i.
func (c *Codes) Row(i int) []uint16 { return c.Data[i*c.M : (i+1)*c.M : (i+1)*c.M] }

// Bytes reports the storage footprint of the codes in bytes, counting the
// packed bit width rather than the in-memory uint16 layout (for budget
// accounting in experiments).
func (c *Codes) Bytes(bits []int) int {
	total := 0
	for _, b := range bits {
		total += b
	}
	return (total*c.N + 7) / 8
}

// Encode maps every row of data to its nearest dictionary entry per
// subspace (paper Equation 3; Algorithm 3 lines 9-23).
func (cb *Codebooks) Encode(data *vec.Matrix, parallel bool) (*Codes, error) {
	if data.Cols != cb.Sub.Dim() {
		return nil, fmt.Errorf("quantizer: encode dimension %d, codebooks cover %d", data.Cols, cb.Sub.Dim())
	}
	codes := NewCodes(data.Rows, cb.Sub.M())
	workers := 1
	if parallel {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > data.Rows {
		workers = data.Rows
	}
	var wg sync.WaitGroup
	chunk := (data.Rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > data.Rows {
			hi = data.Rows
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				cb.EncodeVec(data.Row(i), codes.Row(i))
			}
		}(lo, hi)
	}
	wg.Wait()
	return codes, nil
}

// EncodeVec encodes a single full-dimension vector into out (length M).
func (cb *Codebooks) EncodeVec(v []float32, out []uint16) {
	for s, book := range cb.Books {
		nearest := kmeans.Nearest
		if cb.sorted != nil && cb.sorted[s] {
			nearest = kmeans.NearestSorted
		}
		c, _ := nearest(book, cb.Sub.Of(v, s))
		out[s] = uint16(c)
	}
}

// Decode reconstructs the full-dimension approximation of a code word.
func (cb *Codebooks) Decode(code []uint16, out []float32) {
	for s := 0; s < cb.Sub.M(); s++ {
		copy(out[cb.Sub.Offsets[s]:cb.Sub.Offsets[s]+cb.Sub.Lengths[s]], cb.Books[s].Row(int(code[s])))
	}
}

// ReconstructionError returns the mean squared reconstruction error of the
// codes against the original data (paper Equation 2, normalized by n).
func (cb *Codebooks) ReconstructionError(data *vec.Matrix, codes *Codes) float64 {
	buf := make([]float32, data.Cols)
	var total float64
	for i := 0; i < data.Rows; i++ {
		cb.Decode(codes.Row(i), buf)
		total += float64(vec.SquaredL2(data.Row(i), buf))
	}
	if data.Rows > 0 {
		total /= float64(data.Rows)
	}
	return total
}
