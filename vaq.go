// Package vaq is a Go implementation of Variance-Aware Quantization
// (Paparrizos et al., "Fast Adaptive Similarity Search through
// Variance-Aware Quantization", ICDE 2022): an approximate
// nearest-neighbor method that encodes vectors with per-subspace
// dictionaries whose sizes adapt to the variance each subspace explains,
// and answers queries with hardware-oblivious data skipping (triangle
// inequality over precomputed cluster distances) cascaded with
// early-abandoned table lookups.
//
// Quick start:
//
//	ix, err := vaq.Build(data, vaq.Config{NumSubspaces: 16, Budget: 128})
//	if err != nil { ... }
//	results, err := ix.Search(query, 10)
//
// data is a slice of equal-length []float32 vectors; results come back as
// (id, squared distance) pairs sorted by distance. See the examples/
// directory for richer usage and the internal packages for the substrates
// (PCA, k-means, the MILP bit-allocation solver, baseline quantizers and
// tree indexes) that power the experiment suite in cmd/vaqbench.
//
// # Concurrency
//
// An Index is safe for concurrent reads: run one Searcher per goroutine,
// or use SearchBatch, which fans queries out across worker goroutines
// (workers <= 0 means runtime.GOMAXPROCS(0) workers). Add never blocks a
// search: a search beside a writer sees the index before the batch or
// after it.
package vaq

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"vaq/internal/core"
	"vaq/internal/vec"
)

// Result is one search answer: a database vector id and its distance to
// the query. Distances are squared Euclidean in the quantized space —
// comparable within one result list, monotone in the true distance up to
// quantization error.
type Result struct {
	ID   int
	Dist float32
}

// AllocStrategy selects how the bit budget is split across subspaces.
type AllocStrategy = core.AllocStrategy

// Allocation strategies.
const (
	// AllocMILP solves the paper's constrained integer program (default).
	AllocMILP = core.AllocMILP
	// AllocTransformCoding uses the closed-form reverse-water-filling rule.
	AllocTransformCoding = core.AllocTransformCoding
	// AllocUniform assigns Budget/NumSubspaces bits everywhere (the
	// PQ/OPQ ablation baseline).
	AllocUniform = core.AllocUniform
)

// ErrNonFinite is wrapped by the error Build, BuildWithTrainingSet,
// BuildShardedWithTrainingSet and Add return for input that holds a NaN
// or an infinity (the message names the row and column), and by the error
// a search returns for such a query. The check runs before anything is
// trained, encoded, assigned an id or scanned, so a rejected Add leaves
// the index exactly as it was. Test with errors.Is.
var ErrNonFinite = vec.ErrNonFinite

// AccuracyMode selects the arithmetic the scan kernels run in.
type AccuracyMode = core.AccuracyMode

// Accuracy modes.
const (
	// AccuracyExact (default) keeps the bit-identical float32 kernels.
	AccuracyExact = core.AccuracyExact
	// AccuracyFast scans an integer companion store: per-query uint8
	// lookup tables (learned scale/offset, saturating) over packed 4-bit /
	// uint8 / uint16 codes, with early-abandon thresholds quantized into
	// the integer domain, and re-ranks the survivors exactly. Faster, with
	// a small recall cost that workload replay can measure.
	AccuracyFast = core.AccuracyFast
)

// Config holds the build parameters of the paper's Algorithm 5.
// NumSubspaces and Budget are required; every other field has a default.
type Config struct {
	// NumSubspaces is the number of subspaces (m). Required.
	NumSubspaces int
	// Budget is the total bits per encoded vector. Required.
	Budget int
	// MinBits and MaxBits bound per-subspace dictionary sizes
	// (defaults 1 and 13, the paper's evaluation setting).
	MinBits int
	MaxBits int
	// NonUniform clusters dimensions of similar variance into
	// unequal-length subspaces.
	NonUniform bool
	// Alloc selects the allocation strategy (default AllocMILP).
	Alloc AllocStrategy
	// TargetVariance is the C1 coverage threshold (default 0.99).
	TargetVariance float64
	// TIClusters is the number of data-skipping clusters
	// (0 = auto: min(1000, n/64)).
	TIClusters int
	// Seed makes the build deterministic.
	Seed int64
	// KMeansIters bounds dictionary-training iterations (default 25).
	KMeansIters int
	// AccuracyMode selects the scan arithmetic (default AccuracyExact).
	// Runtime-only: not serialized; loaded indexes start exact (see
	// Index.SetAccuracyMode).
	AccuracyMode AccuracyMode
	// Shards partitions the dataset across this many shards that share
	// one trained model. Read by BuildShardedWithTrainingSet only; 0 or 1
	// means one shard, which answers bit-identically to an unsharded
	// index.
	Shards int
}

func (c Config) toCore() core.Config {
	return core.Config{
		NumSubspaces:   c.NumSubspaces,
		Budget:         c.Budget,
		MinBits:        c.MinBits,
		MaxBits:        c.MaxBits,
		NonUniform:     c.NonUniform,
		Alloc:          c.Alloc,
		TargetVariance: c.TargetVariance,
		TIClusters:     c.TIClusters,
		Seed:           c.Seed,
		KMeansIters:    c.KMeansIters,
		AccuracyMode:   c.AccuracyMode,
	}
}

// SearchOptions tune a single query.
type SearchOptions struct {
	// VisitFrac is the fraction of skip clusters visited, in [0, 1]
	// (0 = the index default, 0.25). 1 makes the search exactly equivalent
	// to an exhaustive scan of the encoded data. NaN and values outside
	// [0, 1] are rejected.
	VisitFrac float64
}

func (o SearchOptions) toCore() core.SearchOptions {
	return core.SearchOptions{VisitFrac: o.VisitFrac}
}

// Index is a built VAQ index over an encoded dataset.
type Index struct {
	inner *core.Index
}

// Build trains a VAQ index over data (each row one vector, all rows the
// same length) and encodes all of it. Build learns from the data itself;
// use BuildWithTrainingSet to learn from a sample.
func Build(data [][]float32, cfg Config) (*Index, error) {
	m, err := vec.FromRows(data)
	if err != nil {
		return nil, fmt.Errorf("vaq: %w", err)
	}
	return build(m, m, cfg)
}

// BuildWithTrainingSet trains dictionaries on train and encodes data.
func BuildWithTrainingSet(train, data [][]float32, cfg Config) (*Index, error) {
	tm, dm, err := matrices(train, data)
	if err != nil {
		return nil, err
	}
	return build(tm, dm, cfg)
}

func build(train, data *vec.Matrix, cfg Config) (*Index, error) {
	inner, err := core.Build(train, data, cfg.toCore())
	if err != nil {
		return nil, fmt.Errorf("vaq: %w", err)
	}
	return &Index{inner: inner}, nil
}

func matrices(train, data [][]float32) (tm, dm *vec.Matrix, err error) {
	if tm, err = vec.FromRows(train); err != nil {
		return nil, nil, fmt.Errorf("vaq: train: %w", err)
	}
	if dm, err = vec.FromRows(data); err != nil {
		return nil, nil, fmt.Errorf("vaq: data: %w", err)
	}
	return tm, dm, nil
}

// Len reports the number of encoded vectors.
func (ix *Index) Len() int { return ix.inner.Len() }

// Search returns the approximate k nearest neighbors of q with the index's
// default pruning settings.
func (ix *Index) Search(q []float32, k int) ([]Result, error) {
	return ix.SearchWith(q, k, SearchOptions{})
}

// SearchWith returns the approximate k nearest neighbors under explicit
// options.
func (ix *Index) SearchWith(q []float32, k int, opt SearchOptions) ([]Result, error) {
	return results(ix.inner.SearchWith(q, k, opt.toCore()))
}

func results(res []vec.Neighbor, err error) ([]Result, error) {
	if err != nil {
		return nil, fmt.Errorf("vaq: %w", err)
	}
	out := make([]Result, len(res))
	for i, r := range res {
		out[i] = Result{ID: r.ID, Dist: r.Dist}
	}
	return out, nil
}

// SearchBatch answers many queries, distributing them across worker
// goroutines (one reusable Searcher each). Results are returned in query
// order. workers <= 0 uses runtime.GOMAXPROCS(0).
//
// A k < 1 is rejected up front with a nil result slice. Per-query faults
// (a query with the wrong dimensionality, execution errors) do not abort
// the batch: every other query still runs and its result is kept; each
// failed query's slot is nil in the returned slice, and the per-query
// errors come back joined (errors.Join) with their query indices.
func (ix *Index) SearchBatch(queries [][]float32, k int, opt SearchOptions, workers int) ([][]Result, error) {
	return searchBatch(queries, k, workers, func() func([]float32) ([]Result, error) {
		s := ix.NewSearcher()
		return func(q []float32) ([]Result, error) { return s.Search(q, k, opt) }
	})
}

// searchBatch runs queries on workers goroutines, each answering through
// its own function from newWorker.
func searchBatch(queries [][]float32, k, workers int, newWorker func() func([]float32) ([]Result, error)) ([][]Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("vaq: k must be >= 1, got %d", k)
	}
	n := len(queries)
	out := make([][]Result, n)
	if n == 0 {
		return out, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	qErrs := make([]error, n)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			search := newWorker()
			for qi := range next {
				res, err := search(queries[qi])
				if err != nil {
					qErrs[qi] = fmt.Errorf("vaq: query %d: %w", qi, err)
					continue
				}
				out[qi] = res
			}
		}()
	}
	for qi := 0; qi < n; qi++ {
		next <- qi
	}
	close(next)
	wg.Wait()
	return out, errors.Join(qErrs...)
}

// Add appends new vectors to the index without retraining: they are
// encoded with the existing dictionaries and inserted into the skip
// structure. Ids are assigned sequentially from Len(); the first new id is
// returned. Accuracy for the added vectors matches the rest of the index
// as long as they follow the training distribution.
func (ix *Index) Add(vectors [][]float32) (int, error) {
	m, err := vec.FromRows(vectors)
	if err != nil {
		return 0, fmt.Errorf("vaq: %w", err)
	}
	id, err := ix.inner.Add(m)
	if err != nil {
		return 0, fmt.Errorf("vaq: %w", err)
	}
	return id, nil
}

// WriteTo serializes the index (model, dictionaries, codes and skip
// structure) so it can be reloaded without retraining. The format is
// versioned; Read rejects unknown versions.
func (ix *Index) WriteTo(w io.Writer) (int64, error) { return ix.inner.WriteTo(w) }

// Read deserializes an index written by WriteTo.
func Read(r io.Reader) (*Index, error) {
	inner, err := core.Read(r)
	if err != nil {
		return nil, fmt.Errorf("vaq: %w", err)
	}
	return &Index{inner: inner}, nil
}

// Stats describes a built index.
type Stats struct {
	// N is the number of encoded vectors.
	N int
	// BitsPerSubspace is the adaptive allocation, most important
	// subspace first.
	BitsPerSubspace []int
	// SubspaceVariances is each subspace's share of explained variance.
	SubspaceVariances []float64
	// CodeBytes is the packed size of the encoded dataset.
	CodeBytes int
}

// Stats returns a description of the trained index — the adaptive bit
// allocation and the storage footprint.
func (ix *Index) Stats() Stats {
	return Stats{
		N:                 ix.inner.Len(),
		BitsPerSubspace:   ix.inner.Bits(),
		SubspaceVariances: ix.inner.SubspaceVariances(),
		CodeBytes:         ix.inner.CodeBytes(),
	}
}

// SetAccuracyMode switches the scan arithmetic at runtime — the opt-in
// hook for indexes loaded from disk, whose serialized form carries no
// accuracy mode (the integer store is derived, never stored). Switching
// to AccuracyFast builds the integer store; switching back to
// AccuracyExact drops it. In-flight queries finish on the mode they
// started with.
func (ix *Index) SetAccuracyMode(mode AccuracyMode) error {
	if err := ix.inner.SetAccuracyMode(mode); err != nil {
		return fmt.Errorf("vaq: %w", err)
	}
	return nil
}

// SearchStats instruments one query: how much work each pruning layer
// saved (see the field docs in internal/core.SearchStats).
type SearchStats = core.SearchStats

// Searcher is a reusable per-goroutine query context that avoids the
// per-query allocation of lookup tables. Not safe for concurrent use;
// create one per goroutine.
type Searcher struct {
	inner *core.Searcher
}

// NewSearcher returns a reusable query context for this index.
func (ix *Index) NewSearcher() *Searcher {
	return &Searcher{inner: ix.inner.NewSearcher()}
}

// Search runs one query through the reusable context.
func (s *Searcher) Search(q []float32, k int, opt SearchOptions) ([]Result, error) {
	return results(s.inner.Search(q, k, opt.toCore()))
}

// LastStats reports the pruning instrumentation of the most recent query
// run through this Searcher.
func (s *Searcher) LastStats() SearchStats { return s.inner.LastStats() }
