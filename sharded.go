package vaq

import (
	"fmt"
	"io"

	"vaq/internal/shard"
	"vaq/internal/vec"
)

// ShardedIndex is a VAQ index partitioned across Config.Shards independent
// shards that share one trained model. Builds encode shards in parallel;
// Search scatters the query to per-shard searchers on a bounded worker
// pool, feeds the running global k-th distance back to not-yet-started
// shards as an early-abandon threshold, and merges the per-shard top-k
// lists in the same strict (distance, id) order the single index uses —
// with Shards=1 results and serialized shard payloads are bit-identical to
// an unsharded Index. Add reserves global ids with one atomic counter and
// routes each batch to one shard round-robin, so concurrent Adds only
// contend when they land on the same shard.
type ShardedIndex struct {
	inner *shard.Index
}

// BuildShardedWithTrainingSet trains one model on train and encodes data
// across cfg.Shards parallel shards. cfg.Shards <= 1 builds a single
// shard.
func BuildShardedWithTrainingSet(train, data [][]float32, cfg Config) (*ShardedIndex, error) {
	tm, dm, err := matrices(train, data)
	if err != nil {
		return nil, err
	}
	inner, err := shard.Build(tm, dm, cfg.toCore(), shard.Options{Shards: max(cfg.Shards, 1)})
	if err != nil {
		return nil, fmt.Errorf("vaq: %w", err)
	}
	return &ShardedIndex{inner: inner}, nil
}

// Len reports the total number of encoded vectors across all shards.
func (ix *ShardedIndex) Len() int { return ix.inner.Len() }

// SearchWith returns the approximate k nearest neighbors under explicit
// options, merged across all shards.
func (ix *ShardedIndex) SearchWith(q []float32, k int, opt SearchOptions) ([]Result, error) {
	return results(ix.inner.Search(q, k, opt.toCore()))
}

// SearchBatch answers many queries in query order, fanning them out
// across workers outer goroutines (each query additionally scatters to
// per-shard searchers). Error semantics match Index.SearchBatch.
func (ix *ShardedIndex) SearchBatch(queries [][]float32, k int, opt SearchOptions, workers int) ([][]Result, error) {
	return searchBatch(queries, k, workers, func() func([]float32) ([]Result, error) {
		return func(q []float32) ([]Result, error) { return ix.SearchWith(q, k, opt) }
	})
}

// Add encodes new vectors into one shard and returns the first global id
// assigned. Ids are reserved atomically, so concurrent Adds proceed in
// parallel and only batches routed to the same shard serialize.
func (ix *ShardedIndex) Add(vectors [][]float32) (int, error) {
	m, err := vec.FromRows(vectors)
	if err != nil {
		return 0, fmt.Errorf("vaq: %w", err)
	}
	first, err := ix.inner.Add(m)
	if err != nil {
		return 0, fmt.Errorf("vaq: %w", err)
	}
	return first, nil
}

// WriteTo serializes the sharded index: a "VAQS" envelope (shard count,
// assignment policy, id mappings) around one versioned single-index
// stream per shard.
func (ix *ShardedIndex) WriteTo(w io.Writer) (int64, error) { return ix.inner.WriteTo(w) }

// ReadSharded deserializes a sharded index written by WriteTo.
func ReadSharded(r io.Reader) (*ShardedIndex, error) {
	inner, err := shard.Read(r)
	if err != nil {
		return nil, fmt.Errorf("vaq: %w", err)
	}
	return &ShardedIndex{inner: inner}, nil
}
