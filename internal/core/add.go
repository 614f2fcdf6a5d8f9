package core

import (
	"fmt"
	"log/slog"
	"math"
	"sort"
	"time"

	"vaq/internal/kmeans"
	"vaq/internal/quantizer"
	"vaq/internal/vec"
)

// state is everything a write changes: the encoded dataset, its TI skip
// structure, the scan stores derived from them, the retained projections
// and the drift estimate. A published state is immutable. Writers (Add,
// SetAccuracyMode) prepare a successor beside it, serialized by
// Index.writeMu, and publish it with one pointer store; a reader loads the
// pointer once and works on that value, so it observes a whole batch or
// none of it and never waits for a writer.
type state struct {
	n     int
	codes *quantizer.Codes
	ti    *tiIndex
	// blocked is the scan-optimized copy the float kernels read; fast the
	// integer-kernel store (nil unless the accuracy mode is AccuracyFast).
	blocked *blockedStore
	fast    *fastStore
	// retained holds the projected dataset rows for the shadow-exact
	// recall estimator (nil unless RecallSampleRate > 0).
	retained *vec.Matrix
	// driftEWMA is the per-subspace EWMA of incoming-vector reconstruction
	// MSE that Add folds against Index.baselineMSE (nil without a
	// baseline).
	driftEWMA []float64
}

// testHookBeforePublish, when non-nil, runs in Add after the successor
// state is fully prepared and before it is published. Tests use it to show
// that readers are admitted, and still see the previous state, at the point
// where all of a batch's work has been done.
var testHookBeforePublish func(*Index)

// Add encodes new raw vectors with the already-trained model and
// dictionaries and threads them into the triangle-inequality skip
// structure, keeping each cluster's distance ordering intact. The new
// vectors receive ids Len(), Len()+1, ... in input order; the first
// assigned id is returned.
//
// Dictionaries and the PCA rotation are NOT retrained — the paper's
// encoding model is train-once — so heavy distribution drift degrades
// accuracy the same way it would for any PQ system.
//
// Queries, Diagnose and WriteTo never wait on Add: the batch is prepared
// beside the live state and becomes visible, whole, through one pointer
// store (see state). Concurrent Adds serialize among themselves. An error
// leaves the index unchanged.
func (ix *Index) Add(vectors *vec.Matrix) (firstID int, err error) {
	if vectors == nil || vectors.Rows == 0 {
		return ix.Len(), nil
	}
	start := time.Now()
	if vectors.Cols != ix.queryDim {
		return 0, fmt.Errorf("core: Add dimension %d, index dimension %d", vectors.Cols, ix.queryDim)
	}
	if err := vec.CheckFinite(vectors); err != nil {
		return 0, fmt.Errorf("core: Add: %w", err)
	}
	// Projection and encoding read only the immutable model and
	// dictionaries, so concurrent writers overlap here.
	z, err := ix.model.Project(vectors)
	if err != nil {
		return 0, err
	}
	batch, err := ix.cb.Encode(z, true)
	if err != nil {
		return 0, err
	}
	m := ix.cb.Sub.M()
	// Per-subspace squared reconstruction error of this batch, folded
	// into the drift EWMA below (only when Build left a baseline).
	var batchSqErr []float64
	if ix.baselineMSE != nil {
		batchSqErr = make([]float64, m)
		for i := 0; i < z.Rows; i++ {
			zi, code := z.Row(i), batch.Row(i)
			for s := 0; s < m; s++ {
				batchSqErr[s] += float64(vec.SquaredL2(ix.cb.Sub.Of(zi, s), ix.cb.Books[s].Row(int(code[s]))))
			}
		}
	}

	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	old := ix.state.Load()
	firstID = old.n
	next := &state{n: old.n + vectors.Rows}
	next.codes = &quantizer.Codes{N: next.n, M: m, Data: make([]uint16, 0, next.n*m)}
	next.codes.Data = append(append(next.codes.Data, old.codes.Data...), batch.Data...)
	if old.retained != nil {
		// Keep the shadow-exact recall sampler's ground truth complete: the
		// retained matrix must cover every id the approximate scan can
		// return.
		next.retained = &vec.Matrix{Rows: next.n, Cols: z.Cols, Data: make([]float32, 0, next.n*z.Cols)}
		next.retained.Data = append(append(next.retained.Data, old.retained.Data...), z.Data...)
	}
	next.ti = old.ti.withMembers(ix.cb, batch, firstID)
	// The scan stores are derived from codes+clusters and rebuilt
	// wholesale: insertions shift every later member of a cluster, which
	// reshuffles block lanes.
	next.blocked = buildBlockedStore(ix.cb, next.codes, next.ti)
	if old.fast != nil {
		// The coarse scan dictionaries depend only on the (immutable)
		// codebooks and seed, so the rebuild donates them via prev and only
		// the block data is re-derived.
		next.fast = buildFastStore(ix.cb, next.codes, next.ti, ix.cfg.Seed, old.fast)
	}
	if batchSqErr != nil {
		next.driftEWMA = ix.foldDrift(old.driftEWMA, batchSqErr, vectors.Rows, next.codes)
	}
	if testHookBeforePublish != nil {
		testHookBeforePublish(ix)
	}
	ix.state.Store(next)
	if ix.cfg.Logger != nil {
		ix.cfg.Logger.Info("vaq.add",
			slog.Int("added", vectors.Rows),
			slog.Int("first_id", firstID),
			slog.Int("n", next.n),
			slog.Duration("total", time.Since(start)))
	}
	return firstID, nil
}

// withMembers returns a copy of ti with the batch's codes (ids firstID,
// firstID+1, ...) inserted into their nearest clusters at their sorted
// positions. Only the clusters a batch touches are copied; the rest, and
// the centroids, are shared with ti, which is left untouched.
func (ti *tiIndex) withMembers(cb *quantizer.Codebooks, batch *quantizer.Codes, firstID int) *tiIndex {
	next := *ti
	next.clusters = append([][]tiEntry(nil), ti.clusters...)
	owned := make(map[int]bool)
	prefix := make([]float32, ti.prefixDim)
	for i := 0; i < batch.N; i++ {
		decodePrefix(cb, batch.Row(i), ti.prefixSubspaces, prefix)
		c, distSq := kmeans.Nearest(ti.centroids, prefix)
		entry := tiEntry{id: firstID + i, dist: float32(math.Sqrt(float64(distSq)))}
		members := next.clusters[c]
		if !owned[c] {
			owned[c] = true
			members = append(make([]tiEntry, 0, len(members)+batch.N-i), members...)
		}
		pos := sort.Search(len(members), func(j int) bool {
			return members[j].dist >= entry.dist
		})
		members = append(members, tiEntry{})
		copy(members[pos+1:], members[pos:])
		members[pos] = entry
		next.clusters[c] = members
	}
	return &next
}
