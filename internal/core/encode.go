package core

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"vaq/internal/kmeans"
	"vaq/internal/quantizer"
	"vaq/internal/vec"
)

// tiEntry is one encoded vector inside a triangle-inequality cluster:
// its dataset id and its (plain, not squared) distance to the cluster
// centroid in the prefix space.
type tiEntry struct {
	id   int
	dist float32
}

// tiIndex is the data-skipping structure of §III-D/§III-E: encoded vectors
// are partitioned around randomly sampled code vectors ("TI clusters"),
// each member caches its distance to its centroid, and members are kept
// sorted by that distance so a scan can stop early once the triangle bound
// exceeds the best-so-far distance for all remaining members.
type tiIndex struct {
	// prefixSubspaces is how many leading subspaces the centroids span
	// (TIClusterNumSubs in Algorithm 3).
	prefixSubspaces int
	// prefixDim is the dimensionality those subspaces cover.
	prefixDim int
	// centroids is clusterCount x prefixDim.
	centroids *vec.Matrix
	// clusters[c] lists members sorted ascending by distance to centroid.
	clusters [][]tiEntry
}

// buildTIIndex constructs the structure: sample clusterCount codes, decode
// their prefix as centroids, assign every encoded vector to the nearest
// centroid and sort each cluster by the cached distance (Algorithm 3 lines
// 24-48, plus the sorting the text describes).
func buildTIIndex(cb *quantizer.Codebooks, codes *quantizer.Codes, clusterCount, prefixSubspaces int, rng *rand.Rand) *tiIndex {
	n := codes.N
	if clusterCount > n {
		clusterCount = n
	}
	if clusterCount < 1 {
		clusterCount = 1
	}
	m := cb.Sub.M()
	if prefixSubspaces < 1 || prefixSubspaces > m {
		prefixSubspaces = m
	}
	prefixDim := 0
	for s := 0; s < prefixSubspaces; s++ {
		prefixDim += cb.Sub.Lengths[s]
	}
	ti := &tiIndex{
		prefixSubspaces: prefixSubspaces,
		prefixDim:       prefixDim,
		centroids:       vec.NewMatrix(clusterCount, prefixDim),
		clusters:        make([][]tiEntry, clusterCount),
	}
	// Sample distinct codes as centroids (with replacement fallback for
	// tiny datasets, as in Algorithm 3 line 26).
	perm := rng.Perm(n)
	for c := 0; c < clusterCount; c++ {
		code := codes.Row(perm[c])
		decodePrefix(cb, code, prefixSubspaces, ti.centroids.Row(c))
	}
	// Reconstruct every code's prefix once, then assign in parallel.
	assign := make([]int, n)
	dists := make([]float32, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			buf := make([]float32, prefixDim)
			for i := lo; i < hi; i++ {
				decodePrefix(cb, codes.Row(i), prefixSubspaces, buf)
				// TI centroids keep their sampled order (their ids show in
				// traces and in the serialized index): the linear form.
				c, distSq := kmeans.Nearest(ti.centroids, buf)
				assign[i] = c
				dists[i] = float32(math.Sqrt(float64(distSq)))
			}
		}(lo, hi)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		c := assign[i]
		ti.clusters[c] = append(ti.clusters[c], tiEntry{id: i, dist: dists[i]})
	}
	for c := range ti.clusters {
		members := ti.clusters[c]
		sort.Slice(members, func(a, b int) bool {
			if members[a].dist != members[b].dist {
				return members[a].dist < members[b].dist
			}
			return members[a].id < members[b].id
		})
	}
	return ti
}

// decodePrefix reconstructs the first prefixSubspaces subspaces of a code
// into out (length = prefix dimensionality).
func decodePrefix(cb *quantizer.Codebooks, code []uint16, prefixSubspaces int, out []float32) {
	off := 0
	for s := 0; s < prefixSubspaces; s++ {
		l := cb.Sub.Lengths[s]
		copy(out[off:off+l], cb.Books[s].Row(int(code[s])))
		off += l
	}
}

// queryClusterDistancesSq returns the SQUARED distances between the
// projected query's prefix and every TI centroid (Algorithm 4 lines
// 14-17). Squared distances rank clusters identically to plain ones, so
// the per-query root is deferred to the visited clusters only (the
// triangle bound is the sole consumer of plain distances).
func (ti *tiIndex) queryClusterDistancesSq(q []float32, out []float32) []float32 {
	if cap(out) < ti.centroids.Rows {
		out = make([]float32, ti.centroids.Rows)
	}
	out = out[:ti.centroids.Rows]
	prefix := q[:ti.prefixDim]
	for c := 0; c < ti.centroids.Rows; c++ {
		out[c] = vec.SquaredL2(prefix, ti.centroids.Row(c))
	}
	return out
}
