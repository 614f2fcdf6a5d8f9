// Package kmeans implements Lloyd's k-means with k-means++ seeding, the
// dictionary-learning workhorse of every product-quantization method in
// this repository (paper §II-C: "The cornerstone k-means method satisfies
// these conditions and is the prevalent choice for dictionary learning").
//
// It additionally provides the two specializations VAQ needs:
//
//   - Hierarchical training for very large dictionaries (paper §III-D: for
//     subspaces assigned more than 2^10 centroids, run k-means with a small
//     k and split each cluster again).
//   - One-dimensional k-means over sorted values (used to cluster the
//     per-dimension variances into non-uniform subspaces, paper §III-B).
package kmeans

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"vaq/internal/vec"
)

// Config controls training.
type Config struct {
	// K is the number of centroids. Required, >= 1.
	K int
	// MaxIter bounds Lloyd iterations (default 25).
	MaxIter int
	// Tolerance stops iterating when the relative decrease of the
	// quantization error falls below it (default 1e-4).
	Tolerance float64
	// Seed makes training deterministic.
	Seed int64
	// Parallel enables multi-goroutine assignment for large inputs.
	Parallel bool
	// HierarchicalThreshold: when K exceeds it, train hierarchically —
	// first k-means with K=HierarchicalBranch, then recursively split
	// each cluster. 0 disables hierarchy.
	HierarchicalThreshold int
	// HierarchicalBranch is the top-level k in hierarchical mode
	// (default 64 = 2^6, as in the paper).
	HierarchicalBranch int
}

// Result is a trained codebook.
type Result struct {
	// Centroids is a K x d matrix.
	Centroids *vec.Matrix
	// Assign[i] is the centroid index of training row i.
	Assign []int
	// Inertia is the final sum of squared distances to assigned centroids.
	Inertia float64
	// Iterations actually performed.
	Iterations int
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.MaxIter <= 0 {
		out.MaxIter = 25
	}
	if out.Tolerance <= 0 {
		out.Tolerance = 1e-4
	}
	if out.HierarchicalBranch <= 0 {
		out.HierarchicalBranch = 64
	}
	return out
}

// Train runs k-means on x.
func Train(x *vec.Matrix, cfg Config) (*Result, error) {
	return train(x, cfg, assignAll)
}

// assignFunc is assignAll's signature; tests pass a linear-scan reference
// through train to pin the bounded search to it.
type assignFunc func(x, centroids *vec.Matrix, assign []int, dists []float32, parallel bool) float64

func train(x *vec.Matrix, cfg Config, assignAll assignFunc) (*Result, error) {
	c := cfg.withDefaults()
	if c.K < 1 {
		return nil, fmt.Errorf("kmeans: K must be >= 1, got %d", c.K)
	}
	if x.Rows == 0 {
		return nil, errors.New("kmeans: empty training set")
	}
	if c.HierarchicalThreshold > 0 && c.K > c.HierarchicalThreshold {
		return trainHierarchical(x, c, assignAll)
	}
	return trainFlat(x, c, assignAll)
}

func trainFlat(x *vec.Matrix, c Config, assignAll assignFunc) (*Result, error) {
	n, d := x.Rows, x.Cols
	k := c.K
	if k > n {
		k = n // cannot have more distinct centroids than points
	}
	rng := rand.New(rand.NewSource(c.Seed))
	centroids := seedPlusPlus(x, k, rng)
	assign := make([]int, n)
	dists := make([]float32, n)
	prevInertia := math.Inf(1)
	iters := 0
	for iter := 0; iter < c.MaxIter; iter++ {
		iters = iter + 1
		inertia := assignAll(x, centroids, assign, dists, c.Parallel)
		// Recompute centroids.
		counts := make([]int, k)
		sums := make([]float64, k*d)
		for i := 0; i < n; i++ {
			a := assign[i]
			counts[a]++
			row := x.Row(i)
			s := sums[a*d : (a+1)*d]
			for j, v := range row {
				s[j] += float64(v)
			}
		}
		for cI := 0; cI < k; cI++ {
			if counts[cI] == 0 {
				// Empty cluster: re-seed at the point farthest from
				// its centroid (standard repair).
				far := farthestPoint(dists)
				copy(centroids.Row(cI), x.Row(far))
				dists[far] = 0
				continue
			}
			inv := 1 / float64(counts[cI])
			cr := centroids.Row(cI)
			s := sums[cI*d : (cI+1)*d]
			for j := range cr {
				cr[j] = float32(s[j] * inv)
			}
		}
		if prevInertia-inertia <= c.Tolerance*math.Max(prevInertia, 1e-30) && iter > 0 {
			prevInertia = inertia
			break
		}
		prevInertia = inertia
	}
	finalInertia := assignAll(x, centroids, assign, dists, c.Parallel)
	return &Result{Centroids: centroids, Assign: assign, Inertia: finalInertia, Iterations: iters}, nil
}

// seedPlusPlus picks k initial centroids with the k-means++ strategy.
func seedPlusPlus(x *vec.Matrix, k int, rng *rand.Rand) *vec.Matrix {
	n, d := x.Rows, x.Cols
	centroids := vec.NewMatrix(k, d)
	first := rng.Intn(n)
	copy(centroids.Row(0), x.Row(first))
	if k == 1 {
		return centroids
	}
	minDist := make([]float64, n)
	for i := 0; i < n; i++ {
		minDist[i] = float64(vec.SquaredL2(x.Row(i), centroids.Row(0)))
	}
	for c := 1; c < k; c++ {
		var total float64
		for _, dd := range minDist {
			total += dd
		}
		var chosen int
		if total <= 0 {
			chosen = rng.Intn(n)
		} else {
			target := rng.Float64() * total
			var acc float64
			chosen = n - 1
			for i, dd := range minDist {
				acc += dd
				if acc >= target {
					chosen = i
					break
				}
			}
		}
		copy(centroids.Row(c), x.Row(chosen))
		for i := 0; i < n; i++ {
			dd := float64(vec.SquaredL2(x.Row(i), centroids.Row(c)))
			if dd < minDist[i] {
				minDist[i] = dd
			}
		}
	}
	return centroids
}

// assignAll assigns every row of x to its nearest centroid, filling assign
// and dists, and returns the total inertia.
func assignAll(x *vec.Matrix, centroids *vec.Matrix, assign []int, dists []float32, parallel bool) float64 {
	n := x.Rows
	view := newSortedView(centroids)
	workers := 1
	if parallel {
		workers = runtime.GOMAXPROCS(0)
		if workers > n/1024+1 {
			workers = n/1024 + 1
		}
	}
	if workers <= 1 {
		return assignRange(x, view, assign, dists, 0, n)
	}
	var wg sync.WaitGroup
	partial := make([]float64, workers)
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			partial[w] = assignRange(x, view, assign, dists, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	var total float64
	for _, p := range partial {
		total += p
	}
	return total
}

func assignRange(x *vec.Matrix, centroids sortedView, assign []int, dists []float32, lo, hi int) float64 {
	var inertia float64
	for i := lo; i < hi; i++ {
		assign[i], dists[i] = centroids.nearest(x.Row(i))
		inertia += float64(dists[i])
	}
	return inertia
}

func farthestPoint(dists []float32) int {
	best, bestD := 0, float32(-1)
	for i, d := range dists {
		if d > bestD {
			bestD = d
			best = i
		}
	}
	return best
}

// trainHierarchical trains a large codebook by first clustering into
// HierarchicalBranch groups and then splitting each group into its
// proportional share of the K centroids (paper §III-D).
func trainHierarchical(x *vec.Matrix, c Config, assignAll assignFunc) (*Result, error) {
	top := c
	top.K = c.HierarchicalBranch
	top.HierarchicalThreshold = 0
	if top.K > c.K {
		top.K = c.K
	}
	coarse, err := trainFlat(x, top, assignAll)
	if err != nil {
		return nil, err
	}
	kTop := coarse.Centroids.Rows
	// Group member indices per coarse cluster.
	groups := make([][]int, kTop)
	for i, a := range coarse.Assign {
		groups[a] = append(groups[a], i)
	}
	// Allocate sub-centroid counts proportionally to cluster sizes, at
	// least 1 each, summing exactly to K.
	subK := make([]int, kTop)
	remaining := c.K
	for g := range groups {
		subK[g] = 1
		remaining--
	}
	for remaining > 0 {
		// Largest remainder: give the next centroid to the group with the
		// highest members-per-centroid ratio.
		best, bestRatio := 0, -1.0
		for g := range groups {
			ratio := float64(len(groups[g])) / float64(subK[g])
			if ratio > bestRatio {
				bestRatio = ratio
				best = g
			}
		}
		subK[best]++
		remaining--
	}
	d := x.Cols
	centroids := vec.NewMatrix(c.K, d)
	offsets := make([]int, kTop)
	next := 0
	for g := range groups {
		offsets[g] = next
		if len(groups[g]) == 0 {
			// Empty coarse cluster: keep its centroid as the single
			// representative so indexes remain valid.
			copy(centroids.Row(next), coarse.Centroids.Row(g))
			next += subK[g]
			continue
		}
		sub := x.SelectRowsCopy(groups[g])
		cfg := c
		cfg.K = subK[g]
		cfg.HierarchicalThreshold = 0
		cfg.Seed = c.Seed + int64(g) + 1
		res, err := trainFlat(sub, cfg, assignAll)
		if err != nil {
			return nil, err
		}
		for j := 0; j < res.Centroids.Rows; j++ {
			copy(centroids.Row(next+j), res.Centroids.Row(j))
		}
		// If the subset had fewer points than subK[g], pad duplicate rows
		// with the coarse centroid so every slot is a valid vector.
		for j := res.Centroids.Rows; j < subK[g]; j++ {
			copy(centroids.Row(next+j), coarse.Centroids.Row(g))
		}
		next += subK[g]
	}
	assign := make([]int, x.Rows)
	dists := make([]float32, x.Rows)
	inertia := assignAll(x, centroids, assign, dists, c.Parallel)
	return &Result{Centroids: centroids, Assign: assign, Inertia: inertia, Iterations: coarse.Iterations}, nil
}
