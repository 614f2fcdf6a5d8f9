// Package imi implements the Inverted Multi-Index (Babenko & Lempitsky;
// paper §II-C and Figure 11, "IMI+OPQ") over OPQ-encoded data: the rotated
// space is split into two halves, each coarsely quantized by k-means, and
// the Cartesian product of the two coarse codebooks forms a fine-grained
// cell grid. Queries traverse cells in increasing distance order with the
// multi-sequence algorithm, collect a bounded candidate list, and rank the
// candidates with the OPQ ADC lookup tables.
//
// As the paper observes, this speeds queries up but cannot improve recall
// over the exhaustive OPQ scan — candidates outside the visited cells are
// lost. That trade-off is exactly what Figure 11 measures.
package imi

import (
	"container/heap"
	"fmt"
	"sort"

	"vaq/internal/kmeans"
	"vaq/internal/quantizer"
	"vaq/internal/vec"
)

// Config controls Build.
type Config struct {
	// CoarseBits: each half uses 2^CoarseBits coarse centroids, giving
	// 4^CoarseBits cells (paper-scale uses 2^14 per half; at laptop scale
	// 6-8 bits is proportionate).
	CoarseBits int
	// OPQ is the fine quantizer configuration.
	OPQ quantizer.OPQConfig
	// Seed drives the coarse k-means.
	Seed int64
}

// Index is a built inverted multi-index.
type Index struct {
	opq      *quantizer.OPQ
	books    [2]*vec.Matrix
	halfDim  [2]int
	cells    map[uint32][]int32
	k        int // coarse centroids per half
	n        int
	queryDim int
}

// Build trains the OPQ fine quantizer and the two-half coarse structure.
func Build(train, data *vec.Matrix, cfg Config) (*Index, error) {
	if cfg.CoarseBits < 1 || cfg.CoarseBits > 12 {
		return nil, fmt.Errorf("imi: CoarseBits=%d out of range [1,12]", cfg.CoarseBits)
	}
	opq, err := quantizer.TrainOPQ(train, data, cfg.OPQ)
	if err != nil {
		return nil, err
	}
	d := train.Cols
	h0 := d / 2
	h1 := d - h0
	ix := &Index{
		opq:      opq,
		halfDim:  [2]int{h0, h1},
		cells:    make(map[uint32][]int32),
		k:        1 << cfg.CoarseBits,
		n:        data.Rows,
		queryDim: d,
	}
	// Transform base vectors once.
	rot := vec.NewMatrix(data.Rows, d)
	for i := 0; i < data.Rows; i++ {
		z, err := opq.TransformQuery(data.Row(i))
		if err != nil {
			return nil, err
		}
		copy(rot.Row(i), z)
	}
	halves := [2]*vec.Matrix{
		rot.SelectColumnsRange(0, h0),
		rot.SelectColumnsRange(h0, d),
	}
	for h := 0; h < 2; h++ {
		res, err := kmeans.Train(halves[h], kmeans.Config{
			K:        ix.k,
			Seed:     cfg.Seed + int64(h),
			Parallel: true,
		})
		if err != nil {
			return nil, err
		}
		ix.books[h] = res.Centroids
	}
	// Coarse cell assignment.
	for i := 0; i < data.Rows; i++ {
		c0, _ := kmeans.Nearest(ix.books[0], halves[0].Row(i))
		c1, _ := kmeans.Nearest(ix.books[1], halves[1].Row(i))
		key := uint32(c0)<<16 | uint32(c1)
		ix.cells[key] = append(ix.cells[key], int32(i))
	}
	return ix, nil
}

// Len reports the number of indexed vectors.
func (ix *Index) Len() int { return ix.n }

// msNode is a multi-sequence frontier entry.
type msNode struct {
	i, j int
	dist float32
}

type msHeap []msNode

func (h msHeap) Len() int            { return len(h) }
func (h msHeap) Less(a, b int) bool  { return h[a].dist < h[b].dist }
func (h msHeap) Swap(a, b int)       { h[a], h[b] = h[b], h[a] }
func (h *msHeap) Push(x interface{}) { *h = append(*h, x.(msNode)) }
func (h *msHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Search visits cells in increasing distance order until at least
// candidates ids are collected (or cells are exhausted), then ranks them
// with the OPQ lookup tables and returns the k best.
func (ix *Index) Search(q []float32, k, candidates int) ([]vec.Neighbor, error) {
	if len(q) != ix.queryDim {
		return nil, fmt.Errorf("imi: query dim %d, index dim %d", len(q), ix.queryDim)
	}
	if k < 1 {
		return nil, fmt.Errorf("imi: k must be >= 1, got %d", k)
	}
	if candidates < k {
		candidates = k
	}
	z, err := ix.opq.TransformQuery(q)
	if err != nil {
		return nil, err
	}
	// Distances to coarse centroids per half, sorted ascending.
	type scored struct {
		id   int
		dist float32
	}
	var order [2][]scored
	for h := 0; h < 2; h++ {
		var part []float32
		if h == 0 {
			part = z[:ix.halfDim[0]]
		} else {
			part = z[ix.halfDim[0]:]
		}
		list := make([]scored, ix.k)
		for c := 0; c < ix.k; c++ {
			list[c] = scored{c, vec.SquaredL2(part, ix.books[h].Row(c))}
		}
		sort.Slice(list, func(a, b int) bool { return list[a].dist < list[b].dist })
		order[h] = list
	}
	// Multi-sequence traversal.
	collected := make([]int32, 0, candidates)
	frontier := &msHeap{{0, 0, order[0][0].dist + order[1][0].dist}}
	pushed := map[[2]int]bool{{0, 0}: true}
	for frontier.Len() > 0 && len(collected) < candidates {
		nd := heap.Pop(frontier).(msNode)
		key := uint32(order[0][nd.i].id)<<16 | uint32(order[1][nd.j].id)
		collected = append(collected, ix.cells[key]...)
		if nd.i+1 < ix.k {
			p := [2]int{nd.i + 1, nd.j}
			if !pushed[p] {
				pushed[p] = true
				heap.Push(frontier, msNode{p[0], p[1], order[0][p[0]].dist + order[1][p[1]].dist})
			}
		}
		if nd.j+1 < ix.k {
			p := [2]int{nd.i, nd.j + 1}
			if !pushed[p] {
				pushed[p] = true
				heap.Push(frontier, msNode{p[0], p[1], order[0][p[0]].dist + order[1][p[1]].dist})
			}
		}
	}
	// Rank candidates with the OPQ ADC tables.
	lut := ix.opq.Codebooks().BuildLUT(z)
	codes := ix.opq.Codes()
	tk := vec.NewTopK(k)
	for _, id := range collected {
		tk.Push(int(id), lut.Distance(codes.Row(int(id))))
	}
	return tk.Results(), nil
}
