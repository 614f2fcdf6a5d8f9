package main

import (
	"container/heap"
	"math"
	"math/rand"
	"sync"
)

// The benchmark owns its inputs: the generators and the exact k-NN below
// are the benchmark's own copies, so an edit to internal/dataset or
// internal/eval cannot move the numbers. Everything is a function of the
// -seed argument; the program under measurement only ever sees vectors.

// Independent random streams of one seed, so the length of one phase never
// shifts the inputs of another.
const (
	streamBase = iota + 1
	streamHeldOut
	streamWarmup
	streamSingle
	streamBatch
	streamMixed
	streamTraced
	streamArmed
)

func newStream(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*7919))
}

// rows allocates n vectors of d floats over one backing array.
func rows(n, d int) [][]float32 {
	flat := make([]float32, n*d)
	out := make([][]float32, n)
	for i := range out {
		out[i] = flat[i*d : (i+1)*d : (i+1)*d]
	}
	return out
}

// randomWalk fills out with z-normalised series made of a smooth 1/f
// mixture of sinusoids (which packs the variance into the first principal
// components) plus per-point noise and a weak drift. smoothness 0.75 gives
// the SALD-like skewed spectrum the paper's gains depend on.
func randomWalk(rng *rand.Rand, out [][]float32, smoothness float64) {
	const harmonics = 8
	var amps, phases [harmonics]float64
	for _, r := range out {
		d := len(r)
		for h := range amps {
			amps[h] = rng.NormFloat64() / float64(h+1)
			phases[h] = rng.Float64() * 2 * math.Pi
		}
		var drift float64
		for j := range r {
			t := float64(j) / float64(d)
			var smooth float64
			for h := range amps {
				smooth += amps[h] * math.Sin(2*math.Pi*float64(h+1)*t+phases[h])
			}
			drift += rng.NormFloat64()
			noise := rng.NormFloat64() + 0.2*drift/math.Sqrt(float64(d))
			r[j] = float32(smoothness*smooth + (1-smoothness)*noise)
		}
		zNormalize(r)
	}
}

func zNormalize(a []float32) {
	var sum float64
	for _, v := range a {
		sum += float64(v)
	}
	mean := sum / float64(len(a))
	var ss float64
	for _, v := range a {
		t := float64(v) - mean
		ss += t * t
	}
	std := math.Sqrt(ss / float64(len(a)))
	if std == 0 {
		std = 1
	}
	for i, v := range a {
		a[i] = float32((float64(v) - mean) / std)
	}
}

// columnStds is the per-dimension scale the query noise is relative to.
func columnStds(base [][]float32) []float64 {
	d := len(base[0])
	sum := make([]float64, d)
	sq := make([]float64, d)
	for _, r := range base {
		for j, v := range r {
			sum[j] += float64(v)
			sq[j] += float64(v) * float64(v)
		}
	}
	n := float64(len(base))
	stds := make([]float64, d)
	for j := range stds {
		mean := sum[j] / n
		stds[j] = math.Sqrt(math.Max(sq[j]/n-mean*mean, 0))
		if stds[j] == 0 {
			stds[j] = 1
		}
	}
	return stds
}

// querySource draws queries: noisy copies of base rows, each with its own
// noise level drawn uniformly from [minNoise, maxNoise] of the
// per-dimension scale, so every window of a phase sees the same mix of
// easy and hard queries. A source never repeats a query.
type querySource struct {
	rng  *rand.Rand
	base [][]float32
	stds []float64
}

const minNoise, maxNoise = 0.02, 0.3

func (s *querySource) take(n int) [][]float32 {
	out := rows(n, len(s.stds))
	for _, q := range out {
		level := minNoise + (maxNoise-minNoise)*s.rng.Float64()
		src := s.base[s.rng.Intn(len(s.base))]
		for j := range q {
			q[j] = src[j] + float32(s.rng.NormFloat64()*level*s.stds[j])
		}
	}
	return out
}

func squaredL2(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0, d1, d2, d3 := a[i]-b[i], a[i+1]-b[i+1], a[i+2]-b[i+2], a[i+3]-b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return s0 + s1 + s2 + s3
}

// farthestFirst is a max-heap of the k best candidates so far.
type farthestFirst []neighbor

type neighbor struct {
	id   int32
	dist float32
}

func (h farthestFirst) Len() int { return len(h) }
func (h farthestFirst) Less(i, j int) bool {
	if h[i].dist != h[j].dist {
		return h[i].dist > h[j].dist
	}
	return h[i].id > h[j].id
}
func (h farthestFirst) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *farthestFirst) Push(x any)   { *h = append(*h, x.(neighbor)) }
func (h *farthestFirst) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// exactKNN is the brute-force k nearest neighbours of q among base on the
// raw vectors (ties broken by id): the ground truth recall is read against.
func exactKNN(base [][]float32, q []float32, k int) []int32 {
	h := make(farthestFirst, 0, k)
	for i, r := range base {
		c := neighbor{id: int32(i), dist: squaredL2(q, r)}
		switch {
		case len(h) < k:
			heap.Push(&h, c)
		case c.dist < h[0].dist:
			h[0] = c
			heap.Fix(&h, 0)
		}
	}
	ids := make([]int32, len(h))
	for i := len(h) - 1; i >= 0; i-- {
		ids[i] = heap.Pop(&h).(neighbor).id
	}
	return ids
}

// groundTruth answers every query exactly, spreading them over workers.
func groundTruth(base, queries [][]float32, k, workers int) [][]int32 {
	truth := make([][]int32, len(queries))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queries); i += workers {
				truth[i] = exactKNN(base, queries[i], k)
			}
		}(w)
	}
	wg.Wait()
	return truth
}

// recallAt is |answer ∩ truth| / |truth| for one query.
func recallAt(answer []int32, truth []int32) float64 {
	want := make(map[int32]struct{}, len(truth))
	for _, id := range truth {
		want[id] = struct{}{}
	}
	hits := 0
	for _, id := range answer {
		if _, ok := want[id]; ok {
			hits++
		}
	}
	return float64(hits) / float64(len(truth))
}
