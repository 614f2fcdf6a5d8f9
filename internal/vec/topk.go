package vec

import (
	"cmp"
	"slices"
)

// Neighbor is one search result: the index of a database vector and its
// distance to the query. Distances are whatever metric the producer used
// (typically squared or plain Euclidean) but are always "smaller is closer".
type Neighbor struct {
	ID   int
	Dist float32
}

// TopK is a bounded max-heap of the K closest neighbors seen so far.
// The root holds the current worst (largest-distance) retained neighbor, so
// Threshold is an O(1) best-so-far bound for pruning.
//
// An external bound (SetBound) caps admission before the heap fills: a
// scatter-gather merge can feed the running global k-th distance into each
// partition's collector, so candidates provably outside the merged top-k
// are pruned with the same machinery as heap-full early abandoning.
//
// The zero value is unusable; construct with NewTopK.
type TopK struct {
	k     int
	bound float32
	heap  []Neighbor
}

// NewTopK returns a collector for the k nearest neighbors. k must be >= 1.
func NewTopK(k int) *TopK {
	if k < 1 {
		panic("vec: TopK requires k >= 1")
	}
	return &TopK{k: k, bound: maxFloat32, heap: make([]Neighbor, 0, k)}
}

// Len reports how many neighbors are currently retained (<= k).
func (t *TopK) Len() int { return len(t.heap) }

// Full reports whether k neighbors have been collected.
func (t *TopK) Full() bool { return len(t.heap) == t.k }

// SetBound installs an external admission bound: candidates with
// dist > b are rejected even while the heap is not yet full, and Threshold
// reports min(b, previous bound) until k retained neighbors beat it. A
// bound only ever tightens; Reset keeps it (reuse NewTopK for a clean
// collector). Boundary ties (dist == b) are still admitted so an external
// k-th distance never evicts its own tie cohort.
func (t *TopK) SetBound(b float32) {
	if b < t.bound {
		t.bound = b
	}
}

// Pruning reports whether Threshold is an actionable pruning bound: the
// heap is full, or an external bound was installed via SetBound.
func (t *TopK) Pruning() bool { return len(t.heap) == t.k || t.bound < maxFloat32 }

// Threshold returns the distance of the worst retained neighbor, or the
// external bound (+Inf behaviourally, math.MaxFloat32, when none was set)
// while fewer than k neighbors are held.
func (t *TopK) Threshold() float32 {
	if len(t.heap) < t.k {
		return t.bound
	}
	return t.heap[0].Dist
}

const maxFloat32 = float32(3.4028234663852886e+38)

// Push offers a candidate. It is accepted if the heap is not yet full (and
// the candidate does not exceed the external bound) or the candidate beats
// the current worst. Returns true if accepted.
func (t *TopK) Push(id int, dist float32) bool {
	if len(t.heap) < t.k {
		if dist > t.bound {
			return false
		}
		t.heap = append(t.heap, Neighbor{ID: id, Dist: dist})
		t.siftUp(len(t.heap) - 1)
		return true
	}
	if dist >= t.heap[0].Dist {
		return false
	}
	t.heap[0] = Neighbor{ID: id, Dist: dist}
	t.siftDown(0)
	return true
}

// Reset empties the collector for reuse. It keeps the external bound.
func (t *TopK) Reset() { t.heap = t.heap[:0] }

// Reinit makes t the collector NewTopK(k) would return, reusing its heap
// storage: the heap is emptied and the external bound cleared.
func (t *TopK) Reinit(k int) {
	if k < 1 {
		panic("vec: TopK requires k >= 1")
	}
	t.k, t.bound = k, maxFloat32
	if cap(t.heap) < k {
		t.heap = make([]Neighbor, 0, k)
	}
	t.heap = t.heap[:0]
}

// Heap exposes the retained neighbors in internal heap order, without
// copying or sorting. The caller must not mutate the slice, and any Push
// or Reset invalidates it — it aliases the collector's backing array.
func (t *TopK) Heap() []Neighbor { return t.heap }

// Results returns the retained neighbors sorted ascending by distance
// (ties broken by ID). The collector remains valid afterwards. The
// returned slice is its only allocation.
func (t *TopK) Results() []Neighbor {
	out := make([]Neighbor, len(t.heap))
	copy(out, t.heap)
	slices.SortFunc(out, func(a, b Neighbor) int {
		switch {
		case a.Dist < b.Dist:
			return -1
		case a.Dist > b.Dist:
			return 1
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return out
}

func (t *TopK) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if t.heap[p].Dist >= t.heap[i].Dist {
			return
		}
		t.heap[p], t.heap[i] = t.heap[i], t.heap[p]
		i = p
	}
}

func (t *TopK) siftDown(i int) {
	n := len(t.heap)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && t.heap[l].Dist > t.heap[big].Dist {
			big = l
		}
		if r < n && t.heap[r].Dist > t.heap[big].Dist {
			big = r
		}
		if big == i {
			return
		}
		t.heap[i], t.heap[big] = t.heap[big], t.heap[i]
		i = big
	}
}
