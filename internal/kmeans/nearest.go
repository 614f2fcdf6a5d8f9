package kmeans

import (
	"math"
	"sort"

	"vaq/internal/vec"
)

// Nearest-centroid search. Every caller — Lloyd assignment, dictionary
// encoding, Add — gets the answer of the plain linear scan: the row with
// the smallest vec.SquaredL2 to v, the lowest row index among equal
// distances, and that distance, bit for bit.
//
// NearestSorted gets there without visiting every row. It needs rows that
// ascend by first coordinate (SortRows, IsSorted) and walks outward from
// v's position in that order; a direction stops at the first row whose
// first squared term alone exceeds the best distance so far — the paper's
// variance-ordered early abandon (§III-E), applied to the encoder. The stop
// is exact in floating point, with no epsilon:
//
//   - SquaredL2 starts from the first squared term and only ever adds
//     non-negative terms, and a float32 sum of non-negative terms never
//     rounds below any of them, so the distance is >= fl((v0-c0)^2);
//   - fl((v0-c0)^2) is monotone in |v0-c0|, so once it exceeds the best
//     distance every farther row in that direction is strictly worse;
//   - the stop is on strict > only, so a row that could tie is still
//     visited and the lowest-index rule decides.
//
// The search is undefined on NaN (every comparison is false); callers
// reject non-finite input before it gets here.

// Nearest scans every row of centroids: the form for dictionaries whose
// row order carries meaning and cannot be sorted (TI centroids, streams
// written before dictionaries were stored in canonical order).
func Nearest(centroids *vec.Matrix, v []float32) (int, float32) {
	best, bestD := 0, vec.SquaredL2(v, centroids.Row(0))
	for c := 1; c < centroids.Rows; c++ {
		if d := vec.SquaredL2(v, centroids.Row(c)); d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}

// NearestSorted returns exactly what Nearest returns, for centroids that
// satisfy IsSorted.
func NearestSorted(centroids *vec.Matrix, v []float32) (int, float32) {
	return nearestSorted(centroids.Data, centroids.Cols, nil, v)
}

// IsSorted reports whether m's rows ascend by first coordinate, the
// precondition of NearestSorted.
func IsSorted(m *vec.Matrix) bool {
	if m.Cols == 0 {
		return false
	}
	for i := 1; i < m.Rows; i++ {
		if !(m.Data[(i-1)*m.Cols] <= m.Data[i*m.Cols]) {
			return false
		}
	}
	return true
}

// SortRows puts m's rows in canonical order, ascending by (first
// coordinate, current index), in place. Row indices are relabelled; the set
// of rows is unchanged.
func SortRows(m *vec.Matrix) {
	copy(m.Data, newSortedView(m).rows)
}

// sortedView is a transient canonical-order copy of centroids that still
// answers in the original row numbering: orig[p] is the original index of
// sorted row p. Lloyd iterations build one per assignment pass, because
// their centroids move between passes.
type sortedView struct {
	rows []float32
	d    int
	orig []int32
}

func newSortedView(m *vec.Matrix) sortedView {
	k, d := m.Rows, m.Cols
	orig := make([]int32, k)
	for i := range orig {
		orig[i] = int32(i)
	}
	sort.Slice(orig, func(a, b int) bool {
		ca, cb := m.Data[int(orig[a])*d], m.Data[int(orig[b])*d]
		if ca != cb {
			return ca < cb
		}
		return orig[a] < orig[b]
	})
	rows := make([]float32, k*d)
	for p, o := range orig {
		copy(rows[p*d:(p+1)*d], m.Row(int(o)))
	}
	return sortedView{rows: rows, d: d, orig: orig}
}

// nearest is Nearest over the viewed matrix, in its original numbering.
func (s sortedView) nearest(v []float32) (int, float32) {
	p, dist := nearestSorted(s.rows, s.d, s.orig, v)
	return int(s.orig[p]), dist
}

// nearestSorted searches k = len(rows)/d sorted rows and returns the sorted
// position of the winner. orig, when non-nil, gives each position's
// original index for the tie rule; nil means positions are the indices.
func nearestSorted(rows []float32, d int, orig []int32, v []float32) (int, float32) {
	k := len(rows) / d
	v0 := v[0]
	// from: the first row whose first coordinate is >= v0.
	from, hi := 0, k
	for from < hi {
		mid := int(uint(from+hi) >> 1)
		if rows[mid*d] < v0 {
			from = mid + 1
		} else {
			hi = mid
		}
	}
	best, bestD := -1, float32(math.Inf(1))
	for _, sweep := range [2]struct{ from, end, step int }{{from, k, 1}, {from - 1, -1, -1}} {
		for i := sweep.from; i != sweep.end; i += sweep.step {
			var dist float32
			if d == 4 {
				// SquaredL2 at n=4, with every product rounded before the
				// sum (the conversions stop a fused multiply-add from
				// skipping that rounding).
				r := rows[i*4 : i*4+4 : i*4+4]
				t0, t1, t2, t3 := v0-r[0], v[1]-r[1], v[2]-r[2], v[3]-r[3]
				first := float32(t0 * t0)
				if first > bestD {
					break
				}
				dist = first + float32(t1*t1) + float32(t2*t2) + float32(t3*t3)
			} else {
				row := rows[i*d : (i+1)*d : (i+1)*d]
				t0 := v0 - row[0]
				if float32(t0*t0) > bestD {
					break
				}
				dist = vec.SquaredL2(v, row)
			}
			if dist < bestD || (dist == bestD && lowerIndex(orig, i, best)) {
				best, bestD = i, dist
			}
		}
	}
	if best < 0 {
		// Only NaN input gets here; answer with the linear scan's row 0.
		return 0, float32(math.NaN())
	}
	return best, bestD
}

// lowerIndex reports whether sorted position i precedes position best in
// the original numbering (best < 0: nothing chosen yet).
func lowerIndex(orig []int32, i, best int) bool {
	if best < 0 {
		return true
	}
	if orig == nil {
		return i < best
	}
	return orig[i] < orig[best]
}
