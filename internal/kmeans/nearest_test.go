package kmeans

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"vaq/internal/vec"
)

// linearNearest is the oracle: the loop every caller ran before the bounded
// search existed. Lowest index wins ties because only a strictly smaller
// distance replaces the incumbent.
func linearNearest(centroids *vec.Matrix, v []float32) (int, float32) {
	best := 0
	bestD := vec.SquaredL2(v, centroids.Row(0))
	for c := 1; c < centroids.Rows; c++ {
		d := vec.SquaredL2(v, centroids.Row(c))
		if d < bestD {
			bestD = d
			best = c
		}
	}
	return best, bestD
}

// linearAssignAll is assignAll through the oracle, for train.
func linearAssignAll(x, centroids *vec.Matrix, assign []int, dists []float32, _ bool) float64 {
	var inertia float64
	for i := 0; i < x.Rows; i++ {
		assign[i], dists[i] = linearNearest(centroids, x.Row(i))
		inertia += float64(dists[i])
	}
	return inertia
}

// checkNearest compares every search form with the oracle on one
// (dictionary, query) pair: the view over m as given, and NearestSorted and
// Nearest over a canonically sorted copy.
func checkNearest(t *testing.T, m *vec.Matrix, v []float32) {
	t.Helper()
	wantI, wantD := linearNearest(m, v)
	gotI, gotD := newSortedView(m).nearest(v)
	if gotI != wantI || math.Float32bits(gotD) != math.Float32bits(wantD) {
		t.Fatalf("view: got (%d, %x) want (%d, %x); K=%d d=%d v=%v",
			gotI, math.Float32bits(gotD), wantI, math.Float32bits(wantD), m.Rows, m.Cols, v)
	}
	sorted := m.Clone()
	SortRows(sorted)
	if !IsSorted(sorted) {
		t.Fatalf("SortRows left K=%d d=%d unsorted", m.Rows, m.Cols)
	}
	wantI, wantD = linearNearest(sorted, v)
	for name, f := range map[string]func(*vec.Matrix, []float32) (int, float32){
		"NearestSorted": NearestSorted, "Nearest": Nearest,
	} {
		gotI, gotD = f(sorted, v)
		if gotI != wantI || math.Float32bits(gotD) != math.Float32bits(wantD) {
			t.Fatalf("%s: got (%d, %x) want (%d, %x); K=%d d=%d v=%v",
				name, gotI, math.Float32bits(gotD), wantI, math.Float32bits(wantD), m.Rows, m.Cols, v)
		}
	}
}

// dictionary draws a K x d matrix in one of the shapes that stress the tie
// and stop rules.
func dictionary(rng *rand.Rand, k, d, shape int) *vec.Matrix {
	m := vec.NewMatrix(k, d)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	switch shape {
	case 1: // duplicated rows
		for i := 1; i < k; i += 2 {
			copy(m.Row(i), m.Row(rng.Intn(i)))
		}
	case 2: // constant first coordinate: nothing can be pruned
		for i := 0; i < k; i++ {
			m.Row(i)[0] = 0.5
		}
	case 3: // few distinct first coordinates, +0 and -0 among them
		first := []float32{0, float32(math.Copysign(0, -1)), 1, -1}
		for i := 0; i < k; i++ {
			m.Row(i)[0] = first[rng.Intn(len(first))]
		}
	case 4: // denormals: squares underflow to zero and everything ties
		for i := range m.Data {
			m.Data[i] = math.Float32frombits(uint32(rng.Intn(1 << 12)))
		}
	case 5: // a coarse grid: many exactly equal distances
		for i := range m.Data {
			m.Data[i] = float32(rng.Intn(3))
		}
	}
	return m
}

func TestNearestMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []int{1, 2, 3, 4, 5, 8, 16} {
		for _, k := range []int{1, 2, 15, 16, 17, 300, 2048} {
			for shape := 0; shape <= 5; shape++ {
				m := dictionary(rng, k, d, shape)
				queries := 40
				if k > 300 {
					queries = 12
				}
				for q := 0; q < queries; q++ {
					v := make([]float32, d)
					switch q % 4 {
					case 0: // a centroid itself
						copy(v, m.Row(rng.Intn(k)))
					case 1: // halfway between two centroids
						a, b := m.Row(rng.Intn(k)), m.Row(rng.Intn(k))
						for j := range v {
							v[j] = (a[j] + b[j]) / 2
						}
					case 2: // outside the dictionary's range
						for j := range v {
							v[j] = float32(rng.NormFloat64() * 50)
						}
					default:
						for j := range v {
							v[j] = float32(rng.NormFloat64())
						}
					}
					if shape == 4 {
						for j := range v {
							v[j] = math.Float32frombits(uint32(rng.Intn(1 << 12)))
						}
					}
					checkNearest(t, m, v)
				}
			}
		}
	}
}

// A distance that overflows to +Inf ties with the initial bound; the lowest
// index must still win, as in the linear scan.
func TestNearestOverflowingDistances(t *testing.T) {
	m, _ := vec.FromRows([][]float32{{3e38, 0}, {-3e38, 0}, {3e38, 1}, {-3e38, 1}})
	checkNearest(t, m, []float32{0, 3e38})
	checkNearest(t, m, []float32{3e38, -3e38})
}

func FuzzNearest(f *testing.F) {
	f.Add(uint8(4), uint8(17), int64(1), []byte{})
	f.Add(uint8(1), uint8(3), int64(2), []byte{0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(8), uint8(200), int64(3), []byte{1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, dRaw, kRaw uint8, seed int64, raw []byte) {
		d := int(dRaw)%16 + 1
		k := int(kRaw) + 1
		rng := rand.New(rand.NewSource(seed))
		m := dictionary(rng, k, d, int(uint64(seed)%6))
		// The fuzzer's bytes overwrite leading entries and become the query.
		vals := make([]float32, 0, len(raw)/4)
		for ; len(raw) >= 4; raw = raw[4:] {
			x := math.Float32frombits(binary.LittleEndian.Uint32(raw))
			if x-x != 0 {
				x = 0 // non-finite input is rejected before the search
			}
			vals = append(vals, x)
		}
		copy(m.Data, vals)
		v := make([]float32, d)
		copy(v, m.Row(rng.Intn(k)))
		if len(vals) >= d {
			copy(v, vals[len(vals)-d:])
		}
		checkNearest(t, m, v)
	})
}

// Training through the bounded search must be indistinguishable from
// training through the linear scan: same centroids, assignments, inertia.
func TestTrainMatchesLinearScanTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name string
		n, d int
		cfg  Config
	}{
		{"flat-4d", 1500, 4, Config{K: 64, Seed: 3}},
		{"flat-parallel", 3000, 4, Config{K: 32, Seed: 4, Parallel: true}},
		{"flat-1d", 400, 1, Config{K: 16, Seed: 5}},
		{"flat-9d-empty-repair", 60, 9, Config{K: 50, Seed: 6}},
		{"hierarchical", 4000, 4, Config{K: 512, Seed: 7, HierarchicalThreshold: 128, HierarchicalBranch: 16}},
		{"hierarchical-3d", 2500, 3, Config{K: 300, Seed: 8, HierarchicalThreshold: 64}},
	} {
		x := vec.NewMatrix(tc.n, tc.d)
		for i := range x.Data {
			x.Data[i] = float32(rng.NormFloat64())
		}
		// Duplicate points make empty clusters and exact ties likely.
		for i := 0; i < tc.n/10; i++ {
			copy(x.Row(rng.Intn(tc.n)), x.Row(rng.Intn(tc.n)))
		}
		got, err := Train(x, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := train(x, tc.cfg, linearAssignAll)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !got.Centroids.Equal(want.Centroids) {
			t.Fatalf("%s: centroids differ from the linear-scan run", tc.name)
		}
		for i := range want.Assign {
			if got.Assign[i] != want.Assign[i] {
				t.Fatalf("%s: Assign[%d] = %d, linear-scan run %d", tc.name, i, got.Assign[i], want.Assign[i])
			}
		}
		if got.Inertia != want.Inertia || got.Iterations != want.Iterations {
			t.Fatalf("%s: inertia/iterations %v/%d, linear-scan run %v/%d",
				tc.name, got.Inertia, got.Iterations, want.Inertia, want.Iterations)
		}
	}
}

func benchDictionary(k, d int) (*vec.Matrix, [][]float32) {
	rng := rand.New(rand.NewSource(1))
	m := dictionary(rng, k, d, 0)
	SortRows(m)
	qs := make([][]float32, 1024)
	for i := range qs {
		qs[i] = make([]float32, d)
		for j := range qs[i] {
			qs[i][j] = float32(rng.NormFloat64())
		}
	}
	return m, qs
}

var sinkIdx int

func BenchmarkNearestSorted2048x4(b *testing.B) {
	m, qs := benchDictionary(2048, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkIdx, _ = NearestSorted(m, qs[i%len(qs)])
	}
}

func BenchmarkNearestLinear2048x4(b *testing.B) {
	m, qs := benchDictionary(2048, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkIdx, _ = Nearest(m, qs[i%len(qs)])
	}
}
