package kmeans

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vaq/internal/vec"
)

// blobs generates n points around k well-separated centers.
func blobs(rng *rand.Rand, n, d, k int, sep float64) (*vec.Matrix, []int) {
	centers := vec.NewMatrix(k, d)
	for i := range centers.Data {
		centers.Data[i] = float32(rng.NormFloat64() * sep)
	}
	x := vec.NewMatrix(n, d)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := rng.Intn(k)
		labels[i] = c
		row := x.Row(i)
		cr := centers.Row(c)
		for j := 0; j < d; j++ {
			row[j] = cr[j] + float32(rng.NormFloat64()*0.1)
		}
	}
	return x, labels
}

func TestTrainRecoverClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, labels := blobs(rng, 600, 4, 3, 10)
	res, err := Train(x, Config{K: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if res.Centroids.Rows != 3 {
		t.Fatalf("centroids %d", res.Centroids.Rows)
	}
	// All points of the same true cluster must map to the same centroid.
	mapping := map[int]int{}
	for i, a := range res.Assign {
		if prev, ok := mapping[labels[i]]; ok && prev != a {
			t.Fatalf("cluster %d split across centroids %d and %d", labels[i], prev, a)
		}
		mapping[labels[i]] = a
	}
	if len(mapping) != 3 {
		t.Fatalf("expected 3 distinct centroids, got %d", len(mapping))
	}
	if res.Inertia > float64(x.Rows)*0.1*0.1*4*3 {
		t.Fatalf("inertia too high: %v", res.Inertia)
	}
}

func TestTrainErrors(t *testing.T) {
	x := vec.NewMatrix(5, 2)
	if _, err := Train(x, Config{K: 0}); err == nil {
		t.Fatal("K=0 must fail")
	}
	if _, err := Train(vec.NewMatrix(0, 2), Config{K: 1}); err == nil {
		t.Fatal("empty input must fail")
	}
}

func TestTrainKGreaterThanN(t *testing.T) {
	x, _ := vec.FromRows([][]float32{{0, 0}, {10, 10}})
	res, err := Train(x, Config{K: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Centroids.Rows != 2 {
		t.Fatalf("K should clamp to n: got %d centroids", res.Centroids.Rows)
	}
	if res.Inertia > 1e-9 {
		t.Fatalf("2 points, 2 centroids should have zero inertia: %v", res.Inertia)
	}
}

func TestTrainK1(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, _ := blobs(rng, 100, 3, 1, 1)
	res, err := Train(x, Config{K: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	means := vec.ColumnMeans(x)
	for j := 0; j < 3; j++ {
		if math.Abs(float64(res.Centroids.At(0, j))-means[j]) > 1e-4 {
			t.Fatalf("single centroid should be the mean: %v vs %v", res.Centroids.Row(0), means)
		}
	}
}

func TestTrainDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, _ := blobs(rng, 300, 5, 4, 5)
	r1, _ := Train(x, Config{K: 4, Seed: 7})
	r2, _ := Train(x, Config{K: 4, Seed: 7})
	if !r1.Centroids.Equal(r2.Centroids) {
		t.Fatal("same seed must give same centroids")
	}
}

func TestTrainParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, _ := blobs(rng, 3000, 8, 5, 5)
	r1, _ := Train(x, Config{K: 5, Seed: 9, Parallel: false})
	r2, _ := Train(x, Config{K: 5, Seed: 9, Parallel: true})
	if math.Abs(r1.Inertia-r2.Inertia) > 1e-6*(1+r1.Inertia) {
		t.Fatalf("parallel inertia %v != serial %v", r2.Inertia, r1.Inertia)
	}
	if !r1.Centroids.Equal(r2.Centroids) {
		t.Fatal("parallel centroids differ from serial")
	}
}

func TestTrainDuplicatePoints(t *testing.T) {
	// Degenerate input: all points identical. Must not loop or crash.
	x := vec.NewMatrix(50, 3)
	for i := 0; i < 50; i++ {
		copy(x.Row(i), []float32{1, 2, 3})
	}
	res, err := Train(x, Config{K: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia > 1e-9 {
		t.Fatalf("identical points: inertia %v", res.Inertia)
	}
}

func TestHierarchicalTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, _ := blobs(rng, 4000, 6, 16, 8)
	res, err := Train(x, Config{
		K:                     128,
		Seed:                  11,
		HierarchicalThreshold: 64,
		HierarchicalBranch:    16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Centroids.Rows != 128 {
		t.Fatalf("want 128 centroids, got %d", res.Centroids.Rows)
	}
	// Hierarchical should still achieve low inertia on well-separated blobs.
	flat, err := Train(x, Config{K: 128, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia > flat.Inertia*3+1 {
		t.Fatalf("hierarchical inertia %v too far above flat %v", res.Inertia, flat.Inertia)
	}
	for _, a := range res.Assign {
		if a < 0 || a >= 128 {
			t.Fatalf("assignment out of range: %d", a)
		}
	}
}

func TestAssignNearest(t *testing.T) {
	centroids, _ := vec.FromRows([][]float32{{0, 0}, {10, 0}, {0, 10}})
	if got, d := Nearest(centroids, []float32{9, 1}); got != 1 || d != 2 {
		t.Fatalf("got %d at %v", got, d)
	}
	if got, d := Nearest(centroids, []float32{1, 1}); got != 0 || d != 2 {
		t.Fatalf("got %d at %v", got, d)
	}
}

// Property: Lloyd iterations never increase inertia relative to assigning
// with the final centroids; centroids count is always min(K, n); every
// assignment index is valid.
func TestTrainInvariantsProperty(t *testing.T) {
	f := func(seed int64, kRaw, nRaw uint8) bool {
		k := int(kRaw)%6 + 1
		n := int(nRaw)%80 + 5
		rng := rand.New(rand.NewSource(seed))
		x := vec.NewMatrix(n, 3)
		for i := range x.Data {
			x.Data[i] = rng.Float32() * 4
		}
		res, err := Train(x, Config{K: k, Seed: seed})
		if err != nil {
			return false
		}
		wantK := k
		if n < k {
			wantK = n
		}
		if res.Centroids.Rows != wantK {
			return false
		}
		var check float64
		for i := 0; i < n; i++ {
			a := res.Assign[i]
			if a < 0 || a >= wantK {
				return false
			}
			d := float64(vec.SquaredL2(x.Row(i), res.Centroids.Row(a)))
			// The recorded assignment must be the argmin.
			_, bd32 := Nearest(res.Centroids, x.Row(i))
			bd := float64(bd32)
			if d > bd+1e-5 {
				return false
			}
			check += d
		}
		return math.Abs(check-res.Inertia) < 1e-3*(1+check)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSegment1DExact(t *testing.T) {
	vals := []float64{10, 9.5, 9, 2, 1.8, 0.2, 0.1, 0.05}
	lengths, err := Segment1D(vals, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(lengths) != 3 {
		t.Fatalf("lengths %v", lengths)
	}
	sum := 0
	for _, l := range lengths {
		if l <= 0 {
			t.Fatalf("empty segment: %v", lengths)
		}
		sum += l
	}
	if sum != len(vals) {
		t.Fatalf("lengths %v don't sum to %d", lengths, len(vals))
	}
	// The natural split is {10,9.5,9} {2,1.8} {0.2,0.1,0.05}.
	if lengths[0] != 3 || lengths[1] != 2 || lengths[2] != 3 {
		t.Fatalf("unexpected segmentation %v", lengths)
	}
}

func TestSegment1DEdgeCases(t *testing.T) {
	if _, err := Segment1D(nil, 1); err == nil {
		t.Fatal("empty input must fail")
	}
	if _, err := Segment1D([]float64{1}, 0); err == nil {
		t.Fatal("k=0 must fail")
	}
	if _, err := Segment1D([]float64{1, 2}, 1); err == nil {
		t.Fatal("ascending input must fail")
	}
	if _, err := Segment1D([]float64{2, 1}, 3); err == nil {
		t.Fatal("k > n must fail")
	}
	l, err := Segment1D([]float64{5, 4, 3}, 3)
	if err != nil || l[0] != 1 || l[1] != 1 || l[2] != 1 {
		t.Fatalf("k=n should give singletons: %v %v", l, err)
	}
	l, err = Segment1D([]float64{5, 4, 3, 2}, 1)
	if err != nil || l[0] != 4 {
		t.Fatalf("k=1 should give one segment: %v %v", l, err)
	}
}

// Property: Segment1D returns k positive lengths summing to n, and its cost
// is no worse than the uniform split's cost.
func TestSegment1DProperty(t *testing.T) {
	segCost := func(vals []float64, lengths []int) float64 {
		var total float64
		start := 0
		for _, l := range lengths {
			seg := vals[start : start+l]
			var mean float64
			for _, v := range seg {
				mean += v
			}
			mean /= float64(l)
			for _, v := range seg {
				total += (v - mean) * (v - mean)
			}
			start += l
		}
		return total
	}
	f := func(seed int64, kRaw, nRaw uint8) bool {
		n := int(nRaw)%30 + 2
		k := int(kRaw)%n + 1
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.Float64() * 10
		}
		// sort descending
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if vals[j] > vals[i] {
					vals[i], vals[j] = vals[j], vals[i]
				}
			}
		}
		lengths, err := Segment1D(vals, k)
		if err != nil {
			return false
		}
		sum := 0
		for _, l := range lengths {
			if l <= 0 {
				return false
			}
			sum += l
		}
		if sum != n {
			return false
		}
		// Compare against uniform split cost.
		uniform := make([]int, k)
		base, rem := n/k, n%k
		for i := range uniform {
			uniform[i] = base
			if i < rem {
				uniform[i]++
			}
		}
		return segCost(vals, lengths) <= segCost(vals, uniform)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
