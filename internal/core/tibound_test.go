package core

import (
	"math"
	"math/rand"
	"testing"

	"vaq/internal/vec"
)

// The heart of data skipping (§III-E): for every encoded vector, the
// triangle bound |d(q, centroid) - d(code, centroid)| computed in the
// prefix space must never exceed the true ADC distance between the query
// and that code. If this invariant held only approximately, pruning would
// silently drop true neighbors.
func TestTriangleBoundIsLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	x := skewedData(rng, 800, 24, 1.2)
	for _, prefix := range []int{0, 2, 4} { // 0 = all subspaces
		ix, err := Build(x, x, Config{
			NumSubspaces: 6, Budget: 36, Seed: 81, TIClusters: 25,
			TIPrefixSubspaces: prefix,
		})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 5; trial++ {
			q := append([]float32(nil), x.Row(rng.Intn(x.Rows))...)
			for j := range q {
				q[j] += float32(rng.NormFloat64() * 0.1)
			}
			qz, err := ix.ProjectQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			lut := ix.cb.BuildLUT(qz)
			st := ix.state.Load()
			clustD := st.ti.queryClusterDistancesSq(qz, nil)
			for c, members := range st.ti.clusters {
				dq := math.Sqrt(float64(clustD[c]))
				for _, e := range members {
					bound := math.Abs(dq - float64(e.dist))
					adc := float64(lut.Distance(st.codes.Row(e.id)))
					if bound*bound > adc*(1+1e-4)+1e-4 {
						t.Fatalf("prefix=%d cluster=%d id=%d: bound² %v exceeds ADC %v",
							prefix, c, e.id, bound*bound, adc)
					}
				}
			}
		}
	}
}

// Cached member distances must equal the prefix distance between the
// decoded code and its centroid (they are what the bound relies on).
func TestCachedDistancesConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	x := skewedData(rng, 400, 16, 1.0)
	ix, err := Build(x, x, Config{NumSubspaces: 4, Budget: 24, Seed: 82, TIClusters: 12})
	if err != nil {
		t.Fatal(err)
	}
	st := ix.state.Load()
	buf := make([]float32, st.ti.prefixDim)
	for c, members := range st.ti.clusters {
		for _, e := range members {
			decodePrefix(ix.cb, st.codes.Row(e.id), st.ti.prefixSubspaces, buf)
			want := math.Sqrt(float64(vec.SquaredL2(buf, st.ti.centroids.Row(c))))
			if math.Abs(want-float64(e.dist)) > 1e-4*(1+want) {
				t.Fatalf("cluster %d id %d: cached %v, actual %v", c, e.id, e.dist, want)
			}
		}
	}
}
