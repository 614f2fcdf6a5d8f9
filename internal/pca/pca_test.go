package pca

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vaq/internal/linalg"
	"vaq/internal/vec"
)

// anisotropic builds data whose first axis has far more variance.
func anisotropic(rng *rand.Rand, n, d int, scales []float64) *vec.Matrix {
	x := vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		r := x.Row(i)
		for j := 0; j < d; j++ {
			r[j] = float32(rng.NormFloat64() * scales[j])
		}
	}
	return x
}

func TestFitSortedEigenvalues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := anisotropic(rng, 2000, 4, []float64{10, 5, 1, 0.1})
	m, err := Fit(x, Options{Center: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if m.Eigenvalues[i] > m.Eigenvalues[i-1] {
			t.Fatalf("not sorted: %v", m.Eigenvalues)
		}
	}
	// Largest eigenvalue should be near 100 (variance of first axis).
	if m.Eigenvalues[0] < 70 || m.Eigenvalues[0] > 130 {
		t.Fatalf("first eigenvalue %v, want ~100", m.Eigenvalues[0])
	}
	// First component should be aligned with the first canonical axis.
	if math.Abs(m.Components.At(0, 0)) < 0.95 {
		t.Fatalf("first component %v not aligned with axis 0", m.Components.Col(0))
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(vec.NewMatrix(0, 3), Options{}); err == nil {
		t.Fatal("empty input must fail")
	}
}

func TestExplainedVarianceRatioSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := anisotropic(rng, 500, 6, []float64{3, 2, 1, 1, 0.5, 0.1})
	m, err := Fit(x, Options{Center: true})
	if err != nil {
		t.Fatal(err)
	}
	r := m.ExplainedVarianceRatio()
	var sum float64
	for _, v := range r {
		if v < 0 {
			t.Fatalf("negative ratio %v", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("ratios sum to %v", sum)
	}
}

func TestExplainedVarianceRatioDegenerate(t *testing.T) {
	m := &Model{Dim: 3, Eigenvalues: []float64{0, 0, 0}}
	r := m.ExplainedVarianceRatio()
	for _, v := range r {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Fatalf("degenerate profile should be uniform: %v", r)
		}
	}
}

func TestProjectPreservesDistances(t *testing.T) {
	// Orthonormal projection onto the full basis preserves pairwise
	// Euclidean distances (rotation invariance).
	rng := rand.New(rand.NewSource(3))
	x := anisotropic(rng, 50, 8, []float64{4, 3, 2, 2, 1, 1, 0.5, 0.2})
	m, err := Fit(x, Options{})
	if err != nil {
		t.Fatal(err)
	}
	z, err := m.Project(x)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		i, j := rng.Intn(50), rng.Intn(50)
		orig := float64(vec.L2(x.Row(i), x.Row(j)))
		proj := float64(vec.L2(z.Row(i), z.Row(j)))
		if math.Abs(orig-proj) > 1e-3*(1+orig) {
			t.Fatalf("distance not preserved: %v vs %v", orig, proj)
		}
	}
}

func TestProjectVarianceConcentration(t *testing.T) {
	// After projection, the first column must carry the largest variance.
	rng := rand.New(rand.NewSource(4))
	x := anisotropic(rng, 1000, 5, []float64{1, 1, 8, 1, 1})
	m, err := Fit(x, Options{Center: true})
	if err != nil {
		t.Fatal(err)
	}
	z, err := m.Project(x)
	if err != nil {
		t.Fatal(err)
	}
	vars := vec.ColumnVariances(z)
	for j := 1; j < 5; j++ {
		if vars[j] > vars[0] {
			t.Fatalf("projected variance not concentrated: %v", vars)
		}
	}
	// And must decrease monotonically (within noise tolerance).
	for j := 1; j < 5; j++ {
		if vars[j] > vars[j-1]*1.05+1e-9 {
			t.Fatalf("projected variances not descending: %v", vars)
		}
	}
}

func TestProjectVec(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := anisotropic(rng, 100, 4, []float64{2, 1, 1, 1})
	m, _ := Fit(x, Options{Center: true})
	z, _ := m.Project(x)
	single, err := m.ProjectVec(x.Row(7))
	if err != nil {
		t.Fatal(err)
	}
	for j := range single {
		if math.Abs(float64(single[j]-z.At(7, j))) > 1e-6 {
			t.Fatalf("ProjectVec mismatch at %d", j)
		}
	}
	if _, err := m.ProjectVec([]float32{1}); err == nil {
		t.Fatal("wrong dimension must fail")
	}
}

func TestProjectDimensionError(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := anisotropic(rng, 10, 3, []float64{1, 1, 1})
	m, _ := Fit(x, Options{})
	if _, err := m.Project(vec.NewMatrix(2, 5)); err == nil {
		t.Fatal("wrong dimension must fail")
	}
}

func TestPermuteComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := anisotropic(rng, 300, 3, []float64{3, 2, 1})
	m, _ := Fit(x, Options{Center: true})
	orig := m.Clone()
	if err := m.PermuteComponents([]int{2, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if m.Eigenvalues[0] != orig.Eigenvalues[2] || m.Eigenvalues[1] != orig.Eigenvalues[0] {
		t.Fatalf("eigenvalues not permuted: %v vs %v", m.Eigenvalues, orig.Eigenvalues)
	}
	for i := 0; i < 3; i++ {
		if m.Components.At(i, 0) != orig.Components.At(i, 2) {
			t.Fatal("components not permuted")
		}
	}
	if err := m.PermuteComponents([]int{0, 0, 1}); err == nil {
		t.Fatal("duplicate permutation must fail")
	}
	if err := m.PermuteComponents([]int{0}); err == nil {
		t.Fatal("short permutation must fail")
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := anisotropic(rng, 100, 3, []float64{1, 1, 1})
	m, _ := Fit(x, Options{Center: true})
	c := m.Clone()
	c.Eigenvalues[0] = -99
	c.Components.Set(0, 0, -99)
	c.Mean[0] = -99
	if m.Eigenvalues[0] == -99 || m.Components.At(0, 0) == -99 || m.Mean[0] == -99 {
		t.Fatal("clone shares storage")
	}
}

// Property: total eigenvalue mass equals total column variance
// (trace preservation through the eigendecomposition).
func TestEigenvalueMassProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100) + 20
		d := rng.Intn(8) + 2
		x := vec.NewMatrix(n, d)
		for i := range x.Data {
			x.Data[i] = float32(rng.NormFloat64())
		}
		m, err := Fit(x, Options{Center: true})
		if err != nil {
			return false
		}
		var evSum float64
		for _, v := range m.Eigenvalues {
			evSum += v
		}
		var varSum float64
		for _, v := range vec.ColumnVariances(x) {
			varSum += v
		}
		return math.Abs(evSum-varSum) < 1e-6*(1+varSum)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// projectColumnWalk is the oracle: the dot product per output, walking a
// column of Components, that Project used before it went row by row.
func projectColumnWalk(m *Model, x *vec.Matrix) *vec.Matrix {
	d := m.Dim
	out := vec.NewMatrix(x.Rows, d)
	row := make([]float64, d)
	for i := 0; i < x.Rows; i++ {
		src := x.Row(i)
		for j := 0; j < d; j++ {
			row[j] = float64(src[j])
			if m.Mean != nil {
				row[j] -= m.Mean[j]
			}
		}
		dst := out.Row(i)
		for j := 0; j < d; j++ {
			var s float64
			for k := 0; k < d; k++ {
				s += float64(row[k] * m.Components.At(k, j))
			}
			dst[j] = float32(s)
		}
	}
	return out
}

// Project (serial and split across goroutines) and ProjectVec return the
// oracle's bits, with and without centering.
func TestProjectMatchesColumnWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, d := range []int{1, 3, 32, 128} {
		scales := make([]float64, d)
		for j := range scales {
			scales[j] = 1 + 3*rng.Float64()
		}
		x := anisotropic(rng, 256, d, scales)
		for _, center := range []bool{false, true} {
			m, err := Fit(x, Options{Center: center})
			if err != nil {
				t.Fatal(err)
			}
			want := projectColumnWalk(m, x)
			got, err := m.Project(x)
			if err != nil {
				t.Fatal(err)
			}
			few, err := m.Project(x.SliceRows(0, 5)) // below the goroutine threshold
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) || !few.Equal(want.SliceRows(0, 5)) {
				t.Fatalf("d=%d center=%v: Project differs from the column walk", d, center)
			}
			for i := 0; i < x.Rows; i += 37 {
				one, err := m.ProjectVec(x.Row(i))
				if err != nil {
					t.Fatal(err)
				}
				for j, v := range one {
					if math.Float32bits(v) != math.Float32bits(want.At(i, j)) {
						t.Fatalf("d=%d center=%v: ProjectVec row %d col %d differs", d, center, i, j)
					}
				}
			}
		}
	}
}

// projValue draws a component, mean or input entry: mostly ordinary values,
// often a signed zero.
func projValue(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
}

// TestProjectIntoMatchesGoLoop requires the dispatched projectInto — the
// AVX-512 body for the first Dim&^31 outputs on CPUs that have it — to give
// every output the bits of the Go loop alone, with and without a mean, on
// inputs rich in signed zeros (an output whose products are all -0 must
// still start from +0.0).
func TestProjectIntoMatchesGoLoop(t *testing.T) {
	t.Logf("AVX-512 projection body in use: %v", useAVX512)
	goLoop := func(m *Model, src, dst []float32) {
		saved := useAVX512
		useAVX512 = false
		defer func() { useAVX512 = saved }()
		m.projectInto(src, dst, make([]float64, m.Dim))
	}
	rng := rand.New(rand.NewSource(47))
	for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 64, 100, 128, 129} {
		for _, centred := range []bool{false, true} {
			for trial := 0; trial < 20; trial++ {
				m := &Model{Dim: d, Components: linalg.NewDense(d, d)}
				for i := range m.Components.Data {
					m.Components.Data[i] = projValue(rng)
				}
				if trial == 0 {
					// One all -0 column: its output is +0 + (-0) + … = +0.
					for k := 0; k < d; k++ {
						m.Components.Set(k, d-1, math.Copysign(0, -1))
					}
				}
				if centred {
					m.Mean = make([]float64, d)
					for i := range m.Mean {
						m.Mean[i] = projValue(rng)
					}
				}
				src := make([]float32, d)
				for i := range src {
					src[i] = float32(projValue(rng))
				}
				if trial == 1 {
					// Cancelling pairs: x_{k+1} = x_k and row k+1 = -row k,
					// so rounded products sum to zero while a fused
					// multiply-add would leave each product's rounding error.
					for k := 0; k+1 < d; k += 2 {
						src[k+1] = src[k]
						if centred {
							m.Mean[k+1] = m.Mean[k]
						}
						for j := 0; j < d; j++ {
							m.Components.Set(k+1, j, -m.Components.At(k, j))
						}
					}
				}
				got := make([]float32, d)
				want := make([]float32, d)
				m.projectInto(src, got, make([]float64, d))
				goLoop(m, src, want)
				for j := range want {
					if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
						t.Fatalf("d=%d centred=%v trial %d output %d: dispatched %08x, Go loop %08x",
							d, centred, trial, j, math.Float32bits(got[j]), math.Float32bits(want[j]))
					}
				}
			}
		}
	}
}

func BenchmarkProjectVec128(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	scales := make([]float64, 128)
	for j := range scales {
		scales[j] = 1
	}
	x := anisotropic(rng, 512, 128, scales)
	m, _ := Fit(x, Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.ProjectVec(x.Row(i % x.Rows)); err != nil {
			b.Fatal(err)
		}
	}
}
