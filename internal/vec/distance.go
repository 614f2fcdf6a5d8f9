package vec

import "math"

// SquaredL2 returns the squared Euclidean distance between a and b.
// The slices must have equal length; this is the hot kernel so it is not
// checked here (callers validate dimensions once, at build time).
// Every product is rounded before it is added (the float32 conversions
// stop a fused multiply-add from skipping that rounding), so the result
// is the same on every architecture and equals SquaredL2Rows' bits.
func SquaredL2(a, b []float32) float32 {
	var d0, d1, d2, d3 float32
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		t0 := a[i] - b[i]
		t1 := a[i+1] - b[i+1]
		t2 := a[i+2] - b[i+2]
		t3 := a[i+3] - b[i+3]
		d0 += float32(t0 * t0)
		d1 += float32(t1 * t1)
		d2 += float32(t2 * t2)
		d3 += float32(t3 * t3)
	}
	d := d0 + d1 + d2 + d3
	for ; i < n; i++ {
		t := a[i] - b[i]
		d += float32(t * t)
	}
	return d
}

// L2 returns the Euclidean distance between a and b.
func L2(a, b []float32) float32 {
	return float32(math.Sqrt(float64(SquaredL2(a, b))))
}

// Dot returns the inner product of a and b, each product rounded before
// it is added (as in SquaredL2).
func Dot(a, b []float32) float32 {
	var d0, d1, d2, d3 float32
	n := len(a)
	i := 0
	for ; i+4 <= n; i += 4 {
		d0 += float32(a[i] * b[i])
		d1 += float32(a[i+1] * b[i+1])
		d2 += float32(a[i+2] * b[i+2])
		d3 += float32(a[i+3] * b[i+3])
	}
	d := d0 + d1 + d2 + d3
	for ; i < n; i++ {
		d += float32(a[i] * b[i])
	}
	return d
}

// Norm returns the Euclidean norm of a.
func Norm(a []float32) float32 {
	return float32(math.Sqrt(float64(Dot(a, a))))
}

// Normalize scales a in place to unit Euclidean norm. Zero vectors are left
// unchanged.
func Normalize(a []float32) {
	n := Norm(a)
	if n == 0 {
		return
	}
	inv := 1 / n
	for i := range a {
		a[i] *= inv
	}
}

// ZNormalize shifts and scales a in place to zero mean and unit standard
// deviation. Constant vectors become all-zero.
func ZNormalize(a []float32) {
	if len(a) == 0 {
		return
	}
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
		for i := range a {
			a[i] = 0
		}
		return
	}
	inv := 1 / std
	for i := range a {
		a[i] = float32((float64(a[i]) - mean) * inv)
	}
}

// ZNormalizeRows z-normalizes every row of m in place.
func ZNormalizeRows(m *Matrix) {
	for i := 0; i < m.Rows; i++ {
		ZNormalize(m.Row(i))
	}
}

// ColumnMeans returns the per-column means of m as float64.
func ColumnMeans(m *Matrix) []float64 {
	means := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		r := m.Row(i)
		for j, v := range r {
			means[j] += float64(v)
		}
	}
	if m.Rows > 0 {
		inv := 1 / float64(m.Rows)
		for j := range means {
			means[j] *= inv
		}
	}
	return means
}

// ColumnVariances returns the per-column (population) variances of m.
func ColumnVariances(m *Matrix) []float64 {
	means := ColumnMeans(m)
	vars := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		r := m.Row(i)
		for j, v := range r {
			t := float64(v) - means[j]
			vars[j] += t * t
		}
	}
	if m.Rows > 0 {
		inv := 1 / float64(m.Rows)
		for j := range vars {
			vars[j] *= inv
		}
	}
	return vars
}
