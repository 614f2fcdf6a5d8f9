package vec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// rowsSpecials are inputs whose handling a vector kernel can get wrong:
// signed zeros, subnormals (no flush-to-zero), and magnitudes whose
// differences or squares overflow to +Inf.
var rowsSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -3e-39,
	1e-20, -1e-20, 2e19, -2e19, 3e38, -3e38, math.MaxFloat32, -math.MaxFloat32,
}

// rowsValue draws a finite float32: mostly ordinary values, sometimes a
// special one.
func rowsValue(rng *rand.Rand) float32 {
	if rng.Intn(8) == 0 {
		return rowsSpecials[rng.Intn(len(rowsSpecials))]
	}
	return float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4)))
}

// sameBits reports whether two results are the same float32, treating any
// two NaNs as equal (NaN payloads are not part of the contract).
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// checkRows compares SquaredL2Rows and the portable kernel against per-row
// SquaredL2, bit for bit.
func checkRows(t *testing.T, q, rows []float32, n int) {
	t.Helper()
	d := len(q)
	got := make([]float32, n)
	goGot := make([]float32, n)
	SquaredL2Rows(q, rows, got)
	squaredL2RowsGo(q, rows[:n*d], goGot)
	for c := 0; c < n; c++ {
		want := SquaredL2(q, rows[c*d:(c+1)*d])
		if !sameBits(got[c], want) || !sameBits(goGot[c], want) {
			t.Fatalf("d=%d n=%d row %d: SquaredL2Rows %08x, portable %08x, SquaredL2 %08x",
				d, n, c, math.Float32bits(got[c]), math.Float32bits(goGot[c]), math.Float32bits(want))
		}
	}
}

func TestSquaredL2RowsMatchesSquaredL2(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	dims := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 32, 128}
	for _, d := range dims {
		for n := 1; n <= 40; n++ {
			for trial := 0; trial < 3; trial++ {
				q := make([]float32, d)
				// One spare row past n: the kernel must not read it.
				rows := make([]float32, (n+1)*d)
				for i := range q {
					q[i] = rowsValue(rng)
				}
				for i := range rows {
					rows[i] = rowsValue(rng)
				}
				checkRows(t, q, rows, n)
			}
		}
	}
	// Every special value against every other, in every lane and tail slot.
	for _, d := range []int{4, 5, 8, 9} {
		q := make([]float32, d)
		rows := make([]float32, len(rowsSpecials)*d)
		for _, qv := range rowsSpecials {
			for i := range q {
				q[i] = qv
			}
			for c, rv := range rowsSpecials {
				for i := 0; i < d; i++ {
					rows[c*d+i] = rowsSpecials[(c+i)%len(rowsSpecials)]
				}
				rows[c*d] = rv
			}
			checkRows(t, q, rows, len(rowsSpecials))
		}
	}
}

// TestSquaredL2RowsBoundsChecked pins the contract that a short rows slice
// panics instead of letting the kernel read past it.
func TestSquaredL2RowsBoundsChecked(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short rows did not panic")
		}
	}()
	SquaredL2Rows(make([]float32, 4), make([]float32, 15), make([]float32, 4))
}

// FuzzSquaredL2Rows decodes the input as one dimension byte followed by
// little-endian float32s — the query, then whole rows — and requires
// SquaredL2Rows to match per-row SquaredL2 bit for bit.
func FuzzSquaredL2Rows(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for _, d := range []int{1, 3, 4, 5, 7, 8, 9, 16, 17, 32, 128} {
		for _, n := range []int{1, 3, 4, 5, 9} {
			vals := make([]float32, (n+1)*d)
			for i := range vals {
				vals[i] = rowsValue(rng)
			}
			f.Add(encodeRowsInput(d, vals))
		}
	}
	f.Add(encodeRowsInput(4, append([]float32{0, 0, 0, 0}, rowsSpecials...)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		d := int(data[0])
		if d == 0 {
			return
		}
		vals := make([]float32, (len(data)-1)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[1+4*i:]))
		}
		if len(vals) < d {
			return
		}
		n := (len(vals) - d) / d
		checkRows(t, vals[:d], vals[d:], n)
	})
}

func encodeRowsInput(d int, vals []float32) []byte {
	b := make([]byte, 1, 1+4*len(vals))
	b[0] = byte(d)
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

func BenchmarkSquaredL2Rows(b *testing.B) {
	for _, tc := range []struct {
		name string
		d, n int
	}{{"d4x256", 4, 256}, {"d8x256", 8, 256}, {"d128x234", 128, 234}} {
		rng := rand.New(rand.NewSource(1))
		q := make([]float32, tc.d)
		rows := make([]float32, tc.d*tc.n)
		for i := range q {
			q[i] = rng.Float32()
		}
		for i := range rows {
			rows[i] = rng.Float32()
		}
		out := make([]float32, tc.n)
		b.Run(tc.name+"/kernel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SquaredL2Rows(q, rows, out)
			}
		})
		b.Run(tc.name+"/portable", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				squaredL2RowsGo(q, rows, out)
			}
		})
	}
}
