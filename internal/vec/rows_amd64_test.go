package vec

import (
	"math"
	"math/rand"
	"testing"
)

// d4Bodies are the amd64 d=4 bodies, each with the number of rows one
// pass fills (a call covers whole passes only).
var d4Bodies = []struct {
	name   string
	pass   int
	avx512 bool
	body   func(q, rows, out []float32)
}{
	{"sse2", 4, false, squaredL2Rows4},
	{"avx512", 16, true, squaredL2RowsD4AVX512},
}

// TestSquaredL2RowsD4Bodies calls each d=4 assembly body directly on the
// whole passes of 1..40 rows and requires the bits of squaredL2RowsGo;
// SquaredL2Rows, which adds the leftover rows, must match on all n.
func TestSquaredL2RowsD4Bodies(t *testing.T) {
	t.Logf("CPU probe: AVX-512 bodies in use: %v", hasAVX512)
	for _, b := range d4Bodies {
		t.Run(b.name, func(t *testing.T) {
			if b.avx512 && !hasAVX512 {
				t.Skip("CPU or OS lacks AVX-512F state; the avx512 body cannot run here")
			}
			check := func(q, rows []float32, n int) {
				t.Helper()
				want := make([]float32, n)
				squaredL2RowsGo(q, rows[:n*4], want)
				got := make([]float32, n&^(b.pass-1))
				if len(got) > 0 {
					b.body(q, rows, got)
				}
				all := make([]float32, n)
				SquaredL2Rows(q, rows, all)
				for c, w := range want {
					if c < len(got) && !sameBits(got[c], w) {
						t.Fatalf("q=%v n=%d row %d %v: body %08x, portable %08x",
							q, n, c, rows[c*4:c*4+4], math.Float32bits(got[c]), math.Float32bits(w))
					}
					if !sameBits(all[c], w) {
						t.Fatalf("q=%v n=%d row %d %v: SquaredL2Rows %08x, portable %08x",
							q, n, c, rows[c*4:c*4+4], math.Float32bits(all[c]), math.Float32bits(w))
					}
				}
			}
			rng := rand.New(rand.NewSource(47))
			for n := 1; n <= 40; n++ {
				for trial := 0; trial < 3; trial++ {
					q := make([]float32, 4)
					rows := make([]float32, (n+1)*4)
					for i := range q {
						q[i] = rowsValue(rng)
					}
					for i := range rows {
						rows[i] = rowsValue(rng)
					}
					check(q, rows, n)
				}
			}
			// Every special query value, uniform and mixed across lanes,
			// against rows carrying every special value in every lane.
			for n := 1; n <= 40; n++ {
				rows := specialRowsD4(n)
				for j, qv := range rowsSpecials {
					check([]float32{qv, qv, qv, qv}, rows, n)
					mixed := make([]float32, 4)
					for i := range mixed {
						mixed[i] = rowsSpecials[(j+5*i)%len(rowsSpecials)]
					}
					check(mixed, rows, n)
				}
			}
		})
	}
}
