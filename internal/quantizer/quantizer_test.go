package quantizer

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vaq/internal/kmeans"
	"vaq/internal/vec"
)

func TestUniformSubspaces(t *testing.T) {
	s, err := UniformSubspaces(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.M() != 4 || s.Dim() != 8 {
		t.Fatalf("bad layout %+v", s)
	}
	for i := 0; i < 4; i++ {
		if s.Lengths[i] != 2 || s.Offsets[i] != 2*i {
			t.Fatalf("bad layout %+v", s)
		}
	}
	// Non-divisible: earlier subspaces take the remainder.
	s, err = UniformSubspaces(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 3, 2, 2}
	for i, l := range want {
		if s.Lengths[i] != l {
			t.Fatalf("lengths %v want %v", s.Lengths, want)
		}
	}
	if s.Dim() != 10 {
		t.Fatalf("dim %d", s.Dim())
	}
}

func TestUniformSubspacesErrors(t *testing.T) {
	if _, err := UniformSubspaces(4, 0); err == nil {
		t.Fatal("m=0 must fail")
	}
	if _, err := UniformSubspaces(2, 4); err == nil {
		t.Fatal("m>d must fail")
	}
	if _, err := UniformSubspaces(0, 1); err == nil {
		t.Fatal("d=0 must fail")
	}
}

func TestFromLengths(t *testing.T) {
	s, err := FromLengths([]int{3, 1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.Dim() != 8 || s.Offsets[2] != 4 {
		t.Fatalf("bad layout %+v", s)
	}
	if _, err := FromLengths(nil); err == nil {
		t.Fatal("empty must fail")
	}
	if _, err := FromLengths([]int{2, 0}); err == nil {
		t.Fatal("zero length must fail")
	}
}

func TestSubspaceOf(t *testing.T) {
	s, _ := FromLengths([]int{2, 3})
	v := []float32{1, 2, 3, 4, 5}
	got := s.Of(v, 1)
	if len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Fatalf("got %v", got)
	}
}

// clusteredData makes data with per-subspace cluster structure so encoding
// is meaningful.
func clusteredData(rng *rand.Rand, n, d int) *vec.Matrix {
	x := vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		r := x.Row(i)
		for j := 0; j < d; j++ {
			center := float32(rng.Intn(4))*3 - 4.5
			r[j] = center + float32(rng.NormFloat64()*0.2)
		}
	}
	return x
}

func TestTrainCodebooksShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := clusteredData(rng, 400, 8)
	sub, _ := UniformSubspaces(8, 4)
	cb, err := TrainCodebooks(x, sub, []int{4, 4, 2, 3}, TrainConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantRows := []int{16, 16, 4, 8}
	for i, b := range cb.Books {
		if b.Rows != wantRows[i] || b.Cols != 2 {
			t.Fatalf("book %d is %dx%d", i, b.Rows, b.Cols)
		}
	}
}

func TestTrainCodebooksErrors(t *testing.T) {
	x := vec.NewMatrix(10, 8)
	sub, _ := UniformSubspaces(8, 4)
	if _, err := TrainCodebooks(x, sub, []int{4, 4}, TrainConfig{}); err == nil {
		t.Fatal("bits length mismatch must fail")
	}
	if _, err := TrainCodebooks(x, sub, []int{4, 4, 0, 4}, TrainConfig{}); err == nil {
		t.Fatal("zero bits must fail")
	}
	if _, err := TrainCodebooks(x, sub, []int{4, 4, 4, 17}, TrainConfig{}); err == nil {
		t.Fatal("17 bits must fail")
	}
	if _, err := TrainCodebooks(vec.NewMatrix(0, 8), sub, []int{4, 4, 4, 4}, TrainConfig{}); err == nil {
		t.Fatal("empty training data must fail")
	}
	sub2, _ := UniformSubspaces(6, 3)
	if _, err := TrainCodebooks(x, sub2, []int{4, 4, 4}, TrainConfig{}); err == nil {
		t.Fatal("dimension mismatch must fail")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := clusteredData(rng, 500, 8)
	sub, _ := UniformSubspaces(8, 4)
	cb, err := TrainCodebooks(x, sub, []int{6, 6, 6, 6}, TrainConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	codes, err := cb.Encode(x, false)
	if err != nil {
		t.Fatal(err)
	}
	if codes.N != 500 || codes.M != 4 {
		t.Fatalf("codes %dx%d", codes.N, codes.M)
	}
	// Codes must be valid indices.
	for i := 0; i < codes.N; i++ {
		for s, c := range codes.Row(i) {
			if int(c) >= cb.Books[s].Rows {
				t.Fatalf("code out of range at (%d,%d): %d", i, s, c)
			}
		}
	}
	// Reconstruction error must be small for tightly clustered data.
	mse := cb.ReconstructionError(x, codes)
	if mse > 1.0 {
		t.Fatalf("reconstruction error too high: %v", mse)
	}
	// Parallel encode must match serial.
	codesP, err := cb.Encode(x, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range codes.Data {
		if codes.Data[i] != codesP.Data[i] {
			t.Fatal("parallel encode differs")
		}
	}
}

func TestEncodeVecMatchesNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := clusteredData(rng, 400, 10)
	sub, _ := FromLengths([]int{4, 3, 2, 1})
	cb, _ := TrainCodebooks(x, sub, []int{6, 3, 3, 2}, TrainConfig{Seed: 3})
	for s, book := range cb.Books {
		if !kmeans.IsSorted(book) {
			t.Fatalf("trained book %d is not in canonical order", s)
		}
	}
	// The same books as a literal carry no order information and are
	// searched linearly; both must agree with the hand-written scan.
	literal := &Codebooks{Sub: cb.Sub, Bits: cb.Bits, Books: cb.Books}
	code, codeLinear := make([]uint16, 4), make([]uint16, 4)
	for i := 0; i < x.Rows; i++ {
		v := x.Row(i)
		cb.EncodeVec(v, code)
		literal.EncodeVec(v, codeLinear)
		for s := 0; s < 4; s++ {
			sv := sub.Of(v, s)
			best := -1
			bestD := float32(math.MaxFloat32)
			for c := 0; c < cb.Books[s].Rows; c++ {
				d := vec.SquaredL2(sv, cb.Books[s].Row(c))
				if d < bestD {
					bestD = d
					best = c
				}
			}
			if int(code[s]) != best || int(codeLinear[s]) != best {
				t.Fatalf("row %d subspace %d: code %d, linear-path code %d, nearest %d", i, s, code[s], codeLinear[s], best)
			}
		}
	}
}

func TestEncodeDimensionError(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := clusteredData(rng, 50, 6)
	sub, _ := UniformSubspaces(6, 3)
	cb, _ := TrainCodebooks(x, sub, []int{2, 2, 2}, TrainConfig{Seed: 4})
	if _, err := cb.Encode(vec.NewMatrix(3, 7), false); err == nil {
		t.Fatal("dimension mismatch must fail")
	}
}

func TestCodesBytes(t *testing.T) {
	c := NewCodes(100, 4)
	if got := c.Bytes([]int{8, 8, 8, 8}); got != 400 {
		t.Fatalf("got %d", got)
	}
	if got := c.Bytes([]int{1, 2, 3, 4}); got != (10*100+7)/8 {
		t.Fatalf("got %d", got)
	}
}

func TestLUTDistanceMatchesExplicit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := clusteredData(rng, 300, 8)
	sub, _ := UniformSubspaces(8, 4)
	cb, _ := TrainCodebooks(x, sub, []int{4, 3, 4, 2}, TrainConfig{Seed: 5})
	codes, _ := cb.Encode(x, false)
	q := x.Row(0)
	lut := cb.BuildLUT(q)
	// LUT.Distance must equal distance between q and the reconstruction.
	buf := make([]float32, 8)
	for i := 0; i < 20; i++ {
		cb.Decode(codes.Row(i), buf)
		want := vec.SquaredL2(q, buf)
		got := lut.Distance(codes.Row(i))
		if math.Abs(float64(got-want)) > 1e-4*(1+float64(want)) {
			t.Fatalf("vector %d: lut %v explicit %v", i, got, want)
		}
	}
	// Variable-size tables must be sized per book.
	for s := 0; s < 4; s++ {
		if len(lut.Table(s)) != cb.Books[s].Rows {
			t.Fatalf("table %d has %d entries, book has %d", s, len(lut.Table(s)), cb.Books[s].Rows)
		}
	}
}

func TestFillLUTReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := clusteredData(rng, 100, 4)
	sub, _ := UniformSubspaces(4, 2)
	cb, _ := TrainCodebooks(x, sub, []int{3, 3}, TrainConfig{Seed: 6})
	lut := cb.BuildLUT(x.Row(0))
	fresh := cb.BuildLUT(x.Row(1))
	cb.FillLUT(x.Row(1), lut)
	for i := range lut.Dist {
		if lut.Dist[i] != fresh.Dist[i] {
			t.Fatal("FillLUT differs from BuildLUT")
		}
	}
}

func TestScanADCFindsEncodedSelf(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := clusteredData(rng, 400, 8)
	sub, _ := UniformSubspaces(8, 4)
	cb, _ := TrainCodebooks(x, sub, []int{6, 6, 6, 6}, TrainConfig{Seed: 7})
	codes, _ := cb.Encode(x, false)
	// Query with a database vector: it should be among the top answers.
	hits := 0
	for trial := 0; trial < 20; trial++ {
		qi := rng.Intn(400)
		lut := cb.BuildLUT(x.Row(qi))
		res := ScanADC(codes, lut, 10)
		for _, r := range res {
			if r.ID == qi {
				hits++
				break
			}
		}
	}
	if hits < 16 {
		t.Fatalf("self-query recall too low: %d/20", hits)
	}
}

func TestPQSearchRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := clusteredData(rng, 1000, 16)
	pq, err := TrainPQ(x, x, PQConfig{M: 4, BitsPerSubspace: 6, Train: TrainConfig{Seed: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if pq.Len() != 1000 {
		t.Fatalf("len %d", pq.Len())
	}
	recall := recallAt10(t, rng, x, func(q []float32) []vec.Neighbor {
		res, err := pq.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		return res
	})
	if recall < 0.5 {
		t.Fatalf("PQ recall@10 too low: %v", recall)
	}
	if _, err := pq.Search(make([]float32, 3), 5); err == nil {
		t.Fatal("bad query dim must fail")
	}
}

// recallAt10 runs 20 queries (perturbed database vectors) and measures
// overlap with exact top-10.
func recallAt10(t *testing.T, rng *rand.Rand, x *vec.Matrix, search func([]float32) []vec.Neighbor) float64 {
	t.Helper()
	totalHits := 0
	for trial := 0; trial < 20; trial++ {
		q := append([]float32(nil), x.Row(rng.Intn(x.Rows))...)
		for j := range q {
			q[j] += float32(rng.NormFloat64() * 0.05)
		}
		exact := vec.NewTopK(10)
		for i := 0; i < x.Rows; i++ {
			exact.Push(i, vec.SquaredL2(q, x.Row(i)))
		}
		truth := map[int]bool{}
		for _, r := range exact.Results() {
			truth[r.ID] = true
		}
		for _, r := range search(q) {
			if truth[r.ID] {
				totalHits++
			}
		}
	}
	return float64(totalHits) / float64(20*10)
}

func TestEigenvalueAllocationBalances(t *testing.T) {
	ev := []float64{100, 50, 10, 8, 4, 2, 1, 0.5}
	perm, err := EigenvalueAllocation(ev, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(perm) != 8 {
		t.Fatalf("perm %v", perm)
	}
	// Check it is a permutation.
	seen := map[int]bool{}
	for _, p := range perm {
		if seen[p] {
			t.Fatalf("duplicate %d in %v", p, perm)
		}
		seen[p] = true
	}
	// Bucket log-products should be closer than the naive contiguous split.
	logProd := func(dims []int) float64 {
		var s float64
		for _, d := range dims {
			s += math.Log(ev[d])
		}
		return s
	}
	b1, b2 := perm[:4], perm[4:]
	balanced := math.Abs(logProd(b1) - logProd(b2))
	naive := math.Abs(logProd([]int{0, 1, 2, 3}) - logProd([]int{4, 5, 6, 7}))
	if balanced > naive {
		t.Fatalf("allocation did not balance: %v vs naive %v (perm %v)", balanced, naive, perm)
	}
}

func TestEigenvalueAllocationErrors(t *testing.T) {
	if _, err := EigenvalueAllocation([]float64{1}, 2); err == nil {
		t.Fatal("d < m must fail")
	}
	// Non-divisible d: capacities mirror UniformSubspaces (3 = 2 + 1).
	perm, err := EigenvalueAllocation([]float64{3, 2, 1}, 2)
	if err != nil || len(perm) != 3 {
		t.Fatalf("non-divisible allocation: %v %v", perm, err)
	}
	seen := map[int]bool{}
	for _, p := range perm {
		if seen[p] {
			t.Fatalf("duplicate in %v", perm)
		}
		seen[p] = true
	}
}

func TestOPQSearchBeatsOrMatchesPQOnAnisotropic(t *testing.T) {
	// Strongly anisotropic data with correlated dims: OPQ's rotation should
	// help (or at least not hurt much) versus PQ on raw dims.
	rng := rand.New(rand.NewSource(9))
	n, d := 1200, 16
	x := vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		r := x.Row(i)
		base := rng.NormFloat64() * 5
		for j := 0; j < d; j++ {
			scale := 1.0 / float64(j+1)
			r[j] = float32(base*scale + rng.NormFloat64()*0.3)
		}
	}
	opq, err := TrainOPQ(x, x, OPQConfig{M: 4, BitsPerSubspace: 4, Train: TrainConfig{Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if opq.Len() != n {
		t.Fatalf("len %d", opq.Len())
	}
	rngQ := rand.New(rand.NewSource(10))
	opqRecall := recallAt10(t, rngQ, x, func(q []float32) []vec.Neighbor {
		res, err := opq.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		return res
	})
	if opqRecall < 0.3 {
		t.Fatalf("OPQ recall@10 too low: %v", opqRecall)
	}
	if _, err := opq.Search(make([]float32, 2), 5); err == nil {
		t.Fatal("bad query dim must fail")
	}
}

func TestOPQNonParametricRefinement(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := clusteredData(rng, 400, 8)
	opq, err := TrainOPQ(x, x, OPQConfig{
		M: 4, BitsPerSubspace: 3, NonParametricIters: 2,
		Train: TrainConfig{Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := opq.Search(x.Row(5), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("results %v", res)
	}
}

func TestVQ(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := clusteredData(rng, 500, 4)
	vq, err := TrainVQ(x, x, VQConfig{Bits: 6, Train: TrainConfig{Seed: 12}})
	if err != nil {
		t.Fatal(err)
	}
	if vq.Len() != 500 {
		t.Fatalf("len %d", vq.Len())
	}
	res, err := vq.Search(x.Row(3), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 {
		t.Fatalf("got %d results", len(res))
	}
	if _, err := TrainVQ(x, x, VQConfig{Bits: 0}); err == nil {
		t.Fatal("bits=0 must fail")
	}
	if _, err := vq.Search(make([]float32, 9), 2); err == nil {
		t.Fatal("bad query dim must fail")
	}
}

// Property: ADC distance from the LUT always equals the sum of per-subspace
// squared distances between the query subvector and the assigned centroid.
func TestADCDecompositionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := clusteredData(rng, 200, 6)
	sub, _ := UniformSubspaces(6, 3)
	cb, _ := TrainCodebooks(x, sub, []int{3, 2, 3}, TrainConfig{Seed: 13})
	codes, _ := cb.Encode(x, false)
	f := func(qi, vi uint8) bool {
		q := x.Row(int(qi) % x.Rows)
		i := int(vi) % x.Rows
		lut := cb.BuildLUT(q)
		got := lut.Distance(codes.Row(i))
		var want float32
		for s := 0; s < 3; s++ {
			want += vec.SquaredL2(sub.Of(q, s), cb.Books[s].Row(int(codes.Row(i)[s])))
		}
		return math.Abs(float64(got-want)) <= 1e-4*(1+float64(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
