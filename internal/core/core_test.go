package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vaq/internal/vec"
)

// skewedData produces data whose PCA spectrum decays like 1/(j+1)^p —
// the skew VAQ exploits (paper §III-C).
func skewedData(rng *rand.Rand, n, d int, power float64) *vec.Matrix {
	x := vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		r := x.Row(i)
		for j := 0; j < d; j++ {
			scale := math.Pow(float64(j+1), -power)
			center := float64(rng.Intn(3)-1) * 2 * scale
			r[j] = float32(center + rng.NormFloat64()*0.3*scale)
		}
	}
	return x
}

func TestBuildSubspaceLengthsUniform(t *testing.T) {
	ratios := []float64{0.4, 0.3, 0.15, 0.1, 0.04, 0.01}
	l, err := buildSubspaceLengths(ratios, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if l[0] != 2 || l[1] != 2 || l[2] != 2 {
		t.Fatalf("lengths %v", l)
	}
	l, err = buildSubspaceLengths(ratios[:5], 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if l[0] != 2 || l[1] != 2 || l[2] != 1 {
		t.Fatalf("lengths %v", l)
	}
	if _, err := buildSubspaceLengths(ratios, 0, false); err == nil {
		t.Fatal("m=0 must fail")
	}
	if _, err := buildSubspaceLengths(ratios, 9, false); err == nil {
		t.Fatal("m>d must fail")
	}
}

func TestBuildSubspaceLengthsNonUniform(t *testing.T) {
	// Strong variance clusters: {0.5, 0.45} then tail.
	ratios := []float64{0.5, 0.45, 0.02, 0.015, 0.01, 0.005}
	l, err := buildSubspaceLengths(ratios, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(l) != 2 || l[0]+l[1] != 6 {
		t.Fatalf("lengths %v", l)
	}
	if l[0] != 2 {
		t.Fatalf("expected head subspace of 2 high-variance dims, got %v", l)
	}
	sums := subspaceVariances(ratios, l)
	if sums[0] < sums[1] {
		t.Fatalf("importance ordering violated: %v", sums)
	}
}

func TestRepairImportanceOrdering(t *testing.T) {
	// One huge dim alone, then many mid dims summing above it.
	ratios := []float64{10, 4, 4, 4, 1, 1}
	lengths := []int{1, 3, 2} // sums: 10, 12, 2 -> violation between 0 and 1
	repairImportanceOrdering(ratios, lengths)
	sums := subspaceVariances(ratios, lengths)
	for i := 1; i < len(sums); i++ {
		if sums[i] > sums[i-1]+1e-12 {
			t.Fatalf("still violated: lengths %v sums %v", lengths, sums)
		}
	}
	total := 0
	for _, l := range lengths {
		if l < 1 {
			t.Fatalf("empty subspace: %v", lengths)
		}
		total += l
	}
	if total != 6 {
		t.Fatalf("dims lost: %v", lengths)
	}
}

// Property: repaired lengths always give non-increasing subspace sums and
// preserve the dimension count for any descending-sorted ratios.
func TestRepairOrderingProperty(t *testing.T) {
	f := func(seed int64, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := rng.Intn(30) + 4
		m := int(mRaw)%(d/2+1) + 1
		ratios := make([]float64, d)
		for i := range ratios {
			ratios[i] = rng.Float64()
		}
		// sort descending
		for i := 0; i < d; i++ {
			for j := i + 1; j < d; j++ {
				if ratios[j] > ratios[i] {
					ratios[i], ratios[j] = ratios[j], ratios[i]
				}
			}
		}
		lengths, err := buildSubspaceLengths(ratios, m, true)
		if err != nil {
			return false
		}
		sums := subspaceVariances(ratios, lengths)
		total := 0
		for i, l := range lengths {
			if l < 1 {
				return false
			}
			total += l
			if i > 0 && sums[i] > sums[i-1]+1e-9 {
				return false
			}
		}
		return total == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPartialBalanceInvariants(t *testing.T) {
	ratios := []float64{0.4, 0.2, 0.1, 0.08, 0.07, 0.06, 0.05, 0.04}
	lengths := []int{2, 2, 2, 2}
	perm := partialBalance(ratios, lengths)
	// Must be a permutation.
	seen := make([]bool, len(perm))
	for _, p := range perm {
		if p < 0 || p >= len(perm) || seen[p] {
			t.Fatalf("not a permutation: %v", perm)
		}
		seen[p] = true
	}
	balanced := applyPermutationFloat64(ratios, perm)
	sums := subspaceVariances(balanced, lengths)
	for i := 1; i < len(sums); i++ {
		if sums[i] > sums[i-1]+1e-12 {
			t.Fatalf("global ordering violated: %v", sums)
		}
	}
	// Balancing must not increase imbalance (stddev of subspace sums).
	origSums := subspaceVariances(ratios, lengths)
	if stddev(sums) > stddev(origSums)+1e-12 {
		t.Fatalf("imbalance increased: %v -> %v", origSums, sums)
	}
	// The best PC of each subspace must stay in place: position 0 holds
	// original dim 0.
	if perm[0] != 0 {
		t.Fatalf("first PC moved: %v", perm)
	}
}

func stddev(v []float64) float64 {
	var mean float64
	for _, x := range v {
		mean += x
	}
	mean /= float64(len(v))
	var ss float64
	for _, x := range v {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss / float64(len(v)))
}

// Property: partialBalance always yields a permutation that preserves the
// global subspace-importance ordering and never increases imbalance.
func TestPartialBalanceProperty(t *testing.T) {
	f := func(seed int64, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int(mRaw)%6 + 2
		perSub := rng.Intn(4) + 1
		d := m * perSub
		ratios := make([]float64, d)
		for i := range ratios {
			ratios[i] = rng.Float64() + 0.001
		}
		for i := 0; i < d; i++ {
			for j := i + 1; j < d; j++ {
				if ratios[j] > ratios[i] {
					ratios[i], ratios[j] = ratios[j], ratios[i]
				}
			}
		}
		lengths := make([]int, m)
		for i := range lengths {
			lengths[i] = perSub
		}
		perm := partialBalance(ratios, lengths)
		seen := make([]bool, d)
		for _, p := range perm {
			if p < 0 || p >= d || seen[p] {
				return false
			}
			seen[p] = true
		}
		balanced := applyPermutationFloat64(ratios, perm)
		sums := subspaceVariances(balanced, lengths)
		for i := 1; i < m; i++ {
			if sums[i] > sums[i-1]+1e-9 {
				return false
			}
		}
		return stddev(sums) <= stddev(subspaceVariances(ratios, lengths))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateMILPBasics(t *testing.T) {
	p := allocParams{
		Weights:        []float64{0.5, 0.25, 0.15, 0.1},
		Budget:         20,
		MinBits:        1,
		MaxBits:        8,
		TargetVariance: 0.99,
	}
	bits, err := allocateBits(AllocMILP, p)
	if err != nil {
		t.Fatal(err)
	}
	checkAllocation(t, bits, p)
	// More important subspaces must get at least as many bits.
	if bits[0] < bits[3] {
		t.Fatalf("allocation not importance-ordered: %v", bits)
	}
	// The first subspace should get strictly more than uniform (5).
	if bits[0] <= 5 {
		t.Fatalf("adaptive allocation should exceed uniform on skewed weights: %v", bits)
	}
}

func checkAllocation(t *testing.T, bits []int, p allocParams) {
	t.Helper()
	if len(bits) != len(p.Weights) {
		t.Fatalf("allocation length %d want %d", len(bits), len(p.Weights))
	}
	sum := 0
	for i, b := range bits {
		if b < p.MinBits || b > p.MaxBits {
			t.Fatalf("bits[%d]=%d outside [%d,%d]: %v", i, b, p.MinBits, p.MaxBits, bits)
		}
		if i > 0 && b > bits[i-1] {
			t.Fatalf("allocation not monotone: %v", bits)
		}
		sum += b
	}
	if sum != p.Budget {
		t.Fatalf("allocation sums to %d want %d: %v", sum, p.Budget, bits)
	}
}

func TestAllocateMILPTightBudgets(t *testing.T) {
	// Feasibility edge: budget exactly m*MinBits.
	p := allocParams{Weights: []float64{0.6, 0.4}, Budget: 2, MinBits: 1, MaxBits: 8, TargetVariance: 0.99}
	bits, err := allocateBits(AllocMILP, p)
	if err != nil {
		t.Fatal(err)
	}
	checkAllocation(t, bits, p)
	// Budget exactly m*MaxBits.
	p = allocParams{Weights: []float64{0.6, 0.4}, Budget: 16, MinBits: 1, MaxBits: 8, TargetVariance: 0.99}
	bits, err = allocateBits(AllocMILP, p)
	if err != nil {
		t.Fatal(err)
	}
	checkAllocation(t, bits, p)
	if bits[0] != 8 || bits[1] != 8 {
		t.Fatalf("full budget should saturate: %v", bits)
	}
}

func TestAllocateMILPCapRelaxation(t *testing.T) {
	// The case where proportional caps alone are infeasible: very skewed
	// weights, high budget; solver must relax caps and still succeed.
	p := allocParams{Weights: []float64{0.95, 0.05}, Budget: 8, MinBits: 1, MaxBits: 4, TargetVariance: 0.99}
	bits, err := allocateBits(AllocMILP, p)
	if err != nil {
		t.Fatal(err)
	}
	checkAllocation(t, bits, p)
	if bits[0] != 4 || bits[1] != 4 {
		t.Fatalf("only feasible allocation is (4,4): %v", bits)
	}
}

func TestAllocateMILPTargetVariance(t *testing.T) {
	// With τ = 0.5, only the first subspace participates (w0 covers 60%);
	// the rest must sit at MinBits.
	p := allocParams{
		Weights:        []float64{0.6, 0.2, 0.1, 0.1},
		Budget:         10,
		MinBits:        1,
		MaxBits:        8,
		TargetVariance: 0.5,
	}
	bits, err := allocateBits(AllocMILP, p)
	if err != nil {
		t.Fatal(err)
	}
	checkAllocation(t, bits, p)
	if bits[1] != 1 || bits[2] != 1 || bits[3] != 1 {
		t.Fatalf("tail should hold MinBits under tight target: %v", bits)
	}
	if bits[0] != 7 {
		t.Fatalf("head should absorb the rest: %v", bits)
	}
}

func TestAllocateValidation(t *testing.T) {
	base := allocParams{Weights: []float64{0.5, 0.5}, Budget: 8, MinBits: 1, MaxBits: 8, TargetVariance: 0.99}
	bad := base
	bad.Weights = nil
	if _, err := allocateBits(AllocMILP, bad); err == nil {
		t.Fatal("no weights must fail")
	}
	bad = base
	bad.MinBits = 0
	if _, err := allocateBits(AllocMILP, bad); err == nil {
		t.Fatal("MinBits=0 must fail")
	}
	bad = base
	bad.MaxBits = 17
	if _, err := allocateBits(AllocMILP, bad); err == nil {
		t.Fatal("MaxBits=17 must fail")
	}
	bad = base
	bad.Budget = 1
	if _, err := allocateBits(AllocMILP, bad); err == nil {
		t.Fatal("budget below m*MinBits must fail")
	}
	bad = base
	bad.Budget = 17
	if _, err := allocateBits(AllocMILP, bad); err == nil {
		t.Fatal("budget above m*MaxBits must fail")
	}
	bad = base
	bad.TargetVariance = 1.5
	if _, err := allocateBits(AllocMILP, bad); err == nil {
		t.Fatal("bad target variance must fail")
	}
	if _, err := allocateBits(AllocStrategy(99), base); err == nil {
		t.Fatal("unknown strategy must fail")
	}
}

func TestAllocateTransformCoding(t *testing.T) {
	p := allocParams{
		Weights:        []float64{0.55, 0.25, 0.12, 0.08},
		Budget:         24,
		MinBits:        1,
		MaxBits:        10,
		TargetVariance: 0.99,
	}
	bits, err := allocateBits(AllocTransformCoding, p)
	if err != nil {
		t.Fatal(err)
	}
	checkAllocation(t, bits, p)
	if bits[0] <= bits[3] {
		t.Fatalf("water-filling should favour the head: %v", bits)
	}
}

func TestAllocateUniform(t *testing.T) {
	p := allocParams{Weights: []float64{0.4, 0.3, 0.3}, Budget: 10, MinBits: 1, MaxBits: 8, TargetVariance: 0.99}
	bits, err := allocateBits(AllocUniform, p)
	if err != nil {
		t.Fatal(err)
	}
	checkAllocation(t, bits, p)
	if bits[0] != 4 || bits[1] != 3 || bits[2] != 3 {
		t.Fatalf("got %v", bits)
	}
}

// Property: MILP allocation always satisfies C2 (bounds), C3 (budget) and
// the ordering part of C4, for random descending weight profiles.
func TestAllocateMILPProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := rng.Intn(12) + 2
		w := make([]float64, m)
		var sum float64
		for i := range w {
			w[i] = rng.Float64() + 0.01
			sum += w[i]
		}
		for i := range w {
			w[i] /= sum
		}
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				if w[j] > w[i] {
					w[i], w[j] = w[j], w[i]
				}
			}
		}
		lo := 1
		hi := rng.Intn(8) + 2
		budget := m*lo + rng.Intn(m*(hi-lo)+1)
		p := allocParams{Weights: w, Budget: budget, MinBits: lo, MaxBits: hi, TargetVariance: 0.95}
		bits, err := allocateBits(AllocMILP, p)
		if err != nil {
			return false
		}
		got := 0
		for i, b := range bits {
			if b < lo || b > hi {
				return false
			}
			if i > 0 && b > bits[i-1] {
				return false
			}
			got += b
		}
		return got == budget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildAndSearchEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := skewedData(rng, 2000, 32, 1.0)
	ix, err := Build(x, x, Config{
		NumSubspaces: 8,
		Budget:       64,
		Seed:         1,
		TIClusters:   50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 2000 || ix.Dim() != 32 {
		t.Fatalf("index shape %d %d", ix.Len(), ix.Dim())
	}
	bits := ix.Bits()
	sum := 0
	for _, b := range bits {
		sum += b
	}
	if sum != 64 {
		t.Fatalf("bits %v don't sum to budget", bits)
	}
	if got := len(ix.cb.Sub.Lengths); got != 8 {
		t.Fatalf("subspace count %d", got)
	}
	res, err := ix.Search(x.Row(10), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 {
		t.Fatalf("got %d results", len(res))
	}
	// Recall sanity: querying with a database vector, with full cluster
	// visiting, must return it among the nearest answers.
	hits := 0
	for trial := 0; trial < 20; trial++ {
		qi := rng.Intn(2000)
		res, err := ix.SearchWith(x.Row(qi), 10, SearchOptions{VisitFrac: 1.0})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res {
			if r.ID == qi {
				hits++
				break
			}
		}
	}
	if hits < 15 {
		t.Fatalf("self-recall %d/20 too low", hits)
	}
}

func TestBuildErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := skewedData(rng, 100, 8, 1.0)
	if _, err := Build(nil, x, Config{NumSubspaces: 2, Budget: 8}); err == nil {
		t.Fatal("nil train must fail")
	}
	if _, err := Build(x, vec.NewMatrix(10, 9), Config{NumSubspaces: 2, Budget: 8}); err == nil {
		t.Fatal("dim mismatch must fail")
	}
	if _, err := Build(x, x, Config{NumSubspaces: 0, Budget: 8}); err == nil {
		t.Fatal("m=0 must fail")
	}
	if _, err := Build(x, x, Config{NumSubspaces: 9, Budget: 64}); err == nil {
		t.Fatal("m>d must fail")
	}
	if _, err := Build(x, x, Config{NumSubspaces: 4, Budget: 2}); err == nil {
		t.Fatal("budget below minimum must fail")
	}
}

func TestSearchErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := skewedData(rng, 200, 8, 1.0)
	ix, err := Build(x, x, Config{NumSubspaces: 4, Budget: 16, Seed: 3, TIClusters: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Search(make([]float32, 5), 3); err == nil {
		t.Fatal("bad query dim must fail")
	}
	if _, err := ix.Search(x.Row(0), 0); err == nil {
		t.Fatal("k=0 must fail")
	}
	s := ix.NewSearcher()
	if _, err := s.Search(make([]float32, 5), 3, SearchOptions{}); err == nil {
		t.Fatal("searcher bad dim must fail")
	}
	if _, err := s.SearchProjected(make([]float32, 5), 3, SearchOptions{}); err == nil {
		t.Fatal("bad projected dim must fail")
	}
	if _, err := s.SearchProjected(make([]float32, 8), 0, SearchOptions{}); err == nil {
		t.Fatal("k=0 must fail")
	}
}

// The pruning strategies are exact with respect to the ADC scan: Heap, EA
// and TI+EA at VisitFrac=1.0 must return identical distance profiles.
func TestPruningModesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := skewedData(rng, 1500, 24, 1.2)
	ix, err := Build(x, x, Config{NumSubspaces: 6, Budget: 48, Seed: 4, TIClusters: 40})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 15; trial++ {
		q := append([]float32(nil), x.Row(rng.Intn(x.Rows))...)
		for j := range q {
			q[j] += float32(rng.NormFloat64() * 0.05)
		}
		heap, err := ix.SearchWith(q, 10, SearchOptions{Mode: ModeHeap})
		if err != nil {
			t.Fatal(err)
		}
		ea, err := ix.SearchWith(q, 10, SearchOptions{Mode: ModeEA})
		if err != nil {
			t.Fatal(err)
		}
		tiea, err := ix.SearchWith(q, 10, SearchOptions{Mode: ModeTIEA, VisitFrac: 1.0})
		if err != nil {
			t.Fatal(err)
		}
		for i := range heap {
			if math.Abs(float64(heap[i].Dist-ea[i].Dist)) > 1e-5*(1+float64(heap[i].Dist)) {
				t.Fatalf("EA distance differs at %d: %v vs %v", i, ea[i], heap[i])
			}
			if math.Abs(float64(heap[i].Dist-tiea[i].Dist)) > 1e-5*(1+float64(heap[i].Dist)) {
				t.Fatalf("TI+EA distance differs at %d: %v vs %v", i, tiea[i], heap[i])
			}
		}
	}
}

// Partial visiting should retain most of the recall of the full scan.
func TestTIVisitFractionRecall(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := skewedData(rng, 3000, 24, 1.2)
	ix, err := Build(x, x, Config{NumSubspaces: 6, Budget: 48, Seed: 5, TIClusters: 60})
	if err != nil {
		t.Fatal(err)
	}
	match := 0
	total := 0
	for trial := 0; trial < 20; trial++ {
		q := append([]float32(nil), x.Row(rng.Intn(x.Rows))...)
		for j := range q {
			q[j] += float32(rng.NormFloat64() * 0.05)
		}
		full, _ := ix.SearchWith(q, 10, SearchOptions{Mode: ModeHeap})
		part, _ := ix.SearchWith(q, 10, SearchOptions{Mode: ModeTIEA, VisitFrac: 0.25})
		ids := map[int]bool{}
		for _, r := range full {
			ids[r.ID] = true
		}
		for _, r := range part {
			total++
			if ids[r.ID] {
				match++
			}
		}
	}
	frac := float64(match) / float64(total)
	if frac < 0.6 {
		t.Fatalf("visit-25%% retains only %.2f of full-scan answers", frac)
	}
}

func TestSubspaceOmission(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := skewedData(rng, 800, 16, 1.5)
	ix, err := Build(x, x, Config{NumSubspaces: 8, Budget: 32, Seed: 6, TIClusters: 20})
	if err != nil {
		t.Fatal(err)
	}
	q := x.Row(3)
	resAll, err := ix.SearchWith(q, 5, SearchOptions{Mode: ModeHeap})
	if err != nil {
		t.Fatal(err)
	}
	resTrunc, err := ix.SearchWith(q, 5, SearchOptions{Subspaces: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(resTrunc) != 5 {
		t.Fatalf("got %d", len(resTrunc))
	}
	// Truncated distances can only be <= full distances.
	if resTrunc[0].Dist > resAll[len(resAll)-1].Dist+1e-5 {
		t.Fatalf("truncated distance exceeds full: %v vs %v", resTrunc[0], resAll)
	}
}

func TestNonUniformAndAblationsBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := skewedData(rng, 1000, 32, 1.5)
	configs := []Config{
		{NumSubspaces: 8, Budget: 64, NonUniform: true, Seed: 7, TIClusters: 20},
		{NumSubspaces: 8, Budget: 64, DisablePartialBalance: true, Seed: 7, TIClusters: 20},
		{NumSubspaces: 8, Budget: 64, Alloc: AllocUniform, Seed: 7, TIClusters: 20},
		{NumSubspaces: 8, Budget: 64, Alloc: AllocTransformCoding, Seed: 7, TIClusters: 20},
		{NumSubspaces: 8, Budget: 64, NonUniform: true, Alloc: AllocTransformCoding, Seed: 7, TIClusters: 20},
	}
	for i, cfg := range configs {
		ix, err := Build(x, x, cfg)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		res, err := ix.Search(x.Row(0), 5)
		if err != nil || len(res) != 5 {
			t.Fatalf("config %d: search %v %v", i, res, err)
		}
	}
}

func TestVariableDictionarySizes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := skewedData(rng, 1500, 16, 2.0)
	ix, err := Build(x, x, Config{
		NumSubspaces: 4,
		Budget:       24,
		MinBits:      2,
		MaxBits:      10,
		Seed:         8,
		TIClusters:   20,
	})
	if err != nil {
		t.Fatal(err)
	}
	bits := ix.Bits()
	// Heavily skewed spectrum must produce a non-uniform allocation.
	uniform := true
	for i := 1; i < len(bits); i++ {
		if bits[i] != bits[0] {
			uniform = false
		}
	}
	if uniform {
		t.Fatalf("expected adaptive allocation on skewed data, got %v", bits)
	}
	// Codebook sizes must match the allocation.
	cb := ix.Codebooks()
	for s, b := range bits {
		if cb.Books[s].Rows != 1<<b {
			t.Fatalf("book %d has %d rows, want %d", s, cb.Books[s].Rows, 1<<b)
		}
	}
	if ix.CodeBytes() != (24*1500+7)/8 {
		t.Fatalf("code bytes %d", ix.CodeBytes())
	}
}

func TestSearcherReuseMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := skewedData(rng, 600, 16, 1.0)
	ix, err := Build(x, x, Config{NumSubspaces: 4, Budget: 32, Seed: 9, TIClusters: 15})
	if err != nil {
		t.Fatal(err)
	}
	s := ix.NewSearcher()
	for trial := 0; trial < 10; trial++ {
		q := x.Row(rng.Intn(600))
		a, err := ix.SearchWith(q, 7, SearchOptions{VisitFrac: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Search(q, 7, SearchOptions{VisitFrac: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d result %d: %v vs %v", trial, i, a[i], b[i])
			}
		}
	}
}

func TestTIClusterCountAuto(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := skewedData(rng, 640, 8, 1.0)
	ix, err := Build(x, x, Config{NumSubspaces: 4, Budget: 16, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.TIClusterCount(); got != 10 {
		t.Fatalf("auto cluster count %d, want n/64=10", got)
	}
}

func TestSearchModeStrings(t *testing.T) {
	if ModeTIEA.String() != "ti+ea" || ModeEA.String() != "ea" || ModeHeap.String() != "heap" {
		t.Fatal("mode strings")
	}
	if SearchMode(9).String() != "unknown" {
		t.Fatal("unknown mode string")
	}
	if AllocMILP.String() != "milp" || AllocUniform.String() != "uniform" ||
		AllocTransformCoding.String() != "transform-coding" || AllocStrategy(9).String() != "unknown" {
		t.Fatal("alloc strings")
	}
}
