package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The EA check interval changes when abandonment happens, never the
// answers: EACheckEvery=1 and =4 must return identical results.
func TestEACheckIntervalInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	x := skewedData(rng, 900, 24, 1.2)
	build := func(every int) *Index {
		ix, err := Build(x, x, Config{
			NumSubspaces: 6, Budget: 48, Seed: 71, TIClusters: 20, EACheckEvery: every,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	ix1 := build(1)
	ix4 := build(4)
	for trial := 0; trial < 10; trial++ {
		q := append([]float32(nil), x.Row(rng.Intn(x.Rows))...)
		for j := range q {
			q[j] += float32(rng.NormFloat64() * 0.05)
		}
		a, err := ix1.SearchWith(q, 9, SearchOptions{Mode: ModeEA})
		if err != nil {
			t.Fatal(err)
		}
		b, err := ix4.SearchWith(q, 9, SearchOptions{Mode: ModeEA})
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("check interval changed results: %v vs %v", a[i], b[i])
			}
		}
	}
}

// TI pruning with a proper prefix (fewer subspaces in the centroids) must
// remain exact at full visiting: the prefix bound is still a valid lower
// bound on the full ADC distance.
func TestTIPrefixSubspacesExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	x := skewedData(rng, 1200, 24, 1.2)
	ix, err := Build(x, x, Config{
		NumSubspaces: 8, Budget: 48, Seed: 72, TIClusters: 30, TIPrefixSubspaces: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 12; trial++ {
		q := append([]float32(nil), x.Row(rng.Intn(x.Rows))...)
		for j := range q {
			q[j] += float32(rng.NormFloat64() * 0.05)
		}
		heap, err := ix.SearchWith(q, 10, SearchOptions{Mode: ModeHeap})
		if err != nil {
			t.Fatal(err)
		}
		tiea, err := ix.SearchWith(q, 10, SearchOptions{Mode: ModeTIEA, VisitFrac: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := range heap {
			if math.Abs(float64(heap[i].Dist-tiea[i].Dist)) > 1e-5*(1+float64(heap[i].Dist)) {
				t.Fatalf("prefix TI pruning changed distances at %d: %v vs %v", i, tiea[i], heap[i])
			}
		}
	}
	// The prefix must actually be shorter than the full dimensionality.
	if ix.state.Load().ti.prefixDim >= 24 {
		t.Fatalf("prefix dim %d should be < 24", ix.state.Load().ti.prefixDim)
	}
}

func TestCenterPCABuild(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	// Data with a large mean offset: centering should not break anything.
	x := skewedData(rng, 500, 16, 1.0)
	for i := range x.Data {
		x.Data[i] += 100
	}
	ix, err := Build(x, x, Config{
		NumSubspaces: 4, Budget: 24, Seed: 73, TIClusters: 10, CenterPCA: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for trial := 0; trial < 10; trial++ {
		qi := rng.Intn(500)
		res, err := ix.SearchWith(x.Row(qi), 5, SearchOptions{VisitFrac: 1})
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
	if hits < 8 {
		t.Fatalf("centered build self-recall %d/10", hits)
	}
}

func TestSeparateTrainSet(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	all := skewedData(rng, 1500, 16, 1.2)
	train := all.SliceRows(0, 500)
	data := all.SliceRows(500, 1500)
	ix, err := Build(train, data, Config{NumSubspaces: 4, Budget: 32, Seed: 74, TIClusters: 15})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 1000 {
		t.Fatalf("len %d", ix.Len())
	}
	hits := 0
	for trial := 0; trial < 10; trial++ {
		qi := rng.Intn(1000)
		res, err := ix.SearchWith(data.Row(qi), 10, SearchOptions{VisitFrac: 1})
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
	if hits < 7 {
		t.Fatalf("separate-train self-recall %d/10", hits)
	}
}

// Subspace variance shares exposed by the index must sum to ~1 and be
// non-increasing (global importance ordering, §III-B).
func TestSubspaceVarianceInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for _, nonUniform := range []bool{false, true} {
		x := skewedData(rng, 700, 32, 1.5)
		ix, err := Build(x, x, Config{
			NumSubspaces: 8, Budget: 40, Seed: 75, TIClusters: 10, NonUniform: nonUniform,
		})
		if err != nil {
			t.Fatal(err)
		}
		vars := ix.SubspaceVariances()
		var sum float64
		for i, v := range vars {
			sum += v
			if i > 0 && v > vars[i-1]+1e-9 {
				t.Fatalf("nonUniform=%v: importance ordering violated: %v", nonUniform, vars)
			}
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("nonUniform=%v: variances sum to %v", nonUniform, sum)
		}
		lengths := ix.cb.Sub.Lengths
		total := 0
		for _, l := range lengths {
			if l < 1 {
				t.Fatalf("empty subspace: %v", lengths)
			}
			total += l
		}
		if total != 32 {
			t.Fatalf("lengths %v don't cover 32 dims", lengths)
		}
	}
}

// VisitFrac is 0 (the index default) or a fraction in (0, 1]; NaN and
// values outside [0, 1] are errors at every search entry point, counted
// like any other rejected query, in both accuracy modes.
func TestVisitFracContract(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	x := skewedData(rng, 400, 16, 1.0)
	for _, acc := range []AccuracyMode{AccuracyExact, AccuracyFast} {
		ix, err := Build(x, x, Config{NumSubspaces: 4, Budget: 24, Seed: 27, TIClusters: 8, AccuracyMode: acc})
		if err != nil {
			t.Fatal(err)
		}
		s := ix.NewSearcher()
		qz, err := ix.ProjectQuery(x.Row(3))
		if err != nil {
			t.Fatal(err)
		}
		entries := map[string]func(SearchOptions) error{
			"Index.SearchWith": func(o SearchOptions) error { _, err := ix.SearchWith(x.Row(3), 5, o); return err },
			"Searcher.Search":  func(o SearchOptions) error { _, err := s.Search(x.Row(3), 5, o); return err },
			"Searcher.SearchProjected": func(o SearchOptions) error {
				_, err := s.SearchProjected(qz, 5, o)
				return err
			},
		}
		for name, search := range entries {
			for _, f := range []float64{math.NaN(), -0.1, math.Inf(-1), 1.0000001, 2, math.Inf(1)} {
				before := ix.Metrics().Snapshot().Errors
				err := search(SearchOptions{VisitFrac: f})
				if err == nil || !strings.Contains(err.Error(), "VisitFrac") {
					t.Errorf("%v %s VisitFrac %v: got %v, want a VisitFrac error", acc, name, f, err)
				}
				if got := ix.Metrics().Snapshot().Errors - before; got != 1 {
					t.Errorf("%v %s VisitFrac %v: %d errors counted, want 1", acc, name, f, got)
				}
			}
			for _, f := range []float64{0, 0.01, 0.5, 1} {
				if err := search(SearchOptions{VisitFrac: f}); err != nil {
					t.Errorf("%v %s VisitFrac %v: %v", acc, name, f, err)
				}
			}
		}
	}
}
