package vaq

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"vaq/internal/core"
	"vaq/internal/vec"
)

// buildCore builds through internal/core with settings the public Config
// does not carry, and wraps the result as an Index.
func buildCore(t testing.TB, data [][]float32, cfg core.Config) *Index {
	t.Helper()
	m, err := vec.FromRows(data)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := core.Build(m, m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &Index{inner: inner}
}

func genData(rng *rand.Rand, n, d int) [][]float32 {
	out := make([][]float32, n)
	for i := range out {
		row := make([]float32, d)
		for j := 0; j < d; j++ {
			scale := math.Pow(float64(j+1), -1)
			row[j] = float32((float64(rng.Intn(3)-1)*2 + rng.NormFloat64()*0.3) * scale)
		}
		out[i] = row
	}
	return out
}

func TestBuildAndSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := genData(rng, 1500, 32)
	ix, err := Build(data, Config{NumSubspaces: 8, Budget: 64, Seed: 1, TIClusters: 30})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 1500 || ix.inner.Dim() != 32 {
		t.Fatalf("shape %d %d", ix.Len(), ix.inner.Dim())
	}
	res, err := ix.Search(data[7], 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 {
		t.Fatalf("results %d", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Fatal("results not sorted")
		}
	}
	stats := ix.Stats()
	if stats.N != 1500 || len(stats.BitsPerSubspace) != 8 {
		t.Fatalf("stats %+v", stats)
	}
	sum := 0
	for _, b := range stats.BitsPerSubspace {
		sum += b
	}
	if sum != 64 {
		t.Fatalf("bits sum %d", sum)
	}
	if stats.CodeBytes != (64*1500+7)/8 {
		t.Fatalf("code bytes %d", stats.CodeBytes)
	}
	if c := ix.inner.TIClusterCount(); c != 30 {
		t.Fatalf("clusters %d", c)
	}
	var varSum float64
	for _, v := range stats.SubspaceVariances {
		varSum += v
	}
	if math.Abs(varSum-1) > 1e-6 {
		t.Fatalf("subspace variances sum to %v", varSum)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, Config{NumSubspaces: 2, Budget: 8}); err == nil {
		t.Fatal("empty data must fail")
	}
	if _, err := Build([][]float32{{1, 2}, {1}}, Config{NumSubspaces: 1, Budget: 8}); err == nil {
		t.Fatal("ragged rows must fail")
	}
	rng := rand.New(rand.NewSource(2))
	data := genData(rng, 50, 8)
	if _, err := Build(data, Config{NumSubspaces: 0, Budget: 8}); err == nil {
		t.Fatal("m=0 must fail")
	}
}

func TestBuildWithTrainingSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	train := genData(rng, 500, 16)
	data := genData(rng, 1000, 16)
	ix, err := BuildWithTrainingSet(train, data, Config{NumSubspaces: 4, Budget: 32, Seed: 3, TIClusters: 15})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 1000 {
		t.Fatalf("len %d", ix.Len())
	}
	if _, err := BuildWithTrainingSet([][]float32{{1}, {1, 2}}, data, Config{}); err == nil {
		t.Fatal("ragged train must fail")
	}
	if _, err := BuildWithTrainingSet(train, [][]float32{{1}, {1, 2}}, Config{}); err == nil {
		t.Fatal("ragged data must fail")
	}
}

// core.Build reads a flat row-major matrix in place and answers as a build
// over the same rows does.
func TestBuildFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, d := 600, 16
	flat := make([]float32, n*d)
	for i := range flat {
		flat[i] = float32(rng.NormFloat64())
	}
	cfg := Config{NumSubspaces: 4, Budget: 16, Seed: 4, TIClusters: 10}
	m := &vec.Matrix{Rows: n, Cols: d, Data: flat}
	inner, err := core.Build(m, m, cfg.toCore())
	if err != nil {
		t.Fatal(err)
	}
	ix := &Index{inner: inner}
	if ix.Len() != n {
		t.Fatalf("len %d", ix.Len())
	}
	rows := make([][]float32, n)
	for i := range rows {
		rows[i] = flat[i*d : (i+1)*d]
	}
	ref, err := Build(rows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, qi := range []int{0, 17, 599} {
		a, errA := ix.Search(rows[qi], 5)
		b, errB := ref.Search(rows[qi], 5)
		if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
			t.Fatalf("query %d: flat %v (%v), rows %v (%v)", qi, a, errA, b, errB)
		}
	}
}

func TestSearchWithOptions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := genData(rng, 1000, 16)
	ix, err := Build(data, Config{NumSubspaces: 4, Budget: 32, Seed: 5, TIClusters: 25})
	if err != nil {
		t.Fatal(err)
	}
	q := data[3]
	full, err := ix.inner.SearchWith(q, 5, core.SearchOptions{Mode: core.ModeHeap})
	if err != nil {
		t.Fatal(err)
	}
	tiea, err := ix.SearchWith(q, 5, SearchOptions{VisitFrac: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range full {
		if math.Abs(float64(full[i].Dist-tiea[i].Dist)) > 1e-5 {
			t.Fatalf("modes disagree at %d: %v vs %v", i, full[i], tiea[i])
		}
	}
	if _, err := ix.SearchWith(make([]float32, 3), 5, SearchOptions{}); err == nil {
		t.Fatal("bad dim must fail")
	}
}

func TestSearcherReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := genData(rng, 500, 16)
	ix, err := Build(data, Config{NumSubspaces: 4, Budget: 24, Seed: 6, TIClusters: 10})
	if err != nil {
		t.Fatal(err)
	}
	s := ix.NewSearcher()
	for trial := 0; trial < 5; trial++ {
		q := data[rng.Intn(500)]
		a, err := s.Search(q, 5, SearchOptions{VisitFrac: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := ix.SearchWith(q, 5, SearchOptions{VisitFrac: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("searcher disagrees: %v vs %v", a[i], b[i])
			}
		}
	}
	if _, err := s.Search(make([]float32, 2), 3, SearchOptions{}); err == nil {
		t.Fatal("bad dim must fail")
	}
}

func TestSelfRecallPublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := genData(rng, 2000, 32)
	ix, err := Build(data, Config{NumSubspaces: 8, Budget: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for trial := 0; trial < 20; trial++ {
		qi := rng.Intn(2000)
		res, err := ix.SearchWith(data[qi], 10, SearchOptions{VisitFrac: 1})
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
		t.Fatalf("self recall %d/20", hits)
	}
}
