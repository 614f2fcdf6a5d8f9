package vaq

import (
	"bytes"
	"math/rand"
	"os"
	"testing"
)

func TestPublicSaveLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	data := genData(rng, 600, 16)
	ix, err := Build(data, Config{NumSubspaces: 4, Budget: 32, Seed: 31, TIClusters: 12})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/public.vaqi"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := Read(f)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ix.Search(data[9], 5)
	b, _ := got.Search(data[9], 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("answers differ after load: %v vs %v", a, b)
		}
	}
	sa, sb := ix.Stats(), got.Stats()
	if sa.N != sb.N || sa.CodeBytes != sb.CodeBytes || ix.inner.TIClusterCount() != got.inner.TIClusterCount() {
		t.Fatalf("stats differ: %+v vs %+v", sa, sb)
	}
}

func TestPublicWriteToRead(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	data := genData(rng, 300, 8)
	ix, err := Build(data, Config{NumSubspaces: 2, Budget: 12, Seed: 32, TIClusters: 6})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("garbage must fail")
	}
}

func TestSearchBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	data := genData(rng, 1000, 16)
	ix, err := Build(data, Config{NumSubspaces: 4, Budget: 32, Seed: 33, TIClusters: 20})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]float32, 17)
	for i := range queries {
		q := append([]float32(nil), data[rng.Intn(len(data))]...)
		for j := range q {
			q[j] += float32(rng.NormFloat64() * 0.02)
		}
		queries[i] = q
	}
	opt := SearchOptions{VisitFrac: 1}
	batch, err := ix.SearchBatch(queries, 5, opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(queries) {
		t.Fatalf("batch length %d", len(batch))
	}
	for i, q := range queries {
		serial, err := ix.SearchWith(q, 5, opt)
		if err != nil {
			t.Fatal(err)
		}
		for j := range serial {
			if batch[i][j] != serial[j] {
				t.Fatalf("query %d rank %d: %v vs %v", i, j, batch[i][j], serial[j])
			}
		}
	}
}

func TestSearchBatchErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	data := genData(rng, 200, 8)
	ix, err := Build(data, Config{NumSubspaces: 2, Budget: 8, Seed: 34, TIClusters: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.SearchBatch([][]float32{data[0]}, 0, SearchOptions{}, 1); err == nil {
		t.Fatal("k=0 must fail")
	}
	if _, err := ix.SearchBatch([][]float32{{1, 2}}, 3, SearchOptions{}, 1); err == nil {
		t.Fatal("bad dimension must fail")
	}
	empty, err := ix.SearchBatch(nil, 3, SearchOptions{}, 1)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty batch: %v %v", empty, err)
	}
	// workers <= 0 uses default; workers > n clamps.
	res, err := ix.SearchBatch([][]float32{data[1]}, 2, SearchOptions{}, -1)
	if err != nil || len(res) != 1 || len(res[0]) != 2 {
		t.Fatalf("default workers: %v %v", res, err)
	}
}
