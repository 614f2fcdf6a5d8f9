package core

import (
	"math/rand"
	"testing"

	"vaq/internal/vec"
)

func TestAddVectorsSearchable(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	x := skewedData(rng, 1000, 16, 1.2)
	ix, err := Build(x.SliceRows(0, 700), x.SliceRows(0, 700), Config{
		NumSubspaces: 4, Budget: 32, Seed: 51, TIClusters: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	extra := x.SliceRows(700, 1000)
	firstID, err := ix.Add(extra)
	if err != nil {
		t.Fatal(err)
	}
	if firstID != 700 {
		t.Fatalf("first id %d", firstID)
	}
	if ix.Len() != 1000 {
		t.Fatalf("len %d", ix.Len())
	}
	// Added vectors must be findable by querying with themselves.
	hits := 0
	for trial := 0; trial < 20; trial++ {
		qi := 700 + rng.Intn(300)
		res, err := ix.SearchWith(x.Row(qi), 10, SearchOptions{VisitFrac: 1})
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
		t.Fatalf("added vectors self-recall %d/20", hits)
	}
	// Original vectors still searchable.
	res, err := ix.Search(x.Row(3), 5)
	if err != nil || len(res) != 5 {
		t.Fatalf("original search after Add: %v %v", res, err)
	}
}

func TestAddPreservesClusterOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	x := skewedData(rng, 600, 16, 1.0)
	ix, err := Build(x.SliceRows(0, 400), x.SliceRows(0, 400), Config{
		NumSubspaces: 4, Budget: 24, Seed: 52, TIClusters: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Add(x.SliceRows(400, 600)); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, members := range ix.state.Load().ti.clusters {
		total += len(members)
		for j := 1; j < len(members); j++ {
			if members[j].dist < members[j-1].dist {
				t.Fatalf("cluster ordering broken after Add")
			}
		}
	}
	if total != 600 {
		t.Fatalf("cluster membership %d, want 600", total)
	}
	// Pruning modes must still agree exactly after insertion.
	q := x.Row(450)
	heap, _ := ix.SearchWith(q, 8, SearchOptions{Mode: ModeHeap})
	tiea, _ := ix.SearchWith(q, 8, SearchOptions{Mode: ModeTIEA, VisitFrac: 1})
	for i := range heap {
		if heap[i] != tiea[i] {
			t.Fatalf("modes disagree after Add: %v vs %v", heap[i], tiea[i])
		}
	}
}

func TestAddErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	x := skewedData(rng, 200, 8, 1.0)
	ix, err := Build(x, x, Config{NumSubspaces: 2, Budget: 8, Seed: 53, TIClusters: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Add(vec.NewMatrix(2, 9)); err == nil {
		t.Fatal("wrong dimension must fail")
	}
	id, err := ix.Add(nil)
	if err != nil || id != 200 {
		t.Fatalf("nil add should no-op: %d %v", id, err)
	}
	id, err = ix.Add(vec.NewMatrix(0, 8))
	if err != nil || id != 200 {
		t.Fatalf("empty add should no-op: %d %v", id, err)
	}
}
