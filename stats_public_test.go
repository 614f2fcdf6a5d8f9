package vaq

import (
	"math/rand"
	"testing"

	"vaq/internal/core"
)

func TestPublicSearchStats(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	data := genData(rng, 1500, 16)
	ix, err := Build(data, Config{NumSubspaces: 4, Budget: 32, Seed: 71, TIClusters: 30})
	if err != nil {
		t.Fatal(err)
	}
	s := ix.NewSearcher()
	if _, err := s.Search(data[10], 5, SearchOptions{VisitFrac: 0.2}); err != nil {
		t.Fatal(err)
	}
	st := s.LastStats()
	if st.ClustersVisited != 6 {
		t.Fatalf("expected 6 of 30 clusters visited, got %+v", st)
	}
	if st.CodesConsidered <= 0 || st.CodesConsidered >= 1500 {
		t.Fatalf("TI should restrict the considered set: %+v", st)
	}
	if st.Lookups <= 0 {
		t.Fatalf("no lookups recorded: %+v", st)
	}
	// A heap scan resets the stats to the exhaustive profile.
	if _, err := s.inner.Search(data[10], 5, core.SearchOptions{Mode: core.ModeHeap}); err != nil {
		t.Fatal(err)
	}
	st = s.LastStats()
	if st.CodesConsidered != 1500 || st.CodesSkippedTI != 0 {
		t.Fatalf("heap stats wrong: %+v", st)
	}
}
