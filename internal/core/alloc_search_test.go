package core

import (
	"math/rand"
	"testing"
)

// TestSearcherSearchAllocs pins the per-query garbage of a reused
// Searcher: the projected query, its float64 scratch, the lookup tables
// and the top-k collector are all Searcher-owned, so the returned result
// slice is the only allocation left, in every mode and both arithmetics.
func TestSearcherSearchAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	x := skewedData(rng, 2000, 32, 1.0)
	for _, acc := range []AccuracyMode{AccuracyExact, AccuracyFast} {
		ix, err := Build(x, x, Config{NumSubspaces: 8, Budget: 64, MaxBits: 11, Seed: 46, TIClusters: 50, AccuracyMode: acc})
		if err != nil {
			t.Fatal(err)
		}
		s := ix.NewSearcher()
		for _, opt := range []SearchOptions{
			{VisitFrac: 0.1},
			{Mode: ModeHeap},
			{Mode: ModeEA},
		} {
			i := 0
			search := func() {
				if _, err := s.Search(x.Row(i%x.Rows), 10, opt); err != nil {
					t.Fatal(err)
				}
				i++
			}
			search() // size the Searcher's scratch
			if got := testing.AllocsPerRun(50, search); got > 1 {
				t.Errorf("%v %s: %.1f allocations per Search, want <= 1", acc, opt.Mode, got)
			}
		}
	}
}
