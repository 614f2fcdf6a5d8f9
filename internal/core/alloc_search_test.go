package core

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"vaq/internal/trace"
	"vaq/internal/vec"
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

// TestIndexSearchWithAllocs pins the pool behind one-shot queries:
// Index.SearchWith borrows a sized Searcher instead of building one, so it
// allocates no more than a reused Searcher does (only the result).
func TestIndexSearchWithAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops items at random, so pooled allocations are not stable")
	}
	rng := rand.New(rand.NewSource(47))
	x := skewedData(rng, 2000, 32, 1.0)
	ix, err := Build(x, x, Config{NumSubspaces: 8, Budget: 64, MaxBits: 11, Seed: 47, TIClusters: 50})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	search := func() {
		if _, err := ix.SearchWith(x.Row(i%x.Rows), 10, SearchOptions{VisitFrac: 0.1}); err != nil {
			t.Fatal(err)
		}
		i++
	}
	search() // fill the pool with a sized Searcher
	// The result is the one allocation per query; the slack covers one
	// Searcher rebuilt (about 12 allocations) should a GC empty the pool.
	if got := testing.AllocsPerRun(100, search); got > 1.5 {
		t.Errorf("%.2f allocations per Index.SearchWith, want <= 1.5", got)
	}
}

// TestIndexSearchFollowsTracer: a pooled Searcher takes the index's
// current tracer on each use, so EnableTracing and DisableTracing take
// effect on the very next one-shot query.
func TestIndexSearchFollowsTracer(t *testing.T) {
	ix, x := observeTestIndex(t, Config{})
	search := func() {
		t.Helper()
		if _, err := ix.Search(x.Row(0), 5); err != nil {
			t.Fatal(err)
		}
	}
	search() // pool an untraced Searcher
	tr := ix.EnableTracing(trace.Config{RingSize: 8})
	search()
	if tr.Count() != 1 {
		t.Fatalf("after EnableTracing: traced %d queries, want 1", tr.Count())
	}
	ix.DisableTracing()
	search()
	if tr.Count() != 1 {
		t.Fatalf("after DisableTracing: traced %d queries, want 1", tr.Count())
	}
	tr2 := ix.EnableTracing(trace.Config{RingSize: 8})
	search()
	if tr.Count() != 1 || tr2.Count() != 1 {
		t.Fatalf("after re-enabling: old tracer %d, new tracer %d queries, want 1 and 1", tr.Count(), tr2.Count())
	}
}

// TestConcurrentPooledSearches shares the Searcher pool between goroutines
// while another toggles tracing: every one-shot answer must equal the one a
// private Searcher gives, whichever pooled Searcher served it.
func TestConcurrentPooledSearches(t *testing.T) {
	ix, x := observeTestIndex(t, Config{})
	const queries, workers = 40, 4
	want := make([][]vec.Neighbor, queries)
	s := ix.NewSearcher()
	for i := range want {
		res, err := s.Search(x.Row(i), 5, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	done := make(chan struct{})
	toggled := make(chan struct{})
	go func() {
		defer close(toggled)
		for {
			select {
			case <-done:
				return
			default:
				ix.EnableTracing(trace.Config{RingSize: 4})
				ix.DisableTracing()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range want {
				got, err := ix.Search(x.Row(i), 5)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("query %d: pooled %v, private %v", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	<-toggled
}
