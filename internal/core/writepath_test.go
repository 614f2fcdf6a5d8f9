package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vaq/internal/kmeans"
	"vaq/internal/quantizer"
	"vaq/internal/vec"
)

// sameNeighbors reports whether two answers hold the same ids and the same
// distance bits in the same order.
func sameNeighbors(a, b []vec.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float32bits(a[i].Dist) != math.Float32bits(b[i].Dist) {
			return false
		}
	}
	return true
}

// noisyQueries returns nq perturbed copies of rows of x.
func noisyQueries(rng *rand.Rand, x *vec.Matrix, nq int) [][]float32 {
	qs := make([][]float32, nq)
	for i := range qs {
		qs[i] = append([]float32(nil), x.Row(rng.Intn(x.Rows))...)
		for j := range qs[i] {
			qs[i][j] += float32(rng.NormFloat64() * 0.05)
		}
	}
	return qs
}

// Len must be readable beside a writer (it once read a plain int that Add
// wrote under a lock Len did not take). Meaningful under -race.
func TestLenBesideAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	x := skewedData(rng, 900, 16, 1.1)
	ix, err := Build(x.SliceRows(0, 300), x.SliceRows(0, 300), Config{
		NumSubspaces: 4, Budget: 24, Seed: 61, TIClusters: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := 0
		for !done.Load() {
			n := ix.Len()
			if n < last || (n-300)%50 != 0 {
				t.Errorf("Len went %d -> %d", last, n)
				return
			}
			last = n
			if _, err := ix.Add(nil); err != nil { // the empty-batch early return reads n too
				t.Error(err)
				return
			}
		}
	}()
	for lo := 300; lo < 900; lo += 50 {
		if _, err := ix.Add(x.SliceRows(lo, lo+50)); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	wg.Wait()
	if ix.Len() != 900 {
		t.Fatalf("Len %d after adds, want 900", ix.Len())
	}
}

// A query holding a NaN or an infinity has no nearest neighbors: Search
// and SearchProjected refuse it with ErrNonFinite in both accuracy modes,
// and count it as a failed query.
func TestNonFiniteQueryRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	x := skewedData(rng, 400, 8, 1.0)
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	poisoned := func(q []float32, col int, v float32) []float32 {
		out := append([]float32(nil), q...)
		out[col] = v
		return out
	}
	for _, acc := range []AccuracyMode{AccuracyExact, AccuracyFast} {
		ix, err := Build(x, x, Config{NumSubspaces: 2, Budget: 12, Seed: 63, TIClusters: 6, AccuracyMode: acc})
		if err != nil {
			t.Fatal(err)
		}
		qz, err := ix.ProjectQuery(x.Row(0))
		if err != nil {
			t.Fatal(err)
		}
		s := ix.NewSearcher()
		cases := []struct {
			name string
			run  func() error
			want string
		}{
			{"Search NaN", func() error { _, err := s.Search(poisoned(x.Row(0), 3, nan), 5, SearchOptions{}); return err }, "component 3"},
			{"Search Inf heap", func() error {
				_, err := s.Search(poisoned(x.Row(0), 0, inf), 5, SearchOptions{Mode: ModeHeap})
				return err
			}, "component 0"},
			{"SearchProjected NaN", func() error { _, err := s.SearchProjected(poisoned(qz, 1, nan), 5, SearchOptions{}); return err }, "component 1"},
			{"SearchProjected -Inf EA", func() error {
				_, err := s.SearchProjected(poisoned(qz, 0, -inf), 5, SearchOptions{Mode: ModeEA})
				return err
			}, "component 0"},
		}
		for _, tc := range cases {
			err := tc.run()
			if !errors.Is(err, vec.ErrNonFinite) {
				t.Fatalf("%v %s: got %v, want ErrNonFinite", acc, tc.name, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%v %s: error %q does not name %s", acc, tc.name, err, tc.want)
			}
		}
		if got := ix.Metrics().Snapshot().Errors; got != uint64(len(cases)) {
			t.Fatalf("%v: %d errors recorded, want %d", acc, got, len(cases))
		}
		if _, err := s.Search(x.Row(0), 5, SearchOptions{}); err != nil {
			t.Fatalf("%v: finite query after rejections: %v", acc, err)
		}
	}
}

// NaN and infinities are refused by every entry point of the write path,
// with the row and column named, before anything changes.
func TestNonFiniteInputRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	x := skewedData(rng, 400, 8, 1.0)
	cfg := Config{NumSubspaces: 2, Budget: 12, Seed: 62, TIClusters: 6}
	poisoned := func(rows, row, col int, v float32) *vec.Matrix {
		m := x.SliceRows(0, rows).Clone()
		m.Set(row, col, v)
		return m
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(-1))
	clean := x.SliceRows(0, 300)
	ix, err := Build(clean, clean, cfg)
	if err != nil {
		t.Fatal(err)
	}
	trained, err := Train(clean, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func() error
		want string
	}{
		{"Build train==data NaN", func() error { m := poisoned(300, 7, 3, nan); _, err := Build(m, m, cfg); return err }, "row 7, column 3"},
		{"Build train Inf", func() error { _, err := Build(poisoned(300, 0, 0, inf), clean, cfg); return err }, "row 0, column 0"},
		{"Build data NaN", func() error { _, err := Build(clean, poisoned(200, 199, 7, nan), cfg); return err }, "row 199, column 7"},
		{"Train NaN", func() error { _, err := Train(poisoned(300, 5, 1, nan), cfg); return err }, "row 5, column 1"},
		{"EncodeIndex Inf", func() error { _, err := trained.EncodeIndex(poisoned(100, 42, 2, inf)); return err }, "row 42, column 2"},
		{"Add NaN", func() error { _, err := ix.Add(poisoned(20, 19, 6, nan)); return err }, "row 19, column 6"},
		{"Add Inf", func() error { _, err := ix.Add(poisoned(20, 3, 0, inf)); return err }, "row 3, column 0"},
	} {
		err := tc.run()
		if !errors.Is(err, vec.ErrNonFinite) {
			t.Fatalf("%s: got %v, want ErrNonFinite", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
	}

	// The rejected Adds above left the index as it was.
	ref, err := Build(clean, clean, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 300 {
		t.Fatalf("Len %d after rejected Adds, want 300", ix.Len())
	}
	for _, q := range noisyQueries(rng, x, 20) {
		got, _ := ix.SearchWith(q, 5, SearchOptions{VisitFrac: 1})
		want, _ := ref.SearchWith(q, 5, SearchOptions{VisitFrac: 1})
		if !sameNeighbors(got, want) {
			t.Fatalf("answers changed after rejected Adds: %v vs %v", got, want)
		}
	}
	if first, err := ix.Add(x.SliceRows(300, 320)); err != nil || first != 300 {
		t.Fatalf("Add after rejected Adds: first id %d, err %v", first, err)
	}
}

// permutedBooks returns cb's dictionaries with their rows shuffled — the
// same centroids under other labels, in an order that is not canonical, so
// they are encoded against by linear scan — and, per subspace, the map from
// a canonical code to its label in the shuffled book.
func permutedBooks(rng *rand.Rand, cb *quantizer.Codebooks) (*quantizer.Codebooks, [][]uint16) {
	books := make([]*vec.Matrix, len(cb.Books))
	relabel := make([][]uint16, len(cb.Books))
	for s, book := range cb.Books {
		perm := rng.Perm(book.Rows)
		books[s] = book.SelectRowsCopy(perm)
		relabel[s] = make([]uint16, book.Rows)
		for label, canonical := range perm {
			relabel[s][canonical] = uint16(label)
		}
	}
	return quantizer.NewCodebooks(cb.Sub, cb.Bits, books), relabel
}

// Code values are labels: an index over the same centroids in another row
// order, searched linearly, answers every query with the same ids, distance
// bits and pruning statistics — through Build, and through a stream whose
// books were permuted and codes remapped by hand.
func TestRelabelInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	x := skewedData(rng, 2600, 32, 1.3)
	data := x.SliceRows(0, 2000)
	cfg := Config{
		// MaxBits 11 with a 1024 hierarchical threshold: the leading books
		// are trained hierarchically and hold 2048 entries.
		NumSubspaces: 8, Budget: 52, MaxBits: 11, Seed: 63, TIClusters: 24,
	}
	trained, err := Train(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s, book := range trained.cb.Books {
		if !kmeans.IsSorted(book) {
			t.Fatalf("trained book %d is not in canonical order", s)
		}
	}
	canonical, err := trained.EncodeIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := *trained
	var relabel [][]uint16
	shuffled.cb, relabel = permutedBooks(rng, trained.cb)
	linear, err := shuffled.EncodeIndex(data)
	if err != nil {
		t.Fatal(err)
	}

	// A stream written by hand from the canonical index: shuffled books,
	// codes remapped to match. Nothing in it was encoded by this build.
	cst := canonical.state.Load()
	remapped := quantizer.NewCodes(cst.codes.N, cst.codes.M)
	for i, c := range cst.codes.Data {
		remapped.Data[i] = relabel[i%cst.codes.M][c]
	}
	legacy := &Index{
		cfg: canonical.cfg, model: canonical.model, ratios: canonical.ratios, subVar: canonical.subVar,
		bits: canonical.bits, cb: shuffled.cb, queryDim: canonical.queryDim,
	}
	var stream, canonicalStream bytes.Buffer
	if err := legacy.writeBody(&stream, indexVersion, &state{n: cst.n, codes: remapped, ti: cst.ti}); err != nil {
		t.Fatal(err)
	}
	if _, err := canonical.WriteTo(&canonicalStream); err != nil {
		t.Fatal(err)
	}
	if stream.Len() != canonicalStream.Len() {
		t.Fatalf("relabelled stream is %d bytes, canonical %d", stream.Len(), canonicalStream.Len())
	}
	loaded, err := Read(&stream)
	if err != nil {
		t.Fatal(err)
	}

	// All three take the same batch afterwards, each through its own
	// encoder.
	extra := x.SliceRows(2000, 2600)
	for name, ix := range map[string]*Index{"canonical": canonical, "linear": linear, "loaded": loaded} {
		if first, err := ix.Add(extra); err != nil || first != 2000 {
			t.Fatalf("%s: Add first id %d, err %v", name, first, err)
		}
	}

	queries := noisyQueries(rng, x, 500)
	sc, sl, sr := canonical.NewSearcher(), linear.NewSearcher(), loaded.NewSearcher()
	for i, q := range queries {
		opt := SearchOptions{VisitFrac: []float64{0.1, 0.25, 1}[i%3]}
		if i%7 == 0 {
			opt.Mode = ModeEA
		}
		want, err := sc.Search(q, 10, opt)
		if err != nil {
			t.Fatal(err)
		}
		wantStats := sc.LastStats()
		for name, s := range map[string]*Searcher{"linear": sl, "loaded": sr} {
			got, err := s.Search(q, 10, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !sameNeighbors(got, want) {
				t.Fatalf("query %d: %s index answers %v, canonical %v", i, name, got, want)
			}
			st := s.LastStats()
			if st.ClustersVisited != wantStats.ClustersVisited || st.CodesConsidered != wantStats.CodesConsidered ||
				st.CodesSkippedTI != wantStats.CodesSkippedTI || st.CodesAbandonedEA != wantStats.CodesAbandonedEA ||
				st.Lookups != wantStats.Lookups {
				t.Fatalf("query %d: %s index stats %+v, canonical %+v", i, name, st, wantStats)
			}
		}
	}
}

// Searchers hammer full scans while a writer publishes batches. Every
// answer must be the serial answer of some prefix of the batches — never a
// mix of two — prefixes must not go backwards for one searcher, a WriteTo
// taken mid-stream must read back as a prefix, and at the point where a
// batch's work is done but unpublished (the hook) readers are admitted and
// still see the previous prefix.
func TestConcurrentAddSearchPrefixOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	const base, batch, batches, k = 600, 40, 12, 8
	x := skewedData(rng, base+batch*batches, 16, 1.2)
	for _, accuracy := range []AccuracyMode{AccuracyExact, AccuracyFast} {
		ix, err := Build(x.SliceRows(0, base), x.SliceRows(0, base), Config{
			NumSubspaces: 4, Budget: 28, Seed: 64, TIClusters: 12,
			AccuracyMode: accuracy, RecallSampleRate: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		queries := noisyQueries(rng, x, 24)
		opt := SearchOptions{VisitFrac: 1}

		// Serial reference: a copy of the index takes the batches one by one.
		var raw bytes.Buffer
		if _, err := ix.WriteTo(&raw); err != nil {
			t.Fatal(err)
		}
		ref, err := Read(&raw)
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.SetAccuracyMode(accuracy); err != nil {
			t.Fatal(err)
		}
		serial := make([][][]vec.Neighbor, batches+1) // [prefix][query]
		for p := 0; p <= batches; p++ {
			if p > 0 {
				if _, err := ref.Add(x.SliceRows(base+(p-1)*batch, base+p*batch)); err != nil {
					t.Fatal(err)
				}
			}
			serial[p] = make([][]vec.Neighbor, len(queries))
			for qi, q := range queries {
				if serial[p][qi], err = ref.SearchWith(q, k, opt); err != nil {
					t.Fatal(err)
				}
			}
		}
		// prefixOf finds the prefix whose serial answer res is, at or after
		// from (several prefixes can share an answer; the earliest
		// admissible one keeps the monotonicity check sound).
		prefixOf := func(qi int, res []vec.Neighbor, from int) int {
			for p := from; p <= batches; p++ {
				if sameNeighbors(res, serial[p][qi]) {
					return p
				}
			}
			return -1
		}

		published := 0 // batches published so far; written by the writer only
		testHookBeforePublish = func(hooked *Index) {
			if hooked != ix {
				return
			}
			if n := ix.Len(); n != base+published*batch {
				t.Errorf("hook: Len %d with %d batches published", n, published)
			}
			res, err := ix.SearchWith(queries[0], k, opt)
			if err != nil || !sameNeighbors(res, serial[published][0]) {
				t.Errorf("hook: a search beside the prepared batch %d does not see prefix %d (err %v)", published+1, published, err)
			}
			var snap bytes.Buffer
			if _, err := ix.WriteTo(&snap); err != nil {
				t.Errorf("hook: WriteTo: %v", err)
			}
			if rep := ix.Diagnose(); rep.N != base+published*batch {
				t.Errorf("hook: Diagnose sees %d vectors with %d batches published", rep.N, published)
			}
		}

		var done atomic.Bool
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				s := ix.NewSearcher()
				floor := 0
				for i := g; !done.Load(); i++ {
					qi := i % len(queries)
					res, err := s.Search(queries[qi], k, opt)
					if err != nil {
						t.Error(err)
						return
					}
					p := prefixOf(qi, res, floor)
					if p < 0 {
						t.Errorf("searcher %d: answer to query %d is no prefix state at or after %d: %v", g, qi, floor, res)
						return
					}
					// A later search may not observe an earlier prefix. An
					// answer shared by several prefixes resolves to the
					// earliest, which never overstates the floor.
					floor = p
				}
			}(g)
		}
		var snaps []*bytes.Buffer
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() && len(snaps) < 4 {
				var b bytes.Buffer
				if _, err := ix.WriteTo(&b); err != nil {
					t.Error(err)
					return
				}
				snaps = append(snaps, &b)
			}
		}()
		for p := 1; p <= batches; p++ {
			first, err := ix.Add(x.SliceRows(base+(p-1)*batch, base+p*batch))
			if err != nil || first != base+(p-1)*batch {
				t.Fatalf("Add %d: first id %d, err %v", p, first, err)
			}
			published = p
		}
		done.Store(true)
		wg.Wait()
		testHookBeforePublish = nil

		for i, b := range snaps {
			back, err := Read(b)
			if err != nil {
				t.Fatalf("snapshot %d: %v", i, err)
			}
			if err := back.SetAccuracyMode(accuracy); err != nil {
				t.Fatal(err)
			}
			p := (back.Len() - base) / batch
			if back.Len() != base+p*batch || p < 0 || p > batches {
				t.Fatalf("snapshot %d holds %d vectors: not a prefix", i, back.Len())
			}
			for qi, q := range queries {
				res, err := back.SearchWith(q, k, opt)
				if err != nil || !sameNeighbors(res, serial[p][qi]) {
					t.Fatalf("snapshot %d (prefix %d) answers query %d with %v, serial %v (err %v)", i, p, qi, res, serial[p][qi], err)
				}
			}
		}
		for qi, q := range queries {
			res, _ := ix.SearchWith(q, k, opt)
			if !sameNeighbors(res, serial[batches][qi]) {
				t.Fatalf("final answer to query %d differs from the serial replay", qi)
			}
		}
	}
}
