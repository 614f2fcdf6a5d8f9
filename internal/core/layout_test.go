package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"vaq/internal/vec"
)

// buildBothLayouts builds the same index twice, once per layout, with an
// otherwise identical config.
func buildBothLayouts(t *testing.T, x *vec.Matrix, cfg Config) (blocked, rowmajor *Index) {
	t.Helper()
	cfg.ScanLayout = LayoutBlocked
	blocked, err := Build(x, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ScanLayout = LayoutRowMajor
	rowmajor, err = Build(x, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return blocked, rowmajor
}

// compareLayouts runs the same queries through both indexes and demands
// byte-identical neighbors AND identical pruning stats: the blocked layout
// is a physical reorganization, not an algorithmic change, so every
// observable — ids, distances, skip/abandon counters — must match exactly.
func compareLayouts(t *testing.T, blocked, rowmajor *Index, queries *vec.Matrix, k int, opt SearchOptions) {
	t.Helper()
	sb := blocked.NewSearcher()
	sr := rowmajor.NewSearcher()
	for qi := 0; qi < queries.Rows; qi++ {
		q := queries.Row(qi)
		rb, err := sb.Search(q, k, opt)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := sr.Search(q, k, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rb, rr) {
			t.Fatalf("query %d opt %+v: results differ\nblocked:  %v\nrowmajor: %v", qi, opt, rb, rr)
		}
		if !reflect.DeepEqual(sb.LastStats(), sr.LastStats()) {
			t.Fatalf("query %d opt %+v: stats differ\nblocked:  %+v\nrowmajor: %+v",
				qi, opt, sb.LastStats(), sr.LastStats())
		}
	}
}

func layoutQuerySet(rng *rand.Rand, x *vec.Matrix, count int) *vec.Matrix {
	qs := vec.NewMatrix(count, x.Cols)
	for i := 0; i < count; i++ {
		row := qs.Row(i)
		copy(row, x.Row(rng.Intn(x.Rows)))
		for j := range row {
			row[j] += float32(rng.NormFloat64() * 0.05)
		}
	}
	return qs
}

// The acceptance bar of the layout change: for every search mode and a
// range of cluster-visit fractions, the blocked layout answers exactly like
// the legacy row-major scan.
func TestScanLayoutEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	x := skewedData(rng, 2500, 32, 1.2)
	blocked, rowmajor := buildBothLayouts(t, x, Config{
		NumSubspaces: 8, Budget: 56, Seed: 311, TIClusters: 40,
	})
	if blocked.state.Load().blocked == nil {
		t.Fatal("blocked layout index did not build its blocked store")
	}
	if rowmajor.state.Load().blocked != nil {
		t.Fatal("rowmajor layout index built a blocked store")
	}
	qs := layoutQuerySet(rng, x, 12)
	opts := []SearchOptions{
		{Mode: ModeHeap},
		{Mode: ModeEA},
		{Mode: ModeTIEA, VisitFrac: 0.25},
		{Mode: ModeTIEA, VisitFrac: 0.5},
		{Mode: ModeTIEA, VisitFrac: 1.0},
	}
	for _, opt := range opts {
		compareLayouts(t, blocked, rowmajor, qs, 10, opt)
	}
	// Truncated accumulation (dimensionality-reduction mode) exercises the
	// useSub < m paths of the blocked kernels.
	compareLayouts(t, blocked, rowmajor, qs, 10, SearchOptions{Mode: ModeTIEA, VisitFrac: 0.5, Subspaces: 5})
	compareLayouts(t, blocked, rowmajor, qs, 10, SearchOptions{Mode: ModeHeap, Subspaces: 3})
}

// Wide dictionaries (more than 8 bits per subspace) must take the uint16
// group path. MinBits=9 forces every dictionary past 256 entries.
func TestScanLayoutEquivalenceWideCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(313))
	x := skewedData(rng, 1600, 16, 1.0)
	blocked, rowmajor := buildBothLayouts(t, x, Config{
		NumSubspaces: 4, Budget: 38, MinBits: 9, MaxBits: 10,
		Seed: 313, TIClusters: 20, KMeansIters: 8,
	})
	bs := blocked.state.Load().blocked
	if bs.mW == 0 {
		t.Fatal("expected at least one wide (uint16) subspace under MinBits=9")
	}
	qs := layoutQuerySet(rng, x, 8)
	for _, opt := range []SearchOptions{
		{Mode: ModeHeap},
		{Mode: ModeEA},
		{Mode: ModeTIEA, VisitFrac: 0.5},
	} {
		compareLayouts(t, blocked, rowmajor, qs, 10, opt)
	}
}

// Add must leave the two layouts equivalent: the blocked store is rebuilt
// from the grown code set and the re-threaded clusters.
func TestScanLayoutEquivalenceAfterAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(317))
	x := skewedData(rng, 1200, 24, 1.1)
	extra := skewedData(rng, 300, 24, 1.1)
	blocked, rowmajor := buildBothLayouts(t, x, Config{
		NumSubspaces: 6, Budget: 42, Seed: 317, TIClusters: 25,
	})
	for _, ix := range []*Index{blocked, rowmajor} {
		if _, err := ix.Add(extra); err != nil {
			t.Fatal(err)
		}
	}
	if got := blocked.state.Load().blocked.perm; len(got) != 1500 {
		t.Fatalf("blocked store not rebuilt after Add: %d positions, want 1500", len(got))
	}
	qs := layoutQuerySet(rng, x, 8)
	for _, opt := range []SearchOptions{
		{Mode: ModeHeap},
		{Mode: ModeEA},
		{Mode: ModeTIEA, VisitFrac: 0.5},
	} {
		compareLayouts(t, blocked, rowmajor, qs, 10, opt)
	}
}

// The blocked store must be an exact permutation of the canonical codes:
// every cluster member appears once, at its cluster's block, holding the
// same per-subspace indices as the row-major truth.
func TestBlockedStoreMatchesCanonicalCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(331))
	x := skewedData(rng, 900, 16, 1.0)
	cfg := Config{NumSubspaces: 4, Budget: 28, Seed: 331, TIClusters: 15, ScanLayout: LayoutBlocked}
	ix, err := Build(x, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := ix.state.Load()
	bs := st.blocked
	seen := make([]bool, st.n)
	for c, members := range st.ti.clusters {
		cStart := int(bs.start[c])
		if int(bs.start[c+1])-cStart != len(members) {
			t.Fatalf("cluster %d: blocked span %d, members %d", c, int(bs.start[c+1])-cStart, len(members))
		}
		for mi, e := range members {
			p := cStart + mi
			if int(bs.perm[p]) != e.id {
				t.Fatalf("cluster %d pos %d: perm %d, want member id %d", c, mi, bs.perm[p], e.id)
			}
			if seen[e.id] {
				t.Fatalf("id %d appears twice in blocked store", e.id)
			}
			seen[e.id] = true
			row := st.codes.Row(e.id)
			blockStart := mi &^ (blockLanes - 1)
			cnt := len(members) - blockStart
			if cnt > blockLanes {
				cnt = blockLanes
			}
			q := cStart + blockStart
			lane := mi - blockStart
			for s := 0; s < bs.m; s++ {
				var got uint16
				if bs.narrow[s] {
					got = uint16(bs.data8[q*bs.mN+bs.ord[s]*cnt+lane])
				} else {
					got = bs.data16[q*bs.mW+bs.ord[s]*cnt+lane]
				}
				if got != row[s] {
					t.Fatalf("id %d subspace %d: blocked %d, canonical %d", e.id, s, got, row[s])
				}
			}
		}
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("id %d missing from blocked store", id)
		}
	}
}

// A v2 round trip preserves the layout setting and rebuilds the blocked
// store, and a pre-ScanLayout (version 1) stream still loads, defaulting
// to the blocked layout.
func TestSerializeLayoutRoundTripAndLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(337))
	x := skewedData(rng, 1000, 16, 1.0)
	q := append([]float32(nil), x.Row(3)...)
	for _, layout := range []ScanLayout{LayoutBlocked, LayoutRowMajor} {
		ix, err := Build(x, x, Config{
			NumSubspaces: 4, Budget: 28, Seed: 337, TIClusters: 15, ScanLayout: layout,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Layout() != layout {
			t.Fatalf("round trip: layout %v, want %v", loaded.Layout(), layout)
		}
		if (loaded.state.Load().blocked != nil) != (layout == LayoutBlocked) {
			t.Fatalf("layout %v: blocked store presence wrong after load", layout)
		}
		want, err := ix.SearchWith(q, 5, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.SearchWith(q, 5, SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("layout %v: loaded index answers differently", layout)
		}
	}

	// Legacy: an index written in the version-1 format (no ScanLayout
	// field) must load, default to the blocked layout, and search.
	ix, err := Build(x, x, Config{NumSubspaces: 4, Budget: 28, Seed: 337, TIClusters: 15})
	if err != nil {
		t.Fatal(err)
	}
	var legacy bytes.Buffer
	if err := ix.writeBody(&legacy, 1, ix.state.Load()); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&legacy)
	if err != nil {
		t.Fatalf("version-1 stream failed to load: %v", err)
	}
	if loaded.Layout() != LayoutBlocked {
		t.Fatalf("v1 load: layout %v, want default LayoutBlocked", loaded.Layout())
	}
	if loaded.state.Load().blocked == nil {
		t.Fatal("v1 load: blocked store not rebuilt")
	}
	want, err := ix.SearchWith(q, 5, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.SearchWith(q, 5, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("v1 load: loaded index answers differently")
	}
}

// selectNearestClusters must agree with a full reference sort for every
// visit count, including duplicate distances (broken by cluster id).
func TestSelectNearestClustersMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(349))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(400)
		d := make([]float32, n)
		for i := range d {
			// Coarse quantization forces plenty of exact ties.
			d[i] = float32(rng.Intn(20))
		}
		ref := make([]int, n)
		for i := range ref {
			ref[i] = i
		}
		sort.Slice(ref, func(a, b int) bool {
			if d[ref[a]] != d[ref[b]] {
				return d[ref[a]] < d[ref[b]]
			}
			return ref[a] < ref[b]
		})
		visit := 1 + rng.Intn(n)
		s := &Searcher{clustD: d, clustIdx: make([]int, n)}
		for i := range s.clustIdx {
			s.clustIdx[i] = i
		}
		s.selectNearestClusters(visit)
		for i := 0; i < visit; i++ {
			if s.clustIdx[i] != ref[i] {
				t.Fatalf("trial %d n=%d visit=%d: prefix[%d] = %d, want %d",
					trial, n, visit, i, s.clustIdx[i], ref[i])
			}
		}
	}
}

// Build must reject layouts outside the enum.
func TestBuildRejectsUnknownLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(341))
	x := skewedData(rng, 200, 8, 1.0)
	_, err := Build(x, x, Config{NumSubspaces: 2, Budget: 10, Seed: 341, ScanLayout: ScanLayout(9)})
	if err == nil {
		t.Fatal("Build accepted an unknown ScanLayout")
	}
}
