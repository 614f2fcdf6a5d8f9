package core

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"vaq/internal/vec"
)

// compareWithOracle runs the queries through the production (blocked)
// kernels and the row-major oracle and demands identical neighbors —
// ids and distance bits — AND identical SearchStats, attribution slices
// included: the blocked store is a physical reorganization, not an
// algorithmic change, so every observable must match exactly.
func compareWithOracle(t *testing.T, ix *Index, queries *vec.Matrix, k int, opt SearchOptions) {
	t.Helper()
	s := ix.NewSearcher()
	o := ix.NewSearcher()
	for qi := 0; qi < queries.Rows; qi++ {
		qz, err := ix.ProjectQuery(queries.Row(qi))
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.SearchProjected(qz, k, opt)
		if err != nil {
			t.Fatal(err)
		}
		want := o.oracleSearch(qz, k, opt)
		if !sameNeighbors(got, want) {
			t.Fatalf("query %d opt %+v: results differ\nblocked: %v\noracle:  %v", qi, opt, got, want)
		}
		if !reflect.DeepEqual(s.LastStats(), o.LastStats()) {
			t.Fatalf("query %d opt %+v: stats differ\nblocked: %+v\noracle:  %+v",
				qi, opt, s.LastStats(), o.LastStats())
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

// oracleOpts are the query shapes the equivalence tests sweep: both
// blocked kernels, a range of visit fractions, and truncated accumulation
// (the useSub < m paths; a truncated TI+EA query degrades to ModeEA).
var oracleOpts = []SearchOptions{
	{Mode: ModeHeap},
	{Mode: ModeTIEA, VisitFrac: 0.25},
	{Mode: ModeTIEA, VisitFrac: 0.5},
	{Mode: ModeTIEA, VisitFrac: 1.0},
	{Mode: ModeTIEA, VisitFrac: 0.5, Subspaces: 5},
	{Mode: ModeHeap, Subspaces: 3},
}

// widthConfigs are the two code-width shapes the blocked kernels branch
// on: MaxBits 8 keeps every dictionary uint8-addressable (all narrow);
// MaxBits 11 lets the leading subspaces go wide (uint16) beside narrow
// ones.
var widthConfigs = []struct {
	name       string
	cfg        Config
	wantNarrow bool // every subspace narrow
}{
	{"narrow", Config{NumSubspaces: 8, Budget: 56, MaxBits: 8, Seed: 311, TIClusters: 40}, true},
	{"mixed", Config{NumSubspaces: 8, Budget: 64, MaxBits: 11, Seed: 311, TIClusters: 40}, false},
}

func checkWidths(t *testing.T, ix *Index, wantNarrow bool) {
	t.Helper()
	bs := ix.state.Load().blocked
	if wantNarrow && bs.mW != 0 {
		t.Fatalf("want all-narrow codes, got %d wide subspaces", bs.mW)
	}
	if !wantNarrow && (bs.mW == 0 || bs.mN == 0) {
		t.Fatalf("want mixed widths, got %d narrow / %d wide", bs.mN, bs.mW)
	}
}

// The acceptance bar of the blocked store: for both kernels, a range of
// cluster-visit fractions and both code-width shapes, the blocked kernels
// answer exactly like the row-major oracle.
func TestScanLayoutEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	x := skewedData(rng, 2500, 32, 1.2)
	qs := layoutQuerySet(rng, x, 12)
	for _, wc := range widthConfigs {
		t.Run(wc.name, func(t *testing.T) {
			ix, err := Build(x, x, wc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkWidths(t, ix, wc.wantNarrow)
			for _, opt := range oracleOpts {
				compareWithOracle(t, ix, qs, 10, opt)
			}
		})
	}
}

// Wide dictionaries (more than 8 bits per subspace) must take the uint16
// group path everywhere. MinBits=9 forces every dictionary past 256
// entries.
func TestScanLayoutEquivalenceWideCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(313))
	x := skewedData(rng, 1600, 16, 1.0)
	ix, err := Build(x, x, Config{
		NumSubspaces: 4, Budget: 38, MinBits: 9, MaxBits: 10,
		Seed: 313, TIClusters: 20, KMeansIters: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if bs := ix.state.Load().blocked; bs.mN != 0 {
		t.Fatalf("expected all-wide codes under MinBits=9, got %d narrow", bs.mN)
	}
	qs := layoutQuerySet(rng, x, 8)
	for _, opt := range []SearchOptions{{Mode: ModeHeap}, {Mode: ModeTIEA, VisitFrac: 0.5}} {
		compareWithOracle(t, ix, qs, 10, opt)
	}
}

// Add and a WriteTo/Read round trip must keep the blocked kernels
// equivalent to the oracle: the blocked store is rebuilt from the grown
// code set and re-threaded clusters, and rebuilt again on load.
func TestScanLayoutEquivalenceAfterAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(317))
	x := skewedData(rng, 1200, 32, 1.1)
	extra := skewedData(rng, 300, 32, 1.1)
	qs := layoutQuerySet(rng, x, 8)
	for _, wc := range widthConfigs {
		t.Run(wc.name, func(t *testing.T) {
			ix, err := Build(x, x, wc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ix.Add(extra); err != nil {
				t.Fatal(err)
			}
			if got := ix.state.Load().blocked.perm; len(got) != 1500 {
				t.Fatalf("blocked store not rebuilt after Add: %d positions, want 1500", len(got))
			}
			checkWidths(t, ix, wc.wantNarrow)
			for _, opt := range oracleOpts {
				compareWithOracle(t, ix, qs, 10, opt)
			}
			var buf bytes.Buffer
			if _, err := ix.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			for _, opt := range oracleOpts {
				compareWithOracle(t, loaded, qs, 10, opt)
			}
		})
	}
}

// The blocked store must be an exact permutation of the canonical codes:
// every cluster member appears once, at its cluster's block, holding the
// same per-subspace indices as the row-major truth.
func TestBlockedStoreMatchesCanonicalCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(331))
	x := skewedData(rng, 900, 16, 1.0)
	cfg := Config{NumSubspaces: 4, Budget: 28, Seed: 331, TIClusters: 15}
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

// layoutWordOffset is the byte offset of the v2 layout word: magic (4),
// version (8), then twelve fixed config words.
const layoutWordOffset = 4 + 8 + 12*8

// Every stream shape loads onto the blocked store and answers exactly like
// the index that wrote it, stats included: v1 (no layout word), v2 with
// word 0 (what WriteTo writes) and v2 with word 1 (what a row-major index
// wrote). Any other word is refused.
func TestSerializeLayoutRoundTripAndLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(337))
	x := skewedData(rng, 1000, 16, 1.0)
	qs := layoutQuerySet(rng, x, 6)
	ix, err := Build(x, x, Config{NumSubspaces: 4, Budget: 28, Seed: 337, TIClusters: 15})
	if err != nil {
		t.Fatal(err)
	}
	var v1, v2 bytes.Buffer
	if err := ix.writeBody(&v1, 1, ix.state.Load()); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.WriteTo(&v2); err != nil {
		t.Fatal(err)
	}
	if w := binary.LittleEndian.Uint64(v2.Bytes()[layoutWordOffset:]); w != 0 {
		t.Fatalf("WriteTo wrote layout word %d, want 0", w)
	}
	withWord := func(w uint64) []byte {
		b := bytes.Clone(v2.Bytes())
		binary.LittleEndian.PutUint64(b[layoutWordOffset:], w)
		return b
	}
	streams := []struct {
		name string
		data []byte
	}{
		{"v1", v1.Bytes()},
		{"v2/0", v2.Bytes()},
		{"v2/1", withWord(1)},
	}
	for _, st := range streams {
		loaded, err := Read(bytes.NewReader(st.data))
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if loaded.state.Load().blocked == nil {
			t.Fatalf("%s: blocked store not rebuilt", st.name)
		}
		sw, sg := ix.NewSearcher(), loaded.NewSearcher()
		for _, opt := range []SearchOptions{{Mode: ModeHeap}, {Mode: ModeTIEA, VisitFrac: 0.5}} {
			for qi := 0; qi < qs.Rows; qi++ {
				want, err := sw.Search(qs.Row(qi), 5, opt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sg.Search(qs.Row(qi), 5, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !sameNeighbors(want, got) {
					t.Fatalf("%s query %d opt %+v: loaded index answers differently", st.name, qi, opt)
				}
				if !reflect.DeepEqual(sw.LastStats(), sg.LastStats()) {
					t.Fatalf("%s query %d opt %+v: stats differ\nwritten: %+v\nloaded:  %+v",
						st.name, qi, opt, sw.LastStats(), sg.LastStats())
				}
			}
		}
	}
	if _, err := Read(bytes.NewReader(withWord(2))); err == nil {
		t.Fatal("Read accepted layout word 2")
	}
}

// The config fingerprint is pinned: workload captures and benchmark
// baselines committed to the repository carry fingerprints minted when
// the scan layout was a setting, and must keep matching a rebuild.
func TestConfigFingerprintPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(439))
	x := skewedData(rng, 400, 8, 1.0)
	ix, err := Build(x, x, Config{NumSubspaces: 2, Budget: 10, Seed: 439, TIClusters: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ix.ConfigFingerprint(), "1b5e76475839c9a0"; got != want {
		t.Fatalf("ConfigFingerprint() = %s, want %s", got, want)
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
