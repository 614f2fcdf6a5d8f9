package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vaq/internal/core"
	"vaq/internal/vec"
	"vaq/internal/workload"
)

func testData(tb testing.TB, n, d int, seed int64) *vec.Matrix {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := &vec.Matrix{Rows: n, Cols: d, Data: make([]float32, n*d)}
	for i := range m.Data {
		// Decaying per-dimension scale so the PCA spectrum is skewed the
		// way the variance-aware allocation expects.
		col := i % d
		scale := float32(1.0) / (1.0 + 0.05*float32(col))
		m.Data[i] = scale * float32(rng.NormFloat64())
	}
	return m
}

func testConfig() core.Config {
	return core.Config{NumSubspaces: 8, Budget: 48, Seed: 42}
}

func mustBuild(tb testing.TB, data *vec.Matrix, cfg core.Config, opts Options) *Index {
	tb.Helper()
	x, err := Build(data, data, cfg, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return x
}

// TestSingleShardBitIdentity is the degenerate-case pin: S=1 must answer
// every query bit-identically to an unsharded core index, and serialize
// the identical single-index byte stream inside its envelope.
func TestSingleShardBitIdentity(t *testing.T) {
	data := testData(t, 600, 32, 1)
	cfg := testConfig()
	single, err := core.Build(data, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := mustBuild(t, data, cfg, Options{Shards: 1})
	if x.Shards() != 1 {
		t.Fatalf("Shards() = %d, want 1", x.Shards())
	}
	queries := testData(t, 30, 32, 2)
	for _, opt := range []core.SearchOptions{
		{},
		{Mode: core.ModeHeap},
		{Mode: core.ModeEA},
		{Mode: core.ModeTIEA, VisitFrac: 1.0},
		{Subspaces: 4},
	} {
		s := single.NewSearcher()
		for qi := 0; qi < queries.Rows; qi++ {
			q := queries.Row(qi)
			want, err := s.Search(q, 10, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := x.Search(q, 10, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("opt %+v query %d: %d results, want %d", opt, qi, len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
					t.Fatalf("opt %+v query %d rank %d: got (%d, %v), want (%d, %v)",
						opt, qi, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
				}
			}
		}
	}
	// The S=1 shard's inner stream must be byte-identical to the
	// unsharded index's serialized form.
	var a, b bytes.Buffer
	if _, err := single.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := x.Shard(0).WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("S=1 shard stream differs from unsharded stream (%d vs %d bytes)", b.Len(), a.Len())
	}
	if x.ConfigFingerprint() != single.ConfigFingerprint() {
		t.Fatalf("S=1 fingerprint %q != unsharded %q", x.ConfigFingerprint(), single.ConfigFingerprint())
	}
}

// TestShardedExhaustiveEquivalence pins the scatter-gather merge and the
// cross-shard threshold feedback against ground truth: under exhaustive
// settings (ModeHeap, and ModeTIEA at VisitFrac 1.0) the quantized
// distances are exact ADC sums over codes identical to the unsharded
// build, so a sharded search must return exactly the unsharded result
// list — same ids, same distances, same order — for any shard count.
func TestShardedExhaustiveEquivalence(t *testing.T) {
	data := testData(t, 700, 32, 3)
	cfg := testConfig()
	single, err := core.Build(data, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	queries := testData(t, 25, 32, 4)
	for _, shards := range []int{2, 4, 7} {
		x := mustBuild(t, data, cfg, Options{Shards: shards})
		for _, opt := range []core.SearchOptions{
			{Mode: core.ModeHeap},
			{Mode: core.ModeTIEA, VisitFrac: 1.0},
			{Mode: core.ModeEA},
		} {
			s := single.NewSearcher()
			for qi := 0; qi < queries.Rows; qi++ {
				q := queries.Row(qi)
				want, err := s.Search(q, 20, opt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := x.Search(q, 20, opt)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("S=%d opt %+v query %d: %d results, want %d", shards, opt, qi, len(got), len(want))
				}
				for i := range want {
					if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
						t.Fatalf("S=%d opt %+v query %d rank %d: got (%d, %v), want (%d, %v)",
							shards, opt, qi, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
					}
				}
			}
		}
	}
}

// TestMergeTopK covers the k-way merge edge cases directly.
func TestMergeTopK(t *testing.T) {
	nb := func(id int, d float32) vec.Neighbor { return vec.Neighbor{ID: id, Dist: d} }
	cases := []struct {
		name  string
		lists [][]vec.Neighbor
		k     int
		want  []vec.Neighbor
	}{
		{
			name: "k larger than any shard population",
			lists: [][]vec.Neighbor{
				{nb(0, 1), nb(2, 3)},
				{nb(1, 2)},
			},
			k:    10,
			want: []vec.Neighbor{nb(0, 1), nb(1, 2), nb(2, 3)},
		},
		{
			name: "duplicate distances across shards break ties by id",
			lists: [][]vec.Neighbor{
				{nb(5, 1.5), nb(9, 2.5)},
				{nb(2, 1.5), nb(7, 2.5)},
				{nb(4, 1.5)},
			},
			k:    5,
			want: []vec.Neighbor{nb(2, 1.5), nb(4, 1.5), nb(5, 1.5), nb(7, 2.5), nb(9, 2.5)},
		},
		{
			name:  "empty and nil lists",
			lists: [][]vec.Neighbor{nil, {}, {nb(3, 0.5)}, nil},
			k:     4,
			want:  []vec.Neighbor{nb(3, 0.5)},
		},
		{
			name:  "all empty",
			lists: [][]vec.Neighbor{nil, {}},
			k:     3,
			want:  []vec.Neighbor{},
		},
		{
			name: "k truncates interleaved lists",
			lists: [][]vec.Neighbor{
				{nb(0, 1), nb(2, 3), nb(4, 5)},
				{nb(1, 2), nb(3, 4), nb(5, 6)},
			},
			k:    4,
			want: []vec.Neighbor{nb(0, 1), nb(1, 2), nb(2, 3), nb(3, 4)},
		},
	}
	for _, tc := range cases {
		got := mergeTopK(tc.lists, tc.k)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d results, want %d", tc.name, len(got), len(tc.want))
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Fatalf("%s: rank %d = %+v, want %+v", tc.name, i, got[i], tc.want[i])
			}
		}
	}
}

// TestShardClamp pins S > n clamping: no empty shard is ever built.
func TestShardClamp(t *testing.T) {
	data := testData(t, 5, 16, 5)
	cfg := core.Config{NumSubspaces: 4, Budget: 16, Seed: 1}
	x := mustBuild(t, data, cfg, Options{Shards: 64})
	if x.Shards() != 5 {
		t.Fatalf("Shards() = %d, want clamp to n=5", x.Shards())
	}
	res, err := x.Search(data.Row(0), 5, core.SearchOptions{Mode: core.ModeHeap})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("%d results, want all 5", len(res))
	}
	if res[0].ID != 0 {
		t.Fatalf("nearest to row 0 is %d, want 0", res[0].ID)
	}
	// k beyond the total population returns everything, once.
	res, err = x.Search(data.Row(0), 50, core.SearchOptions{Mode: core.ModeHeap})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("k>n: %d results, want 5", len(res))
	}
	seen := map[int]bool{}
	for _, r := range res {
		if seen[r.ID] {
			t.Fatalf("duplicate id %d in merged results", r.ID)
		}
		seen[r.ID] = true
	}
}

// TestAddRoutingAndSearch pins Add: global ids are contiguous, the
// assignment policies route where they promise, and added vectors are
// immediately findable through the merged search.
func TestAddRoutingAndSearch(t *testing.T) {
	data := testData(t, 200, 16, 6)
	cfg := core.Config{NumSubspaces: 4, Budget: 20, Seed: 7}
	x := mustBuild(t, data, cfg, Options{Shards: 4})
	batch := testData(t, 3, 16, 7)
	first, err := x.Add(batch)
	if err != nil {
		t.Fatal(err)
	}
	if first != 200 {
		t.Fatalf("first id = %d, want 200", first)
	}
	if x.Len() != 203 {
		t.Fatalf("Len() = %d, want 203", x.Len())
	}
	// Each added vector must be its own (quantized) nearest neighbor.
	for i := 0; i < batch.Rows; i++ {
		res, err := x.Search(batch.Row(i), 1, core.SearchOptions{Mode: core.ModeHeap})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].ID != first+i {
			t.Fatalf("added vector %d not found: got %+v, want id %d", i, res, first+i)
		}
	}

	// Least-loaded keeps shard sizes within one batch of each other.
	y := mustBuild(t, data, cfg, Options{Shards: 4, Policy: PolicyLeastLoaded})
	for i := 0; i < 8; i++ {
		if _, err := y.Add(testData(t, 1, 16, int64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	lens := y.ShardLens()
	min, max := lens[0], lens[0]
	for _, l := range lens[1:] {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if max-min > 1 {
		t.Fatalf("least-loaded shard sizes diverged: %v", lens)
	}
}

// TestConcurrentAddSearch exercises the lock-free Add path under the race
// detector: concurrent batched Adds across shards interleaved with
// concurrent searches must stay consistent (every reserved id range lands
// exactly once, results never reference unknown ids).
func TestConcurrentAddSearch(t *testing.T) {
	data := testData(t, 300, 16, 8)
	cfg := core.Config{NumSubspaces: 4, Budget: 20, Seed: 9}
	x := mustBuild(t, data, cfg, Options{Shards: 4})
	const (
		adders   = 4
		batches  = 5
		rows     = 3
		searches = 40
	)
	var wg sync.WaitGroup
	firsts := make([][]int, adders)
	for a := 0; a < adders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				first, err := x.Add(testData(t, rows, 16, int64(1000+a*100+b)))
				if err != nil {
					t.Error(err)
					return
				}
				firsts[a] = append(firsts[a], first)
			}
		}(a)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		q := testData(t, 1, 16, 999).Row(0)
		for i := 0; i < searches; i++ {
			res, err := x.Search(q, 10, core.SearchOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			n := x.Len()
			for _, r := range res {
				if r.ID < 0 || r.ID >= n+adders*batches*rows {
					t.Errorf("result id %d out of range", r.ID)
					return
				}
			}
		}
	}()
	wg.Wait()
	wantLen := 300 + adders*batches*rows
	if x.Len() != wantLen {
		t.Fatalf("Len() = %d, want %d", x.Len(), wantLen)
	}
	// Reserved id ranges are disjoint and cover [300, wantLen).
	seen := map[int]bool{}
	for _, fs := range firsts {
		for _, f := range fs {
			for i := 0; i < rows; i++ {
				if seen[f+i] {
					t.Fatalf("id %d assigned twice", f+i)
				}
				seen[f+i] = true
			}
		}
	}
	if len(seen) != adders*batches*rows {
		t.Fatalf("%d ids assigned, want %d", len(seen), adders*batches*rows)
	}
	// After the dust settles every id must be retrievable exactly once.
	res, err := x.Search(data.Row(0), wantLen, core.SearchOptions{Mode: core.ModeHeap})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != wantLen {
		t.Fatalf("full scan returned %d, want %d", len(res), wantLen)
	}
	all := map[int]bool{}
	for _, r := range res {
		if all[r.ID] {
			t.Fatalf("duplicate id %d in full merged scan", r.ID)
		}
		all[r.ID] = true
	}
}

// TestSearchDuringAddMappingRace hammers the window between core.Add
// publishing a batch's codes and the local-to-global mapping being
// published: a racing full scan that sees the new codes must also see a
// mapping long enough to cover their local ids, or ids[nb.ID] panics.
// S=1 pins every search to the shard being mutated to maximize pressure.
func TestSearchDuringAddMappingRace(t *testing.T) {
	data := testData(t, 64, 8, 30)
	cfg := core.Config{NumSubspaces: 2, Budget: 8, Seed: 31}
	x := mustBuild(t, data, cfg, Options{Shards: 1})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		q := testData(t, 1, 8, 32).Row(0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := x.Search(q, 1024, core.SearchOptions{Mode: core.ModeHeap})
			if err != nil {
				t.Error(err)
				return
			}
			n := x.Len()
			for _, r := range res {
				if r.ID < 0 || r.ID >= n {
					t.Errorf("result id %d out of range (len %d)", r.ID, n)
					return
				}
			}
		}
	}()
	for b := 0; b < 80; b++ {
		if _, err := x.Add(testData(t, 2, 8, int64(100+b))); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestMappingCoversCodesInvariant pins Add's publication order
// deterministically: at the first moment a batch's codes are visible to
// searches, the local-to-global mapping must already cover their local
// ids (the hammer test above can only hit the mis-ordered window by
// scheduling luck; this hook checks it on every Add).
func TestMappingCoversCodesInvariant(t *testing.T) {
	data := testData(t, 48, 8, 33)
	cfg := core.Config{NumSubspaces: 2, Budget: 8, Seed: 34}
	x := mustBuild(t, data, cfg, Options{Shards: 2})
	defer func() { testHookPostEncode = nil }()
	testHookPostEncode = func(st *shardState) {
		if ids := *st.ids.Load(); len(ids) < st.ix.Len() {
			t.Errorf("codes visible before mapping: %d ids < %d codes", len(ids), st.ix.Len())
		}
	}
	for b := 0; b < 10; b++ {
		if _, err := x.Add(testData(t, 3, 8, int64(200+b))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTightenBoundZero pins the cross-shard bound encoding: a genuine
// k-th distance of exactly 0.0 must be representable and distinct from
// the "no bound yet" state, and bounds must only ever shrink.
func TestTightenBoundZero(t *testing.T) {
	var b atomic.Uint64
	tightenBound(&b, 2.5)
	if v := b.Load(); v == 0 || math.Float32frombits(uint32(v)) != 2.5 {
		t.Fatalf("bound after tighten(2.5): %#x", b.Load())
	}
	tightenBound(&b, 0)
	if v := b.Load(); v == 0 {
		t.Fatal("a 0.0 bound collapsed into the unset state")
	} else if got := math.Float32frombits(uint32(v)); got != 0 {
		t.Fatalf("bound after tighten(0) decodes to %v, want 0", got)
	}
	tightenBound(&b, 1.0)
	if got := math.Float32frombits(uint32(b.Load())); got != 0 {
		t.Fatalf("looser bound overwrote tighter: %v", got)
	}
}

// TestDuplicateHeavyBoundTies: with every vector identical, each shard's
// k-th distance equals the global one, so the fed-back bound sits exactly
// on every candidate. Admission rejects strictly-greater only, so all
// modes must still return k results in (dist, global id) order.
func TestDuplicateHeavyBoundTies(t *testing.T) {
	base := testData(t, 1, 16, 40)
	data := &vec.Matrix{Rows: 256, Cols: 16, Data: make([]float32, 0, 256*16)}
	for i := 0; i < 256; i++ {
		data.Data = append(data.Data, base.Row(0)...)
	}
	cfg := core.Config{NumSubspaces: 4, Budget: 20, Seed: 41}
	x := mustBuild(t, data, cfg, Options{Shards: 4})
	for _, mode := range []core.SearchMode{core.ModeHeap, core.ModeEA, core.ModeTIEA} {
		res, err := x.Search(base.Row(0), 32, core.SearchOptions{Mode: mode, VisitFrac: 1.0})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 32 {
			t.Fatalf("mode %v: %d results, want 32", mode, len(res))
		}
		for i, r := range res {
			if r.ID != i {
				t.Fatalf("mode %v rank %d: id %d, want %d (id-stable tie-break)", mode, i, r.ID, i)
			}
			if r.Dist != res[0].Dist {
				t.Fatalf("mode %v rank %d: dist %v != %v among duplicates", mode, i, r.Dist, res[0].Dist)
			}
		}
	}
}

// TestAddOverflowGuard: reserving ids past the int32 mapping space must
// fail loudly instead of wrapping negative, without consuming ids.
func TestAddOverflowGuard(t *testing.T) {
	data := testData(t, 32, 8, 50)
	cfg := core.Config{NumSubspaces: 2, Budget: 8, Seed: 51}
	x := mustBuild(t, data, cfg, Options{Shards: 2})
	x.nextID.Store(math.MaxInt32 - 1)
	if _, err := x.Add(testData(t, 4, 8, 52)); err == nil {
		t.Fatal("Add past the int32 global id space did not error")
	}
	if got := x.nextID.Load(); got != math.MaxInt32-1 {
		t.Fatalf("failed Add moved nextID to %d", got)
	}
	// The last batch that still fits ([MaxInt32-1, MaxInt32]) is accepted.
	first, err := x.Add(testData(t, 2, 8, 53))
	if err != nil {
		t.Fatal(err)
	}
	if first != math.MaxInt32-1 {
		t.Fatalf("first id %d, want %d", first, math.MaxInt32-1)
	}
	if _, err := x.Add(testData(t, 1, 8, 54)); err == nil {
		t.Fatal("Add of one more row past MaxInt32 did not error")
	}
}

// TestHostileIDCountRead: a container claiming a huge id mapping backed by
// almost no bytes must error out of the chunked reader instead of
// allocating the claimed length up front.
func TestHostileIDCountRead(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(shardMagic)
	for _, v := range []uint64{shardFormatVersion, 1, 0, 100} {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	// Claim 2^30 ids (4 GiB) but provide only 64 bytes of payload.
	if err := binary.Write(&buf, binary.LittleEndian, uint64(1<<30)); err != nil {
		t.Fatal(err)
	}
	buf.Write(make([]byte, 64))
	if _, err := Read(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("hostile id count did not error")
	}
}

// TestSerializeRoundTrip pins the VAQS container: save/load preserves
// results, fingerprints, shapes, and survives post-Add non-monotone id
// mappings.
func TestSerializeRoundTrip(t *testing.T) {
	data := testData(t, 400, 24, 10)
	cfg := core.Config{NumSubspaces: 6, Budget: 30, Seed: 11}
	x := mustBuild(t, data, cfg, Options{Shards: 3})
	if _, err := x.Add(testData(t, 4, 24, 12)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.vaqs")
	if err := x.Save(path); err != nil {
		t.Fatal(err)
	}
	y, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if y.Shards() != x.Shards() || y.Len() != x.Len() || y.Dim() != x.Dim() {
		t.Fatalf("loaded shape (%d, %d, %d) != original (%d, %d, %d)",
			y.Shards(), y.Len(), y.Dim(), x.Shards(), x.Len(), x.Dim())
	}
	if y.ConfigFingerprint() != x.ConfigFingerprint() {
		t.Fatalf("fingerprint changed across save/load: %q vs %q", y.ConfigFingerprint(), x.ConfigFingerprint())
	}
	queries := testData(t, 15, 24, 13)
	for qi := 0; qi < queries.Rows; qi++ {
		q := queries.Row(qi)
		want, err := x.Search(q, 12, core.SearchOptions{Mode: core.ModeTIEA, VisitFrac: 1.0})
		if err != nil {
			t.Fatal(err)
		}
		got, err := y.Search(q, 12, core.SearchOptions{Mode: core.ModeTIEA, VisitFrac: 1.0})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, want %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d rank %d: %+v != %+v", qi, i, got[i], want[i])
			}
		}
	}
	// Truncated stream must fail loudly, not mis-parse.
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("reading a truncated container did not fail")
	}
}

// TestShardedReplayOverlap is the scatter-gather merge gate: a workload
// captured on an unsharded index replays through a sharded one with full
// overlap at exhaustive settings.
func TestShardedReplayOverlap(t *testing.T) {
	data := testData(t, 500, 24, 14)
	cfg := core.Config{NumSubspaces: 6, Budget: 30, Seed: 15}
	single, err := core.Build(data, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cap := single.EnableCapture(workload.Config{SampleRate: 1})
	s := single.NewSearcher()
	queries := testData(t, 20, 24, 16)
	for qi := 0; qi < queries.Rows; qi++ {
		if _, err := s.Search(queries.Row(qi), 10, core.SearchOptions{VisitFrac: 1.0}); err != nil {
			t.Fatal(err)
		}
	}
	log := cap.Snapshot()
	x := mustBuild(t, data, cfg, Options{Shards: 4})
	rep, _, err := workload.Replay(log, x.ReplayRunner(), workload.Options{
		Thresholds: workload.Thresholds{MinOverlap: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("sharded replay failed: %+v", rep.Violations)
	}
	if rep.MeanOverlap != 1.0 {
		t.Fatalf("mean overlap %v, want 1.0", rep.MeanOverlap)
	}
}

// TestMergedMetrics pins the merged registry semantics: one query across
// S shards records once, with per-shard pruning work summed.
func TestMergedMetrics(t *testing.T) {
	data := testData(t, 400, 16, 17)
	cfg := core.Config{NumSubspaces: 4, Budget: 20, Seed: 18}
	x := mustBuild(t, data, cfg, Options{Shards: 4})
	const queries = 10
	q := testData(t, queries, 16, 19)
	for qi := 0; qi < queries; qi++ {
		if _, err := x.Search(q.Row(qi), 5, core.SearchOptions{Mode: core.ModeHeap}); err != nil {
			t.Fatal(err)
		}
	}
	snap := x.Metrics().Snapshot()
	if snap.Queries != queries {
		t.Fatalf("merged registry has %d queries, want %d (one per global query)", snap.Queries, queries)
	}
	// ModeHeap considers every code in every shard: the merged counter
	// must equal the full dataset per query.
	if want := uint64(queries * 400); snap.CodesConsidered != want {
		t.Fatalf("merged CodesConsidered = %d, want %d", snap.CodesConsidered, want)
	}
	var perShard uint64
	for i := 0; i < x.Shards(); i++ {
		perShard += x.Shard(i).Metrics().Snapshot().Queries
	}
	if want := uint64(queries * x.Shards()); perShard != want {
		t.Fatalf("per-shard registries total %d queries, want %d", perShard, want)
	}
	// Validation errors are counted on the merged registry.
	if _, err := x.Search(q.Row(0), 0, core.SearchOptions{}); err == nil {
		t.Fatal("k=0 did not error")
	}
	if got := x.Metrics().Snapshot().Errors; got != 1 {
		t.Fatalf("merged Errors = %d, want 1", got)
	}
}

// TestInitialThresholdSafety drives the threshold feedback hard: an
// externally injected bound equal to the true kth distance must not evict
// boundary ties, and a sharded search under heavy feedback still matches
// ground truth (covered per-mode in TestShardedExhaustiveEquivalence;
// here the injection plumbing is pinned directly).
func TestInitialThresholdSafety(t *testing.T) {
	data := testData(t, 300, 16, 20)
	cfg := core.Config{NumSubspaces: 4, Budget: 20, Seed: 21}
	single, err := core.Build(data, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	q := testData(t, 1, 16, 22).Row(0)
	s := single.NewSearcher()
	want, err := s.Search(q, 10, core.SearchOptions{Mode: core.ModeHeap})
	if err != nil {
		t.Fatal(err)
	}
	kth := want[len(want)-1].Dist
	for _, mode := range []core.SearchMode{core.ModeHeap, core.ModeEA, core.ModeTIEA} {
		opt := core.SearchOptions{Mode: mode, VisitFrac: 1.0, InitialThreshold: kth}
		got, err := s.Search(q, 10, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("mode %v with bound=kth returned %d results, want %d", mode, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("mode %v with bound=kth rank %d: %+v != %+v", mode, i, got[i], want[i])
			}
		}
	}
}

// A non-finite query is refused with ErrNonFinite before the scatter, in
// both accuracy modes and through both entry points, and counted once as
// a failed query in the merged registry.
func TestNonFiniteQueryRejected(t *testing.T) {
	data := testData(t, 400, 16, 72)
	poisoned := func(q []float32, col int, v float64) []float32 {
		out := append([]float32(nil), q...)
		out[col] = float32(v)
		return out
	}
	for _, acc := range []core.AccuracyMode{core.AccuracyExact, core.AccuracyFast} {
		x := mustBuild(t, data, core.Config{NumSubspaces: 4, Budget: 24, Seed: 73, AccuracyMode: acc}, Options{Shards: 3})
		qz, err := x.states[0].ix.ProjectQuery(data.Row(0))
		if err != nil {
			t.Fatal(err)
		}
		cases := []struct {
			name string
			run  func() error
			want string
		}{
			{"Search NaN", func() error {
				_, err := x.Search(poisoned(data.Row(0), 5, math.NaN()), 5, core.SearchOptions{})
				return err
			}, "component 5"},
			{"Search Inf", func() error {
				_, err := x.Search(poisoned(data.Row(0), 0, math.Inf(1)), 5, core.SearchOptions{})
				return err
			}, "component 0"},
			{"SearchProjected NaN", func() error {
				_, err := x.SearchProjected(poisoned(qz, 2, math.NaN()), 5, core.SearchOptions{})
				return err
			}, "component 2"},
			{"SearchProjected -Inf", func() error {
				_, err := x.SearchProjected(poisoned(qz, 1, math.Inf(-1)), 5, core.SearchOptions{Mode: core.ModeHeap})
				return err
			}, "component 1"},
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
		if got := x.Metrics().Snapshot().Errors; got != uint64(len(cases)) {
			t.Fatalf("%v: %d errors recorded, want %d", acc, got, len(cases))
		}
	}
}

// Non-finite vectors are refused with vec.ErrNonFinite naming the caller's
// row — by Build before any shard exists, by Add before an id is reserved —
// and a rejected Add leaves Len, the shard lengths, every shard's id
// mapping and the answers as they were.
func TestNonFiniteInputRejected(t *testing.T) {
	data := testData(t, 400, 16, 70)
	cfg := core.Config{NumSubspaces: 4, Budget: 24, Seed: 71}
	poisoned := func(rows, row, col int, v float64) *vec.Matrix {
		m := data.SliceRows(0, rows).Clone()
		m.Set(row, col, float32(v))
		return m
	}
	x := mustBuild(t, data.SliceRows(0, 300), cfg, Options{Shards: 3})
	snapshot := func() (n int, lens []int, ids [][]int32, answers [][]vec.Neighbor) {
		for _, st := range x.states {
			ids = append(ids, append([]int32(nil), *st.ids.Load()...))
		}
		for qi := 0; qi < 10; qi++ {
			res, err := x.Search(data.Row(qi*31), 5, core.SearchOptions{VisitFrac: 1})
			if err != nil {
				t.Fatal(err)
			}
			answers = append(answers, res)
		}
		return x.Len(), x.ShardLens(), ids, answers
	}
	n0, lens0, ids0, answers0 := snapshot()

	for _, tc := range []struct {
		name string
		run  func() error
		want string
	}{
		{"Build data NaN", func() error {
			m := poisoned(300, 123, 5, math.NaN())
			_, err := Build(m, m, cfg, Options{Shards: 3})
			return err
		}, "row 123, column 5"},
		{"Build train Inf", func() error {
			_, err := Build(poisoned(200, 9, 0, math.Inf(1)), data.SliceRows(0, 300), cfg, Options{Shards: 2})
			return err
		}, "row 9, column 0"},
		{"Add NaN", func() error { _, err := x.Add(poisoned(30, 29, 15, math.NaN())); return err }, "row 29, column 15"},
		{"Add Inf", func() error { _, err := x.Add(poisoned(30, 0, 1, math.Inf(-1))); return err }, "row 0, column 1"},
	} {
		err := tc.run()
		if !errors.Is(err, vec.ErrNonFinite) {
			t.Fatalf("%s: got %v, want ErrNonFinite", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
	}

	n1, lens1, ids1, answers1 := snapshot()
	if n1 != n0 || !reflect.DeepEqual(lens1, lens0) || !reflect.DeepEqual(ids1, ids0) || !reflect.DeepEqual(answers1, answers0) {
		t.Fatalf("rejected Adds changed the index: Len %d -> %d, shard lens %v -> %v", n0, n1, lens0, lens1)
	}
	// No id was burnt: the next batch continues at Len.
	if first, err := x.Add(data.SliceRows(300, 330)); err != nil || first != 300 {
		t.Fatalf("Add after rejected Adds: first id %d, err %v", first, err)
	}
}
