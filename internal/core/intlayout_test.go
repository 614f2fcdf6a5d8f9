package core

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"vaq/internal/kmeans"
	"vaq/internal/vec"
)

// verifyFastStore checks the integer store is an exact image of the
// canonical codes: every cluster member appears at its TI position with
// its scan code — the canonical index, or its coarse remap where the
// dictionary was coarsened — through both storage classes including the
// packed nibbles, and every padding lane of a tail block holds code 0.
func verifyFastStore(t *testing.T, ix *Index) {
	t.Helper()
	st := ix.state.Load()
	fs := st.fast
	if fs == nil {
		t.Fatal("index has no fast store")
	}
	seen := make([]bool, st.n)
	for c, members := range st.ti.clusters {
		cStart := int(fs.start[c])
		if int(fs.start[c+1])-cStart != len(members) {
			t.Fatalf("cluster %d: fast span %d, members %d", c, int(fs.start[c+1])-cStart, len(members))
		}
		base := int(fs.blockBase[c])
		wantBlocks := (len(members) + blockLanes - 1) / blockLanes
		if int(fs.blockBase[c+1])-base != wantBlocks {
			t.Fatalf("cluster %d: %d blocks, want %d", c, int(fs.blockBase[c+1])-base, wantBlocks)
		}
		for mi, e := range members {
			if int(fs.perm[cStart+mi]) != e.id {
				t.Fatalf("cluster %d pos %d: perm %d, want member id %d", c, mi, fs.perm[cStart+mi], e.id)
			}
			if seen[e.id] {
				t.Fatalf("id %d appears twice in fast store", e.id)
			}
			seen[e.id] = true
			row := st.codes.Row(e.id)
			blk := base + mi/blockLanes
			lane := mi % blockLanes
			for s := 0; s < fs.m; s++ {
				want := int(row[s])
				if rm := fs.remap[s]; rm != nil {
					want = int(rm[row[s]])
				}
				if got := fs.codeAt(blk, lane, s); got != want {
					t.Fatalf("id %d subspace %d (class %d): fast %d, want %d",
						e.id, s, fs.class[s], got, want)
				}
			}
		}
		// Tail-block padding lanes must be zero so they accumulate the
		// deterministic table[0] and are never pushed.
		if tail := len(members) % blockLanes; tail != 0 {
			blk := base + len(members)/blockLanes
			for lane := tail; lane < blockLanes; lane++ {
				for s := 0; s < fs.m; s++ {
					if got := fs.codeAt(blk, lane, s); got != 0 {
						t.Fatalf("cluster %d pad lane %d subspace %d: code %d, want 0", c, lane, s, got)
					}
				}
			}
		}
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("id %d missing from fast store", id)
		}
	}
}

// The fast store must be an exact, fully-covering image of the canonical
// codes under a mixed allocation that exercises both the packed 4-bit and
// the uint8 classes, odd cluster sizes included.
func TestFastStoreMatchesCanonicalCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	x := skewedData(rng, 1100, 16, 1.1)
	ix, err := Build(x, x, Config{
		NumSubspaces: 8, Budget: 30, MinBits: 2, MaxBits: 6,
		Seed: 401, TIClusters: 17, AccuracyMode: AccuracyFast,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := ix.state.Load().fast
	if fs.nP == 0 {
		t.Fatal("expected packed 4-bit subspaces under a 30-bit budget")
	}
	if fs.n8 == 0 {
		t.Fatal("expected unpacked uint8 subspaces under MaxBits=6")
	}
	verifyFastStore(t, ix)
}

// Dictionaries with more than 16 entries must NOT pack: MinBits=5 forces
// every dictionary past 16 entries, so the packed class stays empty and
// everything lands in the uint8 class.
func TestFastStorePackFallbackOver16Entries(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	x := skewedData(rng, 900, 16, 1.0)
	ix, err := Build(x, x, Config{
		NumSubspaces: 4, Budget: 24, MinBits: 5, MaxBits: 7,
		Seed: 403, TIClusters: 12, AccuracyMode: AccuracyFast,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := ix.state.Load().fast
	if fs.nP != 0 {
		t.Fatalf("%d subspaces packed despite >16-entry dictionaries", fs.nP)
	}
	if fs.n8 != 4 {
		t.Fatalf("uint8 class has %d subspaces, want 4", fs.n8)
	}
	if len(fs.dataP) != 0 {
		t.Fatalf("packed store holds %d bytes with no packed subspaces", len(fs.dataP))
	}
	verifyFastStore(t, ix)
}

// Wide dictionaries (over 8 bits) must coarsen to 256-entry scan
// dictionaries with a valid nearest-centroid remap, so every subspace
// code fits one byte — and Add must reuse the trained coarse books
// instead of retraining them.
func TestFastStoreWideCodesCoarsen(t *testing.T) {
	rng := rand.New(rand.NewSource(407))
	x := skewedData(rng, 800, 16, 1.0)
	extra := skewedData(rng, 120, 16, 1.0)
	ix, err := Build(x, x, Config{
		NumSubspaces: 4, Budget: 38, MinBits: 9, MaxBits: 10,
		Seed: 407, TIClusters: 10, KMeansIters: 8, AccuracyMode: AccuracyFast,
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := ix.state.Load().fast
	if fs.coarsenedSubspaces() == 0 {
		t.Fatal("expected coarsened subspaces under MinBits=9")
	}
	for s := 0; s < fs.m; s++ {
		book := ix.cb.Books[s]
		if fs.books[s].Rows > coarseEntries {
			t.Fatalf("subspace %d: scan dictionary has %d entries, want <= %d", s, fs.books[s].Rows, coarseEntries)
		}
		rm := fs.remap[s]
		if book.Rows > coarseEntries {
			if rm == nil {
				t.Fatalf("subspace %d: wide dictionary (%d entries) has no remap", s, book.Rows)
			}
			if len(rm) != book.Rows {
				t.Fatalf("subspace %d: remap covers %d codes, want %d", s, len(rm), book.Rows)
			}
			for c := 0; c < book.Rows; c++ {
				if want, _ := kmeans.Nearest(fs.books[s], book.Row(c)); int(rm[c]) != want {
					t.Fatalf("subspace %d code %d: remap %d, nearest coarse centroid %d", s, c, rm[c], want)
				}
			}
		} else if rm != nil {
			t.Fatalf("subspace %d: narrow dictionary (%d entries) was remapped", s, book.Rows)
		}
	}
	verifyFastStore(t, ix)

	// Add rebuilds the block data but must donate the coarse dictionaries
	// (they depend only on the immutable codebooks and seed).
	books, remaps := append([]*vec.Matrix(nil), fs.books...), append([][]uint8(nil), fs.remap...)
	if _, err := ix.Add(extra); err != nil {
		t.Fatal(err)
	}
	for s := range books {
		if ix.state.Load().fast.books[s] != books[s] {
			t.Fatalf("subspace %d: Add retrained the coarse dictionary", s)
		}
		if len(remaps[s]) > 0 && &ix.state.Load().fast.remap[s][0] != &remaps[s][0] {
			t.Fatalf("subspace %d: Add rebuilt the remap", s)
		}
	}
	verifyFastStore(t, ix)
}

// Add must rebuild the fast store from the grown code set and re-threaded
// clusters, preserving the exact-image invariant.
func TestFastStoreRebuiltAfterAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(409))
	x := skewedData(rng, 700, 16, 1.0)
	extra := skewedData(rng, 230, 16, 1.0)
	ix, err := Build(x, x, Config{
		NumSubspaces: 8, Budget: 30, MinBits: 2, MaxBits: 6,
		Seed: 409, TIClusters: 11, AccuracyMode: AccuracyFast,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Add(extra); err != nil {
		t.Fatal(err)
	}
	if len(ix.state.Load().fast.perm) != 930 {
		t.Fatalf("fast store not rebuilt after Add: %d positions, want 930", len(ix.state.Load().fast.perm))
	}
	verifyFastStore(t, ix)
	if res, err := ix.Search(x.Row(5), 10); err != nil || len(res) != 10 {
		t.Fatalf("post-Add fast search: %d results, err %v", len(res), err)
	}
}

// The uint8 quantizer must keep per-subspace resolution under adversarial
// range skew: a huge-span table gets a capped shift instead of saturating,
// tiny-span tables lose resolution (never the big ones), NaN entries pin
// to "far", and degenerate tables disable the integer path's abandoning
// instead of corrupting it.
func TestIntLUTQuantizeShifts(t *testing.T) {
	offsets := []int{0, 4, 8, 10}
	dist := []float32{
		0, 1e30, 5e29, 1e-3, // huge range: 2^99 < span <= 2^100
		2, 2.5, 3, 2, // tiny range: quantized away under the capped spread
		7, 7, // constant table
	}
	var il intLUT
	il.quantize(dist, offsets, 3)
	if il.delta != 0+2+7 {
		t.Fatalf("delta %v, want 9", il.delta)
	}
	if il.scale <= 0 {
		t.Fatalf("scale %v, want > 0", il.scale)
	}
	// Exponent spread 100-1 exceeds rMaxShift, so Eref = 100-12 = 88: the
	// huge table takes the full shift, the others are clamped to Eref.
	if il.shift[0] != rMaxShift || il.shift[1] != 0 || il.shift[2] != 0 {
		t.Fatalf("shifts %v, want [%d 0 0]", il.shift, rMaxShift)
	}
	// The huge table keeps its resolution: frexp puts span/2^E in
	// [0.5, 1), so the max quantized value lands in [128, 255) — NOT
	// pinned at 255 — and the stored entries carry the shift pre-applied
	// (value q<<r with the low r bits zero).
	q1 := il.dist[1] >> rMaxShift
	if il.dist[0] != 0 || q1 < 128 || q1 >= 255 || il.dist[1] != q1<<rMaxShift {
		t.Fatalf("wide table quantized to %v, want [0, (128..254)<<%d, _, 0]", il.dist[:4], rMaxShift)
	}
	if il.dist[2] == 0 || il.dist[2] >= il.dist[1] {
		t.Fatalf("half-range entry %d, want in (0, %d)", il.dist[2], il.dist[1])
	}
	if il.dist[3] != 0 {
		t.Fatalf("tiny value quantized to %d, want 0", il.dist[3])
	}
	// Tables live at uniform lutStride offsets: subspace 1's four entries
	// at [lutStride, ...), subspace 2's two at [2*lutStride, ...). The
	// small tables' quanta are 2^88-sized: everything collapses to 0.
	for s := 1; s <= 2; s++ {
		for i := 0; i < offsets[s+1]-offsets[s]; i++ {
			if q := il.dist[s*lutStride+i]; q != 0 {
				t.Fatalf("subspace %d entry %d quantized to %d, want 0 (range below the capped spread)", s, i, q)
			}
		}
	}
	// The degenerate third table contributes no rounding error (exact
	// zeros), so only the two live shifts feed the slack.
	if want := uint32(1<<rMaxShift+1)/2 + 1; il.slack != want {
		t.Fatalf("slack %d, want %d", il.slack, want)
	}

	// A single exactly-representable table checks round-to-nearest without
	// float noise: span 4 = 0.5*2^3, so qscale = 255/8 and 2 maps to
	// round(63.75) = 64.
	il.quantize([]float32{0, 2, 4}, []int{0, 3}, 1)
	if il.dist[0] != 0 || il.dist[1] != 64 || il.dist[2] != 128 {
		t.Fatalf("midpoint table quantized to %v, want [0 64 128]", il.dist[:3])
	}
	if il.slack != 1 {
		t.Fatalf("single-subspace slack %d, want 1", il.slack)
	}

	// NaN entries must read as maximally far, not as 0.
	nan := float32(math.NaN())
	il.quantize([]float32{0, nan, 1}, []int{0, 3}, 1)
	if il.dist[1] != 255 {
		t.Fatalf("NaN entry quantized to %d, want 255", il.dist[1])
	}

	// An infinite span degenerates: scale 0, all-zero tables, threshold
	// disabled (intNoAbandon abandons nothing).
	inf := float32(math.Inf(1))
	il.quantize([]float32{1, inf, 2}, []int{0, 3}, 1)
	if il.scale != 0 || il.inv != 0 {
		t.Fatalf("infinite span: scale %v inv %v, want 0/0", il.scale, il.inv)
	}
	for i, q := range il.dist {
		if q != 0 {
			t.Fatalf("degenerate entry %d quantized to %d, want 0", i, q)
		}
	}
	if got := il.thresholdInt(1e6); got != intNoAbandon {
		t.Fatalf("degenerate threshold %d, want intNoAbandon", got)
	}
	if il.dequantize(0) != 1 {
		t.Fatalf("degenerate dequantize %v, want delta 1", il.dequantize(0))
	}

	// Constant tables everywhere degenerate the same way.
	il.quantize([]float32{4, 4, 4, 4}, []int{0, 2, 4}, 2)
	if il.scale != 0 || il.delta != 8 {
		t.Fatalf("constant tables: scale %v delta %v, want 0/8", il.scale, il.delta)
	}
}

// thresholdInt must clamp at both ends: best-so-far below delta keeps only
// the rounding slack, and huge thresholds saturate to intNoAbandon (which
// must itself stay below 1<<31 for the sign-bit triage) instead of hitting
// Go's implementation-specific out-of-range float conversion.
func TestIntLUTThresholdClamps(t *testing.T) {
	il := intLUT{delta: 10, scale: 2, inv: 0.5, slack: 7}
	if got := il.thresholdInt(5); got != 7 {
		t.Fatalf("below-delta threshold %d, want slack 7", got)
	}
	if got := il.thresholdInt(float32(math.NaN())); got != 7 {
		t.Fatalf("NaN threshold %d, want slack 7", got)
	}
	if got := il.thresholdInt(3.4e38); got != intNoAbandon {
		t.Fatalf("huge threshold %d, want intNoAbandon", got)
	}
	if intNoAbandon>>31 != 0 {
		t.Fatal("intNoAbandon must fit in 31 bits for the sign-bit triage")
	}
	if got := il.thresholdInt(20); got != 20+7 {
		t.Fatalf("threshold %d, want (20-10)*2+7 = 27", got)
	}
}

// The integer TIEA and heap kernels must stay close to the exact kernels:
// identical codes, only the scan metric differs, so the top-10 overlap on
// a well-conditioned dataset should be near-perfect — and because the
// integer scan's survivors are re-ranked with exact float arithmetic,
// every id both kernels return must carry a bit-identical distance.
func TestFastKernelRecallAgainstExact(t *testing.T) {
	rng := rand.New(rand.NewSource(419))
	x := skewedData(rng, 2500, 32, 1.2)
	for _, tc := range []struct {
		name       string
		cfg        Config
		minOverlap float64
	}{
		// Narrow dictionaries: no coarsening, the only error source is the
		// uint8 quantization of the scan tables.
		{"narrow", Config{NumSubspaces: 8, Budget: 56, Seed: 419, TIClusters: 40}, 0.9},
		// Wide dictionaries: the scan runs on coarsened 256-entry
		// dictionaries; the remap costs some candidate-set accuracy.
		{"coarsened", Config{NumSubspaces: 4, Budget: 38, MinBits: 9, MaxBits: 10,
			Seed: 419, TIClusters: 40, KMeansIters: 8}, 0.8},
	} {
		cfg := tc.cfg
		exact, err := Build(x, x, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.AccuracyMode = AccuracyFast
		fast, err := Build(x, x, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if tc.name == "coarsened" && fast.state.Load().fast.coarsenedSubspaces() == 0 {
			t.Fatal("coarsened case trained no coarse dictionaries")
		}
		qs := layoutQuerySet(rng, x, 20)
		for _, opt := range []SearchOptions{
			{Mode: ModeTIEA, VisitFrac: 0.5},
			{Mode: ModeHeap},
		} {
			se, sf := exact.NewSearcher(), fast.NewSearcher()
			overlapSum := 0.0
			for qi := 0; qi < qs.Rows; qi++ {
				re, err := se.Search(qs.Row(qi), 10, opt)
				if err != nil {
					t.Fatal(err)
				}
				rf, err := sf.Search(qs.Row(qi), 10, opt)
				if err != nil {
					t.Fatal(err)
				}
				if len(rf) != 10 {
					t.Fatalf("fast kernel returned %d results, want 10", len(rf))
				}
				got := make(map[int]float32, len(rf))
				for _, nb := range rf {
					got[nb.ID] = nb.Dist
				}
				hits := 0
				for _, nb := range re {
					d, ok := got[nb.ID]
					if !ok {
						continue
					}
					hits++
					if d != nb.Dist {
						t.Fatalf("%s opt %+v id %d: fast distance %v, exact %v (rerank must be bit-identical)",
							tc.name, opt, nb.ID, d, nb.Dist)
					}
				}
				overlapSum += float64(hits) / 10
			}
			if avg := overlapSum / float64(qs.Rows); avg < tc.minOverlap {
				t.Fatalf("%s opt %+v: mean overlap@10 %.3f vs exact, want >= %.2f", tc.name, opt, avg, tc.minOverlap)
			}
		}
	}
}

// ModeEA and truncated-Subspaces queries must fall back to the exact
// kernels bit-for-bit: an AccuracyFast index answers them identically to
// an exact one.
func TestFastIndexFallbackPathsAreExact(t *testing.T) {
	rng := rand.New(rand.NewSource(421))
	x := skewedData(rng, 1500, 24, 1.1)
	cfg := Config{NumSubspaces: 6, Budget: 42, Seed: 421, TIClusters: 25}
	exact, err := Build(x, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.AccuracyMode = AccuracyFast
	fast, err := Build(x, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	qs := layoutQuerySet(rng, x, 10)
	for _, opt := range []SearchOptions{
		{Mode: ModeEA},
		{Mode: ModeTIEA, VisitFrac: 0.5, Subspaces: 4}, // degrades to EA
		{Mode: ModeHeap, Subspaces: 3},
	} {
		se, sf := exact.NewSearcher(), fast.NewSearcher()
		for qi := 0; qi < qs.Rows; qi++ {
			re, err := se.Search(qs.Row(qi), 10, opt)
			if err != nil {
				t.Fatal(err)
			}
			rf, err := sf.Search(qs.Row(qi), 10, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(re, rf) {
				t.Fatalf("query %d opt %+v: fallback path diverged\nexact: %v\nfast:  %v", qi, opt, re, rf)
			}
			if !reflect.DeepEqual(se.LastStats(), sf.LastStats()) {
				t.Fatalf("query %d opt %+v: fallback stats diverged", qi, opt)
			}
		}
	}
}

// SetAccuracyMode is the runtime toggle: fast builds the store, exact
// drops it, and a deserialized index (which always starts exact — the
// store is derived, never serialized) can opt in after loading.
func TestSetAccuracyModeAndSerializeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(431))
	x := skewedData(rng, 1000, 16, 1.0)
	ix, err := Build(x, x, Config{
		NumSubspaces: 4, Budget: 28, Seed: 431, TIClusters: 15, AccuracyMode: AccuracyFast,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ix.state.Load().fast == nil {
		t.Fatal("AccuracyFast build left no fast store")
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Accuracy() != AccuracyExact || loaded.state.Load().fast != nil {
		t.Fatalf("loaded index: accuracy %v fast=%v, want exact/nil (mode is runtime-only)",
			loaded.Accuracy(), loaded.state.Load().fast != nil)
	}
	if err := loaded.SetAccuracyMode(AccuracyFast); err != nil {
		t.Fatal(err)
	}
	if loaded.Accuracy() != AccuracyFast || loaded.state.Load().fast == nil {
		t.Fatal("SetAccuracyMode(fast) did not build the store")
	}
	verifyFastStore(t, loaded)
	if res, err := loaded.Search(x.Row(3), 5); err != nil || len(res) != 5 {
		t.Fatalf("fast search on loaded index: %d results, err %v", len(res), err)
	}
	if err := loaded.SetAccuracyMode(AccuracyExact); err != nil {
		t.Fatal(err)
	}
	if loaded.state.Load().fast != nil {
		t.Fatal("SetAccuracyMode(exact) kept the store")
	}
	if err := loaded.SetAccuracyMode(AccuracyMode(9)); err == nil {
		t.Fatal("unknown AccuracyMode accepted")
	}
}

// Build must reject accuracy modes outside the enum and the fast mode on
// the row-major layout (the integer store derives from the blocked one).
func TestBuildRejectsBadAccuracyConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(433))
	x := skewedData(rng, 200, 8, 1.0)
	if _, err := Build(x, x, Config{NumSubspaces: 2, Budget: 10, Seed: 433, AccuracyMode: AccuracyMode(9)}); err == nil {
		t.Fatal("Build accepted an unknown AccuracyMode")
	}
	_, err := Build(x, x, Config{
		NumSubspaces: 2, Budget: 10, Seed: 433,
		ScanLayout: LayoutRowMajor, AccuracyMode: AccuracyFast,
	})
	if err == nil {
		t.Fatal("Build accepted AccuracyFast on LayoutRowMajor")
	}
	ix, err := Build(x, x, Config{NumSubspaces: 2, Budget: 10, Seed: 433, ScanLayout: LayoutRowMajor})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.SetAccuracyMode(AccuracyFast); err == nil {
		t.Fatal("SetAccuracyMode(fast) accepted on a row-major index")
	}
}

// The fast-mode fingerprint must differ from exact (different answers)
// while the exact fingerprint stays byte-stable against pre-int-kernel
// baselines (the field is omitempty).
func TestFingerprintCarriesAccuracyMode(t *testing.T) {
	rng := rand.New(rand.NewSource(439))
	x := skewedData(rng, 400, 8, 1.0)
	cfg := Config{NumSubspaces: 2, Budget: 10, Seed: 439, TIClusters: 5}
	exact, err := Build(x, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.AccuracyMode = AccuracyFast
	fast, err := Build(x, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if exact.ConfigFingerprint() == fast.ConfigFingerprint() {
		t.Fatal("exact and fast configs share a fingerprint")
	}
}
