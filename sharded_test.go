package vaq

import (
	"bytes"
	"math/rand"
	"testing"

	"vaq/internal/core"
	"vaq/internal/shard"
	"vaq/internal/vec"
	"vaq/internal/workload"
)

// buildShardedCore builds through internal/shard with settings the public
// Config does not carry, and wraps the result as a ShardedIndex.
func buildShardedCore(t testing.TB, data [][]float32, cfg core.Config, opts shard.Options) *ShardedIndex {
	t.Helper()
	m, err := vec.FromRows(data)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := shard.Build(m, m, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &ShardedIndex{inner: inner}
}

// resetSharded zeroes the merged registry and every per-shard registry.
func resetSharded(sx *ShardedIndex) {
	sx.inner.Metrics().Reset()
	for i := 0; i < sx.inner.Shards(); i++ {
		sx.inner.Shard(i).Metrics().Reset()
	}
}

// TestShardedPublicAPI walks the ShardedIndex surface end to end: build,
// search parity with the unsharded index under exhaustive settings,
// batch search, Add, persistence, metrics and replay.
func TestShardedPublicAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := genData(rng, 900, 32)
	cfg := Config{NumSubspaces: 8, Budget: 48, Seed: 3, Shards: 4}
	sx, err := BuildShardedWithTrainingSet(data, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sx.inner.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", sx.inner.Shards())
	}
	if sx.Len() != 900 || sx.inner.Dim() != 32 {
		t.Fatalf("shape (%d, %d), want (900, 32)", sx.Len(), sx.inner.Dim())
	}
	ux, err := Build(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt := SearchOptions{VisitFrac: 1.0}
	for qi := 0; qi < 20; qi++ {
		q := data[qi*7]
		want, err := ux.SearchWith(q, 10, opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sx.SearchWith(q, 10, opt)
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

	queries := genData(rng, 12, 32)
	batch, err := sx.SearchBatch(queries, 5, SearchOptions{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 12 {
		t.Fatalf("batch returned %d slots, want 12", len(batch))
	}
	for i, res := range batch {
		if len(res) != 5 {
			t.Fatalf("batch query %d returned %d results, want 5", i, len(res))
		}
	}

	first, err := sx.Add(genData(rng, 3, 32))
	if err != nil {
		t.Fatal(err)
	}
	if first != 900 || sx.Len() != 903 {
		t.Fatalf("Add: first=%d Len=%d, want 900/903", first, sx.Len())
	}

	snap := sx.inner.Metrics().Snapshot()
	if snap.Queries == 0 {
		t.Fatal("merged metrics recorded no queries")
	}

	var buf bytes.Buffer
	if _, err := sx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	lx, err := ReadSharded(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if lx.inner.Shards() != sx.inner.Shards() || lx.Len() != sx.Len() {
		t.Fatalf("loaded shape (%d, %d) != (%d, %d)", lx.inner.Shards(), lx.Len(), sx.inner.Shards(), sx.Len())
	}
	if lx.inner.ConfigFingerprint() != sx.inner.ConfigFingerprint() {
		t.Fatal("fingerprint changed across WriteTo/ReadSharded")
	}
}

// TestShardedReplayFromUnshardedCapture pins the public capture→replay
// bridge: a workload captured on an unsharded index replays through the
// sharded scatter-gather with full overlap at exhaustive settings.
func TestShardedReplayFromUnshardedCapture(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := genData(rng, 600, 24)
	cfg := Config{NumSubspaces: 6, Budget: 36, Seed: 5}
	ux, err := Build(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cap := ux.EnableCapture(CaptureConfig{SampleRate: 1})
	for qi := 0; qi < 15; qi++ {
		if _, err := ux.SearchWith(data[qi*11], 8, SearchOptions{VisitFrac: 1.0}); err != nil {
			t.Fatal(err)
		}
	}
	log := cap.Snapshot()
	cfg.Shards = 4
	sx, err := BuildShardedWithTrainingSet(data, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := workload.Replay(log, sx.inner.ReplayRunner(), workload.Options{
		Thresholds: workload.Thresholds{MinOverlap: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("sharded replay failed: %v", rep.Violations)
	}
	if rep.MeanOverlap != 1.0 {
		t.Fatalf("mean overlap %v, want 1.0", rep.MeanOverlap)
	}
}

// TestShardedS1MatchesUnsharded pins the public degenerate case: Shards=1
// (and the Shards=0 default) answers identically to Build.
func TestShardedS1MatchesUnsharded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := genData(rng, 500, 24)
	cfg := Config{NumSubspaces: 6, Budget: 36, Seed: 7}
	ux, err := Build(data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 1} {
		cfg.Shards = shards
		sx, err := BuildShardedWithTrainingSet(data, data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sx.inner.Shards() != 1 {
			t.Fatalf("Shards=%d built %d shards, want 1", shards, sx.inner.Shards())
		}
		if sx.inner.ConfigFingerprint() != ux.inner.ConfigFingerprint() {
			t.Fatalf("Shards=%d fingerprint %q != unsharded %q", shards, sx.inner.ConfigFingerprint(), ux.inner.ConfigFingerprint())
		}
		for qi := 0; qi < 10; qi++ {
			q := data[qi*13]
			want, err := ux.Search(q, 10)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sx.SearchWith(q, 10, SearchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("Shards=%d query %d rank %d: %+v != %+v", shards, qi, i, got[i], want[i])
				}
			}
		}
	}
}
