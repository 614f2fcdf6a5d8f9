package vaq

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"vaq/internal/core"
	"vaq/internal/metrics"
	"vaq/internal/shard"
)

// TestShardedResetMetrics pins the reset contract: after traffic,
// resetting the registries zeroes the merged one AND every per-shard name/shard-i
// registry, including the scatter attribution.
func TestShardedResetMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := genData(rng, 600, 24)
	cfg := Config{NumSubspaces: 6, Budget: 36, Seed: 11, Shards: 3}
	sx, err := BuildShardedWithTrainingSet(data, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 6; qi++ {
		if _, err := sx.SearchWith(data[qi*17], 5, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// Preconditions: merged, per-shard and scatter counters all moved.
	if snap := sx.inner.Metrics().Snapshot(); snap.Queries != 6 || snap.Sharded == nil || snap.Sharded.WindowQueries != 6 {
		t.Fatalf("precondition: merged snapshot %+v", snap)
	}
	for i := 0; i < sx.inner.Shards(); i++ {
		if s := sx.inner.Shard(i).Metrics().Snapshot(); s.Queries == 0 {
			t.Fatalf("precondition: shard %d registry saw no queries", i)
		}
	}

	resetSharded(sx)

	snap := sx.inner.Metrics().Snapshot()
	if snap.Queries != 0 || snap.CodesConsidered != 0 || snap.Lookups != 0 {
		t.Errorf("merged registry not zero after the reset: %+v", snap)
	}
	if snap.Sharded == nil {
		t.Fatal("the reset dropped the scatter configuration")
	}
	if snap.Sharded.WindowQueries != 0 {
		t.Errorf("scatter window has %d queries after the reset", snap.Sharded.WindowQueries)
	}
	for i, v := range snap.Sharded.CriticalPath {
		if v != 0 {
			t.Errorf("critical path[%d] = %d after the reset", i, v)
		}
	}
	for i := 0; i < sx.inner.Shards(); i++ {
		s := sx.inner.Shard(i).Metrics().Snapshot()
		if s.Queries != 0 || s.CodesConsidered != 0 || s.Lookups != 0 {
			t.Errorf("shard %d registry not zero after the reset: queries=%d considered=%d",
				i, s.Queries, s.CodesConsidered)
		}
	}

	// The registries keep recording after the reset.
	if _, err := sx.SearchWith(data[0], 5, SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	if snap := sx.inner.Metrics().Snapshot(); snap.Queries != 1 {
		t.Errorf("post-reset traffic recorded %d queries, want 1", snap.Queries)
	}
}

// TestShardedSLOBreachGauge walks the vaq_slo_breach gauge through a
// breach/recover/re-breach cycle on a sharded index's merged registry,
// scraping the Prometheus text surface each step.
func TestShardedSLOBreachGauge(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	data := genData(rng, 400, 16)
	sx := buildShardedCore(t, data, core.Config{
		NumSubspaces: 4, Budget: 24, Seed: 13,
		SLO: &metrics.SLO{LatencyTarget: time.Millisecond, LatencyObjective: 0.5, Window: 4},
	}, shard.Options{Shards: 2})
	sx.inner.PublishExpvar("slo_breach_sharded")
	defer func() {
		metrics.Publish("slo_breach_sharded", nil)
		for i := 0; i < sx.inner.Shards(); i++ {
			metrics.Publish(fmt.Sprintf("slo_breach_sharded/shard-%d", i), nil)
		}
	}()

	gauge := func() string {
		t.Helper()
		var b strings.Builder
		if err := metrics.WritePrometheus(&b, "slo_breach_sharded"); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(line, `vaq_slo_breach{index="slo_breach_sharded"}`) {
				return line[strings.LastIndex(line, " ")+1:]
			}
		}
		t.Fatal("scrape missing vaq_slo_breach for the sharded merged registry")
		return ""
	}

	// Real scatter latencies are nondeterministic, so drive the merged
	// registry's SLO evaluation with crafted durations — the same entry
	// point the scatter path uses.
	reg := sx.inner.Metrics()
	fast, slow := 50*time.Microsecond, 20*time.Millisecond

	reg.RecordSearch(metrics.SearchRecord{}, fast)
	if g := gauge(); g != "0" {
		t.Fatalf("healthy sharded gauge = %s, want 0", g)
	}
	for i := 0; i < 3; i++ {
		reg.RecordSearch(metrics.SearchRecord{}, slow)
	}
	if g := gauge(); g != "1" {
		t.Fatalf("breached sharded gauge = %s, want 1", g)
	}
	for i := 0; i < 4; i++ {
		reg.RecordSearch(metrics.SearchRecord{}, fast)
	}
	if g := gauge(); g != "0" {
		t.Fatalf("recovered sharded gauge = %s, want 0 (latch must re-arm)", g)
	}
	for i := 0; i < 3; i++ {
		reg.RecordSearch(metrics.SearchRecord{}, slow)
	}
	if g := gauge(); g != "1" {
		t.Fatalf("re-breached sharded gauge = %s, want 1", g)
	}
	if snap := sx.inner.Metrics().Snapshot(); snap.SLO == nil {
		t.Error("sharded snapshot missing the SLO evaluation")
	}
}
