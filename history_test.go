package vaq

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"vaq/internal/core"
	"vaq/internal/history"
	"vaq/internal/metrics"
)

// TestHistoryEndToEnd drives the public history surface on an index whose
// every query violates its latency SLO: arming, trend series, the
// multi-window burn-rate handoff (vaq.burn replaces the instantaneous
// vaq.slo edge while armed), dump validation, and disarming.
func TestHistoryEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := genData(rng, 900, 24)
	ix := buildCore(t, data, core.Config{
		NumSubspaces: 6, Budget: 36, Seed: 11, TIClusters: 20,
		SLO: &metrics.SLO{LatencyTarget: time.Nanosecond, Window: 16},
	})
	col, err := ix.EnableHistory("hist_index", HistoryConfig{
		Interval: 10 * time.Millisecond,
		Burn: []history.BurnRule{
			{Name: "fast", Window: 300 * time.Millisecond, Confirm: 50 * time.Millisecond, Threshold: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.EnableHistory("again", HistoryConfig{}); err == nil {
		t.Fatal("second EnableHistory should error while armed")
	}

	// Wait for the collector's arming sweep to delegate the SLO edge
	// before any violating traffic, so the legacy latch cannot fire in the
	// gap.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && !ix.inner.Metrics().SLODelegated() {
		time.Sleep(time.Millisecond)
	}
	if !ix.inner.Metrics().SLODelegated() {
		t.Fatal("collector never delegated the SLO edge")
	}

	// Violating traffic until the fast burn rule is eligible and fires.
	deadline = time.Now().Add(5 * time.Second)
	bus := ix.inner.Metrics().Alerts()
	for time.Now().Before(deadline) && !bus.Lookup("vaq.burn.latency.fast").Firing() {
		for i := 0; i < 10; i++ {
			if _, err := ix.Search(data[i], 5); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !bus.Lookup("vaq.burn.latency.fast").Firing() {
		t.Fatal("vaq.burn.latency.fast never fired under sustained violation")
	}
	if bus.Lookup("vaq.slo.latency").Firing() {
		t.Fatal("instantaneous SLO edge fired while burn rules were armed")
	}

	// The trend store is queryable through the collector.
	s := col.Series("hist_index", "queries")
	if s == nil {
		t.Fatal("queries series missing")
	}
	if p, ok := s.Last(); !ok || p.Val == 0 {
		t.Fatalf("queries series last = %+v ok=%v", p, ok)
	}
	d := col.Dump()
	if err := history.ValidateDump(d); err != nil {
		t.Fatalf("live dump invalid: %v", err)
	}
	if d.Collector != "hist_index" {
		t.Fatalf("dump collector %q", d.Collector)
	}

	ix.DisableHistory()
	if _, err := ix.EnableHistory("rearm", HistoryConfig{}); err != nil {
		t.Fatalf("DisableHistory left the collector armed: %v", err)
	}
	ix.DisableHistory()
	// The instantaneous edge is back in charge: fresh violating traffic
	// pages through vaq.slo.latency again.
	ix.inner.Metrics().Reset()
	for i := 0; i < 20; i++ {
		if _, err := ix.Search(data[i], 5); err != nil {
			t.Fatal(err)
		}
	}
	if !bus.Lookup("vaq.slo.latency").Firing() {
		t.Fatal("instantaneous SLO edge did not resume after DisableHistory")
	}
}

// TestHistoryRacesMetricsAndTraffic runs the collector's background
// sampler against concurrent Search, Add and registry resets — the race
// detector run proves the lock-free series writes and the snapshot reads
// are safe against every mutation path, and the dump taken afterwards
// still validates.
func TestHistoryRacesMetricsAndTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	data := genData(rng, 900, 24)
	ix := buildCore(t, data, core.Config{
		NumSubspaces: 6, Budget: 36, Seed: 13, TIClusters: 20,
		SLO: &metrics.SLO{LatencyTarget: time.Nanosecond, Window: 16},
	})
	col, err := ix.EnableHistory("race_hist", HistoryConfig{Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 15
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds*10; i++ {
			if _, err := ix.Search(data[i%len(data)], 5); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		batchRng := rand.New(rand.NewSource(78))
		for i := 0; i < rounds; i++ {
			if _, err := ix.Add(genData(batchRng, 15, 24)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			ix.inner.Metrics().Reset()
			time.Sleep(time.Millisecond)
		}
	}()
	go func() { // concurrent readers of the store under write load
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if s := col.Series("race_hist", "queries"); s != nil {
				pts := s.Range(0, 0)
				for k := 1; k < len(pts); k++ {
					if pts[k].TS < pts[k-1].TS {
						t.Error("range regressed under concurrent sampling")
						return
					}
				}
			}
			_ = col.Dump()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()

	d := col.Dump()
	if err := history.ValidateDump(d); err != nil {
		t.Fatalf("dump after race invalid: %v", err)
	}
	ix.DisableHistory()
}

// TestShardedHistoryWatchesEveryShard checks the scatter-gather wiring:
// one collector samples the merged registry and one target per shard, and
// the text render carries all of them.
func TestShardedHistoryWatchesEveryShard(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	data := genData(rng, 900, 32)
	sx, err := BuildShardedWithTrainingSet(data, data, Config{NumSubspaces: 8, Budget: 48, Seed: 17, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	col, err := sx.EnableHistory("sharded_hist", HistoryConfig{Interval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sx.DisableHistory()

	for qi := 0; qi < 30; qi++ {
		if _, err := sx.SearchWith(data[qi], 5, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"sharded_hist", "sharded_hist/shard-0", "sharded_hist/shard-1", "sharded_hist/shard-2", "sharded_hist/shard-3"}
	deadline := time.Now().Add(2 * time.Second)
	for {
		got := col.Targets()
		if len(got) == len(want) {
			ok := true
			for i := range want {
				ok = ok && got[i] == want[i]
			}
			if ok {
				break
			}
			t.Fatalf("targets %v, want %v", got, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("targets %v, want %v", got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Every shard target accumulates samples (queries may be zero on a
	// pruned shard, but the series itself must exist and have points).
	deadline = time.Now().Add(2 * time.Second)
	for _, name := range want {
		for {
			s := col.Series(name, "queries")
			if s != nil {
				if _, ok := s.Last(); ok {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("target %s has no sampled queries series", name)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	var sb strings.Builder
	d := col.Dump()
	if err := history.ValidateDump(d); err != nil {
		t.Fatal(err)
	}
	if len(d.Targets) != 5 {
		t.Fatalf("dump has %d targets, want 5", len(d.Targets))
	}
	for _, td := range d.Targets {
		sb.WriteString(td.Name)
		sb.WriteByte('\n')
	}
	for _, name := range want {
		if !strings.Contains(sb.String(), name) {
			t.Fatalf("dump missing target %s", name)
		}
	}
}
