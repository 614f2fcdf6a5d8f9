package vaq

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"vaq/internal/bundle"
	"vaq/internal/core"
	"vaq/internal/metrics"
	"vaq/internal/shard"
	"vaq/internal/workload"
)

// TestFlightRecorderAlertBundleEndToEnd breaches the latency SLO on a live
// index with the recorder armed and checks the full chain: exactly one
// bundle per breach edge (no re-fire while latched), a manifest that
// validates, and an embedded workload log that replays same-index with
// 100% overlap — the acceptance loop CI's bundle-smoke job runs against a
// live vaqsearch process.
func TestFlightRecorderAlertBundleEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := genData(rng, 1200, 24)
	ix := buildCore(t, data, core.Config{
		NumSubspaces: 6, Budget: 36, Seed: 3, TIClusters: 20,
		// Every query violates a 1ns target; the budget exhausts on the
		// second and never recovers, so vaq.slo.latency fires exactly once.
		SLO: &metrics.SLO{LatencyTarget: time.Nanosecond},
	})
	dir := t.TempDir()
	rec, err := ix.EnableFlightRecorder("test_index", BundleConfig{
		Dir:                dir,
		TriggerDelay:       50 * time.Millisecond,
		WorkloadSampleRate: 1, // capture every query: the replay gate below wants records
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.EnableFlightRecorder("again", BundleConfig{Dir: dir}); err == nil {
		t.Fatal("second EnableFlightRecorder should error while armed")
	}

	for qi := 0; qi < 40; qi++ {
		if _, err := ix.Search(data[qi*13], 10); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && rec.Status().BundlesWritten == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if err := ix.DisableFlightRecorder(); err != nil {
		t.Fatalf("DisableFlightRecorder: %v", err)
	}

	mans, err := bundle.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(mans) != 1 {
		t.Fatalf("%d bundles after one breach edge, want exactly 1", len(mans))
	}
	man, err := bundle.Validate(mans[0].Dir)
	if err != nil {
		t.Fatalf("ValidateBundle: %v", err)
	}
	if man.Trigger.Source != "vaq.slo.latency" {
		t.Fatalf("trigger source %q, want vaq.slo.latency", man.Trigger.Source)
	}
	if man.Fingerprint != ix.inner.ConfigFingerprint() {
		t.Fatalf("bundle fingerprint %s != index %s", man.Fingerprint, ix.inner.ConfigFingerprint())
	}
	if man.WorkloadRecords == 0 {
		t.Fatal("bundle carries no workload records despite full sampling")
	}

	// Same-index replay of the embedded workload must be a perfect match.
	log, err := workload.LoadLog(man.Dir + "/workload.vaqwl")
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := workload.Replay(log, ix.inner.ReplayRunner(), workload.Options{
		Thresholds: workload.Thresholds{MinOverlap: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() || rep.MeanOverlap != 1 {
		t.Fatalf("same-index replay overlap %.4f (passed=%v), want 1.0", rep.MeanOverlap, rep.Passed())
	}
}

// TestFlightRecorderRacesMetricsAndTraffic hammers manual bundle triggers
// against concurrent Search, Add and registry resets — the race detector run
// proves the recorder's freeze path (metrics snapshot, Diagnose under the
// index read lock, workload-ring snapshot, alert-bus reads) is safe
// against every mutation path, and that a reset mid-flight never
// wedges a latch.
func TestFlightRecorderRacesMetricsAndTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := genData(rng, 900, 24)
	ix := buildCore(t, data, core.Config{
		NumSubspaces: 6, Budget: 36, Seed: 9, TIClusters: 20,
		SLO: &metrics.SLO{LatencyTarget: time.Nanosecond, Window: 16},
	})
	rec, err := ix.EnableFlightRecorder("race_index", BundleConfig{
		Dir:              t.TempDir(),
		TriggerDelay:     time.Millisecond,
		SnapshotInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 15
	var wg sync.WaitGroup
	wg.Add(4)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := rec.Trigger("race"); err != nil {
				t.Errorf("Trigger: %v", err)
				return
			}
		}
	}()
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
		batchRng := rand.New(rand.NewSource(77))
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
		}
	}()
	wg.Wait()
	if err := ix.DisableFlightRecorder(); err != nil {
		t.Fatalf("DisableFlightRecorder: %v", err)
	}

	mans, err := bundle.List(rec.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(mans) < rounds {
		t.Fatalf("%d bundles, want at least the %d manual triggers", len(mans), rounds)
	}
	for _, m := range mans {
		if _, err := bundle.Validate(m.Dir); err != nil {
			t.Fatalf("bundle written under race is invalid: %v", err)
		}
	}

	// The reset re-armed the SLO latch; fresh traffic must be able to
	// breach it again (the bus survives resets, sources keep identity).
	bus := ix.inner.Metrics().Alerts()
	src := bus.Lookup("vaq.slo.latency")
	if src == nil {
		t.Fatal("vaq.slo.latency missing from the bus")
	}
	ix.inner.Metrics().Reset()
	before := src.Fires()
	for qi := 0; qi < 20; qi++ {
		if _, err := ix.Search(data[qi], 5); err != nil {
			t.Fatal(err)
		}
	}
	if src.Fires() != before+1 {
		t.Fatalf("latch did not re-fire after a registry reset: %d fires, had %d", src.Fires(), before)
	}
}

// TestShardedFlightRecorderSkewBundle drives the sharded skew latch and
// checks the sharded recorder path: the bundle carries the shard count and
// the merged-result workload, and exactly one bundle lands per edge.
func TestShardedFlightRecorderSkewBundle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	data := genData(rng, 900, 24)
	// Per-query skew ratio slowest*S/total is >= 1 by construction, so
	// threshold 1 latches on the first scatter and never recovers.
	sx := buildShardedCore(t, data, core.Config{NumSubspaces: 6, Budget: 36, Seed: 21},
		shard.Options{Shards: 3, SkewAlertRatio: 1})
	dir := t.TempDir()
	rec, err := sx.EnableFlightRecorder("sharded_index", BundleConfig{
		Dir:                dir,
		TriggerDelay:       50 * time.Millisecond,
		WorkloadSampleRate: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 30; qi++ {
		if _, err := sx.SearchWith(data[qi*7], 10, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && rec.Status().BundlesWritten == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if err := sx.DisableFlightRecorder(); err != nil {
		t.Fatalf("DisableFlightRecorder: %v", err)
	}

	mans, err := bundle.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(mans) != 1 {
		t.Fatalf("%d bundles after one skew edge, want exactly 1", len(mans))
	}
	man, err := bundle.Validate(mans[0].Dir)
	if err != nil {
		t.Fatalf("ValidateBundle: %v", err)
	}
	if man.Trigger.Source != "vaq.skew" {
		t.Fatalf("trigger source %q, want vaq.skew", man.Trigger.Source)
	}
	if man.Shards != 3 {
		t.Fatalf("bundle shards %d, want 3", man.Shards)
	}
	log, err := workload.LoadLog(man.Dir + "/workload.vaqwl")
	if err != nil {
		t.Fatal(err)
	}
	if log.Shards != 3 {
		t.Fatalf("workload log shards %d, want 3", log.Shards)
	}
	rep, _, err := workload.Replay(log, sx.inner.ReplayRunner(), workload.Options{
		Thresholds: workload.Thresholds{MinOverlap: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() || rep.MeanOverlap != 1 {
		t.Fatalf("same-index sharded replay overlap %.4f (passed=%v), want 1.0", rep.MeanOverlap, rep.Passed())
	}
}
