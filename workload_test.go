package vaq

import (
	"path/filepath"
	"testing"
	"time"

	"vaq/internal/core"
	"vaq/internal/metrics"
	"vaq/internal/workload"
)

// TestPublicWorkloadCaptureReplay drives the public capture→save→load→
// replay loop the way the README quickstart does, including the SLO
// config passthrough.
func TestPublicWorkloadCaptureReplay(t *testing.T) {
	ix, data := metricsTestIndex(t, 600, 12, core.Config{
		NumSubspaces: 4, Budget: 24, Seed: 5,
		SLO: &metrics.SLO{LatencyTarget: time.Second},
	})
	cap := ix.EnableCapture(CaptureConfig{SampleRate: 1})
	if ix.inner.Capture() != cap {
		t.Fatal("Capture() does not return the enabled buffer")
	}
	for i := 0; i < 10; i++ {
		if _, err := ix.Search(data[i], 5); err != nil {
			t.Fatal(err)
		}
	}
	log := cap.Snapshot()
	if len(log.Records) != 10 {
		t.Fatalf("captured %d records, want 10", len(log.Records))
	}
	if log.Fingerprint != ix.inner.ConfigFingerprint() || log.Fingerprint == "" {
		t.Fatalf("fingerprint mismatch: log %q index %q", log.Fingerprint, ix.inner.ConfigFingerprint())
	}

	path := filepath.Join(t.TempDir(), "public.vaqwl")
	if err := log.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := workload.LoadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, diffs, err := workload.Replay(back, ix.inner.ReplayRunner(), workload.Options{
		Thresholds: workload.Thresholds{MinOverlap: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 10 || rep.MeanOverlap != 1 || !rep.Passed() {
		t.Fatalf("same-index replay not exact: %+v", rep)
	}

	// The SLO passthrough reaches the public snapshot: a 1s target over
	// sub-millisecond queries leaves the full budget.
	snap := ix.inner.Metrics().Snapshot()
	if snap.SLO == nil {
		t.Fatal("MetricsSnapshot.SLO nil with Config.SLO set")
	}
	if snap.SLO.LatencyBudgetRemaining != 1 || snap.SLO.LatencyExhausted {
		t.Errorf("budget spent by fast queries: %+v", snap.SLO)
	}
	ix.DisableCapture()
	if ix.inner.Capture() != nil {
		t.Error("Capture() non-nil after DisableCapture")
	}
}
