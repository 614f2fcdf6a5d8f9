package vaq

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"vaq/internal/core"
	"vaq/internal/diag"
	"vaq/internal/metrics"
)

// TestDiagnosePublicSurface drives the diagnostics API the way an operator
// would: build, Diagnose, render both formats, publish, and scrape the
// /debug/vaq/report endpoint — then confirm drift lands in the metrics
// snapshot after out-of-distribution Adds.
func TestDiagnosePublicSurface(t *testing.T) {
	ix, data := metricsTestIndex(t, 1500, 16, core.Config{
		NumSubspaces: 8, Budget: 48, Seed: 11, DriftAlertRatio: 1.5,
	})
	rep := ix.inner.Diagnose()
	if rep == nil || rep.Partial {
		t.Fatalf("fresh build: report %+v, want non-partial", rep)
	}
	if rep.MSESource != diag.MSEBaseline && rep.MSESource != diag.MSEFresh {
		t.Fatalf("unexpected MSE source %q", rep.MSESource)
	}
	if rep.N != ix.Len() || len(rep.Subspaces) != 8 {
		t.Fatalf("report shape: n=%d subspaces=%d", rep.N, len(rep.Subspaces))
	}
	var text bytes.Buffer
	if err := diag.WriteText(&text, rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "ti clusters") {
		t.Fatalf("text rendering missing balance section:\n%s", text.String())
	}

	diag.Publish("vaq_diag_public", ix.inner.Diagnose)
	defer diag.Publish("vaq_diag_public", nil)
	srv, err := metrics.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/vaq/report?index=vaq_diag_public", srv.Addr))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d err %v", resp.StatusCode, err)
	}
	var scraped map[string]*diag.Report
	if err := json.Unmarshal(body, &scraped); err != nil {
		t.Fatalf("scrape not JSON: %v\n%s", err, body)
	}
	if got := scraped["vaq_diag_public"]; got == nil || got.N != ix.Len() {
		t.Fatalf("scraped report %+v, want n=%d", got, ix.Len())
	}

	// Shift the distribution hard; the drift gauges must reach the public
	// metrics snapshot and the report's drift block must alert.
	shifted := make([][]float32, 200)
	for i := range shifted {
		v := make([]float32, 16)
		for j := range v {
			v[j] = data[i][j]*10 + 5
		}
		shifted[i] = v
	}
	for batch := 0; batch < 8; batch++ {
		if _, err := ix.Add(shifted); err != nil {
			t.Fatal(err)
		}
	}
	snap := ix.inner.Metrics().Snapshot()
	if snap.DriftRatio <= 1.5 || !snap.DriftAlert {
		t.Fatalf("post-shift snapshot: ratio %g alert %v, want alerting", snap.DriftRatio, snap.DriftAlert)
	}
	if len(snap.SubspaceMSE) != 8 {
		t.Fatalf("snapshot has %d subspace MSE gauges, want 8", len(snap.SubspaceMSE))
	}
	drift := ix.inner.Diagnose().Drift
	if drift == nil || !drift.Alert || drift.Ratio != snap.DriftRatio {
		t.Fatalf("report drift %+v disagrees with snapshot ratio %g", drift, snap.DriftRatio)
	}
}
