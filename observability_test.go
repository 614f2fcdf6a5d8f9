package vaq

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"vaq/internal/core"
	"vaq/internal/metrics"
	"vaq/internal/trace"
)

// TestObservabilityEndToEnd drives the full debug surface the way an
// operator would: build an index with recall sampling on, enable tracing,
// publish both, serve the debug mux, run traffic, and scrape every
// endpoint — Prometheus metrics (with attribution and recall), the
// human-readable trace dump, and the Chrome trace-event export.
func TestObservabilityEndToEnd(t *testing.T) {
	ix, data := metricsTestIndex(t, 1500, 16, core.Config{
		NumSubspaces: 8, Budget: 48, Seed: 11, RecallSampleRate: 0.5,
	})
	tr := ix.EnableTracing(TraceConfig{RingSize: 32, SlowThreshold: time.Nanosecond, Exemplars: 4})
	metrics.Publish("vaq_e2e_index", ix.inner.Metrics())
	trace.Publish("vaq_e2e_index", tr)
	srv, err := metrics.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	if _, err := ix.SearchBatch(data[:64], 5, SearchOptions{}, 4); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (string, *http.Response) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr, path))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d\n%s", path, resp.StatusCode, body)
		}
		if len(body) == 0 {
			t.Fatalf("GET %s: empty body", path)
		}
		return string(body), resp
	}

	// Prometheus exposition: totals, attribution and recall all present.
	body, resp := get("/debug/vaq/metrics?index=vaq_e2e_index")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics content type %q", ct)
	}
	for _, want := range []string{
		`vaq_queries_total{index="vaq_e2e_index"} 64`,
		`vaq_recall_samples_total{index="vaq_e2e_index"} 32`,
		"vaq_ea_abandon_depth_total{",
		"vaq_ti_skips_by_rank_total{",
		"vaq_query_latency_seconds_bucket{",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics scrape missing %q", want)
		}
	}

	// Human-readable traces.
	body, _ = get("/debug/vaq/traces?name=vaq_e2e_index")
	if !strings.Contains(body, `tracer "vaq_e2e_index": 64 traces recorded`) ||
		!strings.Contains(body, SpanClusterScan) {
		t.Errorf("trace dump incomplete:\n%.600s", body)
	}

	// Slow-query exemplars (1ns threshold: everything qualifies).
	body, _ = get("/debug/vaq/traces?name=vaq_e2e_index&slow=1")
	if !strings.Contains(body, "64 over the") {
		t.Errorf("slow exemplar dump wrong:\n%.300s", body)
	}

	// Chrome trace-event JSON parses and spans carry attribution args.
	body, resp = get("/debug/vaq/traces?name=vaq_e2e_index&format=chrome")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("chrome content type %q", ct)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("chrome export not JSON: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("chrome export empty")
	}

	// The public snapshot exposes the same attribution and recall.
	snap := ix.inner.Metrics().Snapshot()
	if snap.RecallSamples != 32 {
		t.Errorf("RecallSamples = %d, want 32", snap.RecallSamples)
	}
	if r := snap.ObservedRecall(); r <= 0 || r > 1 {
		t.Errorf("ObservedRecall = %v", r)
	}
	if len(snap.AbandonDepths) == 0 || len(snap.TISkipsByRank) == 0 {
		t.Errorf("attribution missing from public snapshot")
	}
	var depths uint64
	for _, v := range snap.AbandonDepths {
		depths += v
	}
	if depths != snap.CodesAbandonedEA {
		t.Errorf("attribution sum %d != %d abandons", depths, snap.CodesAbandonedEA)
	}

	// Slowest exemplar is readable through the public aliases.
	slow, seen := tr.Slowest()
	if seen != 64 || len(slow) == 0 {
		t.Fatalf("exemplars: seen %d kept %d", seen, len(slow))
	}
	if slow[0].Total <= 0 {
		t.Errorf("slowest exemplar has no duration: %+v", slow[0])
	}
}
