package vaq

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"vaq/internal/core"
	"vaq/internal/metrics"
)

func metricsTestIndex(t testing.TB, n, d int, cfg core.Config) (*Index, [][]float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	data := make([][]float32, n)
	for i := range data {
		v := make([]float32, d)
		for j := range v {
			v[j] = float32(rng.NormFloat64()) / float32(j+1)
		}
		data[i] = v
	}
	return buildCore(t, data, cfg), data
}

// TestBatchMetricsMatchSerialReplay is the race-detector workhorse: many
// workers hammer the shared registry through SearchBatch, and the
// aggregated counters must equal the sum of per-query SearchStats from a
// serial replay of the same workload (each query's stats are independent
// of execution order, so the totals are deterministic).
func TestBatchMetricsMatchSerialReplay(t *testing.T) {
	ix, data := metricsTestIndex(t, 2000, 24, core.Config{NumSubspaces: 8, Budget: 64, Seed: 5})
	queries := data[:300]
	opt := SearchOptions{VisitFrac: 0.5}

	if _, err := ix.SearchBatch(queries, 10, opt, 8); err != nil {
		t.Fatal(err)
	}
	batch := ix.inner.Metrics().Snapshot()

	// Serial replay through one Searcher, summing LastStats per query.
	// Runs after the batch snapshot was taken, so its own recording
	// cannot contaminate the comparison.
	s := ix.NewSearcher()
	var want metrics.Snapshot
	for qi, q := range queries {
		if _, err := s.Search(q, 10, opt); err != nil {
			t.Fatalf("replay query %d: %v", qi, err)
		}
		st := s.LastStats()
		want.Queries++
		want.ClustersVisited += uint64(st.ClustersVisited)
		want.CodesConsidered += uint64(st.CodesConsidered)
		want.CodesSkippedTI += uint64(st.CodesSkippedTI)
		want.CodesAbandonedEA += uint64(st.CodesAbandonedEA)
		want.Lookups += uint64(st.Lookups)
	}

	if batch.Queries != want.Queries {
		t.Errorf("queries: batch %d, serial %d", batch.Queries, want.Queries)
	}
	if batch.ClustersVisited != want.ClustersVisited {
		t.Errorf("clusters visited: batch %d, serial %d", batch.ClustersVisited, want.ClustersVisited)
	}
	if batch.CodesConsidered != want.CodesConsidered {
		t.Errorf("codes considered: batch %d, serial %d", batch.CodesConsidered, want.CodesConsidered)
	}
	if batch.CodesSkippedTI != want.CodesSkippedTI {
		t.Errorf("codes skipped TI: batch %d, serial %d", batch.CodesSkippedTI, want.CodesSkippedTI)
	}
	if batch.CodesAbandonedEA != want.CodesAbandonedEA {
		t.Errorf("codes abandoned EA: batch %d, serial %d", batch.CodesAbandonedEA, want.CodesAbandonedEA)
	}
	if batch.Lookups != want.Lookups {
		t.Errorf("lookups: batch %d, serial %d", batch.Lookups, want.Lookups)
	}
	if batch.Errors != 0 {
		t.Errorf("unexpected errors counted: %d", batch.Errors)
	}
	if batch.Latency.Quantile(0.5) <= 0 || batch.Latency.Mean() <= 0 {
		t.Errorf("latency percentiles missing: %+v", batch)
	}
}

func TestMetricsDisabled(t *testing.T) {
	ix, data := metricsTestIndex(t, 500, 8, core.Config{NumSubspaces: 4, Budget: 16, Seed: 5, DisableMetrics: true})
	if _, err := ix.Search(data[0], 5); err != nil {
		t.Fatal(err)
	}
	if snap := ix.inner.Metrics().Snapshot(); snap.Queries != 0 || snap.Lookups != 0 {
		t.Fatalf("disabled metrics still recorded: %+v", snap)
	}
	ix.inner.Metrics().Reset() // must not panic on a nil registry
}

func TestMetricsCountErrors(t *testing.T) {
	ix, data := metricsTestIndex(t, 500, 8, core.Config{NumSubspaces: 4, Budget: 16, Seed: 5})
	if _, err := ix.Search(data[0], 0); err == nil {
		t.Fatal("k=0 must fail")
	}
	if _, err := ix.Search(make([]float32, 3), 5); err == nil {
		t.Fatal("bad dim must fail")
	}
	snap := ix.inner.Metrics().Snapshot()
	if snap.Errors != 2 {
		t.Fatalf("errors = %d, want 2", snap.Errors)
	}
	if snap.Queries != 0 {
		t.Fatalf("failed searches counted as queries: %d", snap.Queries)
	}
	ix.inner.Metrics().Reset()
	if snap := ix.inner.Metrics().Snapshot(); snap.Errors != 0 {
		t.Fatalf("reset left errors = %d", snap.Errors)
	}
}

func TestBuildReportPopulated(t *testing.T) {
	ix, _ := metricsTestIndex(t, 1500, 16, core.Config{NumSubspaces: 8, Budget: 48, Seed: 5})
	rep := ix.inner.BuildReport()
	if rep.Total <= 0 {
		t.Fatalf("total build time %v", rep.Total)
	}
	phases := rep.PCA + rep.Allocation + rep.Training + rep.Encoding + rep.TIClustering
	if phases <= 0 || phases > rep.Total {
		t.Fatalf("phase sum %v vs total %v", phases, rep.Total)
	}
	if rep.Training <= 0 || rep.Encoding <= 0 {
		t.Fatalf("dictionary phases missing: %+v", rep)
	}
}

func TestPublishExpvarServesIndexMetrics(t *testing.T) {
	ix, data := metricsTestIndex(t, 500, 8, core.Config{NumSubspaces: 4, Budget: 16, Seed: 5})
	if _, err := ix.Search(data[1], 3); err != nil {
		t.Fatal(err)
	}
	metrics.Publish("vaq_public_test_index", ix.inner.Metrics())
	srv, err := metrics.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/vars", srv.Addr))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"vaq_public_test_index"`) {
		t.Fatalf("expvar output missing index metrics")
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("unmarshal /debug/vars: %v", err)
	}
	var snap struct {
		Queries uint64 `json:"queries"`
	}
	if err := json.Unmarshal(vars["vaq_public_test_index"], &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Queries != 1 {
		t.Fatalf("served queries = %d, want 1", snap.Queries)
	}
}

// TestSearchBatchErrorContract pins the documented batch semantics: a
// fully valid batch returns a nil error (errors.Join of no errors); k < 1
// is rejected up front; and per-query faults fail only their own slot —
// the rest of the batch completes with results and telemetry, each failed
// query increments the registry's error counter exactly once (not once per
// batch), and the joined error names every failed index.
func TestSearchBatchErrorContract(t *testing.T) {
	ix, data := metricsTestIndex(t, 600, 8, core.Config{NumSubspaces: 4, Budget: 16, Seed: 5})
	queries := data[:40]
	out, err := ix.SearchBatch(queries, 5, SearchOptions{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range out {
		if len(res) != 5 {
			t.Fatalf("query %d: %d results", i, len(res))
		}
	}
	if out, err := ix.SearchBatch(queries, 0, SearchOptions{}, 4); err == nil || out != nil {
		t.Fatalf("k=0 must fail upfront, got out=%v err=%v", out != nil, err)
	}

	// Mixed batch: two wrong-dimension queries among good ones.
	badA := 3
	mixed := make([][]float32, 0, len(queries)+2)
	mixed = append(mixed, queries[:badA]...)
	mixed = append(mixed, make([]float32, 3))
	mixed = append(mixed, queries[badA:]...)
	mixed = append(mixed, make([]float32, 1))
	badB := len(mixed) - 1

	before := ix.inner.Metrics().Snapshot()
	out, err = ix.SearchBatch(mixed, 5, SearchOptions{}, 4)
	if err == nil {
		t.Fatal("mixed batch must return the joined per-query errors")
	}
	if out == nil {
		t.Fatal("mixed batch must still return the good results")
	}
	for _, bad := range []int{badA, badB} {
		if out[bad] != nil {
			t.Errorf("failed query %d has non-nil results", bad)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("query %d", bad)) {
			t.Errorf("joined error does not name query %d: %v", bad, err)
		}
	}
	for i, res := range out {
		if i == badA || i == badB {
			continue
		}
		if len(res) != 5 {
			t.Errorf("good query %d: %d results", i, len(res))
		}
	}
	diff := ix.inner.Metrics().Snapshot()
	if got := diff.Errors - before.Errors; got != 2 {
		t.Errorf("errors counted = %d, want exactly one per failed query (2)", got)
	}
	if got := diff.Queries - before.Queries; got != uint64(len(queries)) {
		t.Errorf("good queries recorded = %d, want %d", got, len(queries))
	}
}
