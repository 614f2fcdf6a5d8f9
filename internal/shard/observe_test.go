package shard

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"vaq/internal/core"
	"vaq/internal/diag"
	"vaq/internal/trace"
	"vaq/internal/vec"
	"vaq/internal/workload"
)

// TestShardedTraceSpans pins the parent-trace shape for one scatter:
// Workers:1 serializes the shards, so after the first shard fills the
// tracker every later fold runs under a published bound and at least one
// bound-feedback event is guaranteed.
func TestShardedTraceSpans(t *testing.T) {
	data := testData(t, 800, 24, 23)
	cfg := core.Config{NumSubspaces: 6, Budget: 30, Seed: 24}
	x := mustBuild(t, data, cfg, Options{Shards: 4, Workers: 1})
	tr := x.EnableTracing(trace.Config{})
	q := testData(t, 1, 24, 25).Row(0)
	res, err := x.Search(q, 10, core.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rec := tr.Recent()
	if len(rec) != 1 {
		t.Fatalf("recorded %d traces, want 1", len(rec))
	}
	qt := rec[0]
	if qt.K != 10 {
		t.Errorf("trace K = %d, want 10", qt.K)
	}

	// One wait + one scan span per shard, shards 0..3 each exactly once.
	scans := map[int]trace.Span{}
	waits := map[int]trace.Span{}
	var feedback, merges []trace.Span
	for _, sp := range qt.Spans {
		switch sp.Name {
		case trace.SpanShardScan:
			if _, dup := scans[sp.Shard]; dup {
				t.Errorf("duplicate scan span for shard %d", sp.Shard)
			}
			scans[sp.Shard] = sp
		case trace.SpanShardWait:
			waits[sp.Shard] = sp
		case trace.SpanBoundFeedback:
			feedback = append(feedback, sp)
		case trace.SpanShardMerge:
			merges = append(merges, sp)
		default:
			t.Errorf("unexpected span %q in a sharded parent trace", sp.Name)
		}
	}
	if len(scans) != 4 || len(waits) != 4 {
		t.Fatalf("got %d scan / %d wait spans, want 4 each", len(scans), len(waits))
	}
	if len(merges) != 1 {
		t.Fatalf("got %d merge spans, want 1", len(merges))
	}
	if len(feedback) == 0 {
		t.Fatal("no bound-feedback event in a 4-shard sequential scatter")
	}

	// The per-shard scan attribution must sum to the merged stats the
	// trace carries, and the hit attribution must partition the answer.
	var considered, lookups int
	var hits int
	for si := 0; si < 4; si++ {
		sp := scans[si]
		considered += sp.Count
		lookups += sp.Lookups
		hits += sp.Hits
		if sp.Start != waits[si].Dur {
			t.Errorf("shard %d scan starts at %v, wait ends at %v", si, sp.Start, waits[si].Dur)
		}
		if sp.Dur < 0 {
			t.Errorf("shard %d negative scan duration %v", si, sp.Dur)
		}
	}
	if considered != qt.Stats.CodesConsidered {
		t.Errorf("scan spans consider %d codes, merged stats say %d", considered, qt.Stats.CodesConsidered)
	}
	if lookups != qt.Stats.Lookups {
		t.Errorf("scan spans did %d lookups, merged stats say %d", lookups, qt.Stats.Lookups)
	}
	if hits != len(res) {
		t.Errorf("hit attribution sums to %d, want the full answer %d", hits, len(res))
	}

	// Feedback accounting: every shard that started under a published
	// bound is credited to exactly one event.
	var downstream int
	for _, fb := range feedback {
		if fb.Shard < 0 || fb.Shard >= 4 {
			t.Errorf("feedback from shard %d", fb.Shard)
		}
		if fb.Bound <= 0 {
			t.Errorf("feedback bound %v, want > 0", fb.Bound)
		}
		downstream += fb.Count
	}
	// Workers:1 and len(shard 0) >= k guarantee shards 1..3 all start
	// under a bound.
	if downstream != 3 {
		t.Errorf("feedback credits %d downstream shards, want 3", downstream)
	}

	// Disabling detaches the tracer: subsequent queries record nothing.
	x.DisableTracing()
	if _, err := x.Search(q, 10, core.SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := tr.Count(); got != 1 {
		t.Errorf("tracer saw %d queries after DisableTracing, want 1", got)
	}
	if x.tracer.Load() != nil {
		t.Error("Tracer() non-nil after DisableTracing")
	}
}

// TestShardedCaptureReplay drives the full loop the acceptance criteria
// name: capture on a sharded index, round-trip the log through the v2
// codec, replay against the same index (exact), and replay against
// rebuilds with different shard counts in exhaustive mode (still exact,
// because exhaustive scatter answers are shard-count invariant).
func TestShardedCaptureReplay(t *testing.T) {
	data := testData(t, 500, 24, 26)
	cfg := core.Config{NumSubspaces: 6, Budget: 30, Seed: 27}
	x := mustBuild(t, data, cfg, Options{Shards: 3})
	c := x.EnableCapture(workload.Config{SampleRate: 1})
	queries := testData(t, 15, 24, 28)
	for qi := 0; qi < queries.Rows; qi++ {
		if _, err := x.Search(queries.Row(qi), 10, core.SearchOptions{VisitFrac: 1.0}); err != nil {
			t.Fatal(err)
		}
	}
	x.DisableCapture()
	if x.Capture() != nil {
		t.Error("Capture() non-nil after DisableCapture")
	}
	log := c.Snapshot()
	if len(log.Records) != queries.Rows {
		t.Fatalf("captured %d records, want %d", len(log.Records), queries.Rows)
	}
	if log.Shards != 3 {
		t.Fatalf("log.Shards = %d, want the capturing index's 3", log.Shards)
	}
	if log.Fingerprint != x.ConfigFingerprint() {
		t.Errorf("log fingerprint %q != index %q", log.Fingerprint, x.ConfigFingerprint())
	}

	// Round-trip through the on-disk codec: shard provenance survives.
	path := filepath.Join(t.TempDir(), "sharded.vaqwl")
	if err := log.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := workload.LoadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Shards != 3 || len(loaded.Records) != len(log.Records) {
		t.Fatalf("round trip lost provenance: shards=%d records=%d", loaded.Shards, len(loaded.Records))
	}

	// Same index: bit-exact replay.
	rep, _, err := workload.Replay(loaded, x.ReplayRunner(), workload.Options{
		Thresholds: workload.Thresholds{MinOverlap: 1.0, MaxDistDrift: 0, DistDriftSet: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() || rep.ExactMatches != rep.Queries {
		t.Fatalf("same-index replay diverged: %+v", rep)
	}

	// Different scatter shapes: exhaustive answers are invariant, so the
	// 3-shard capture replays exactly on 1-, 2- and 5-shard rebuilds.
	for _, s := range []int{1, 2, 5} {
		y := mustBuild(t, data, cfg, Options{Shards: s})
		rep, _, err := workload.Replay(loaded, y.ReplayRunner(), workload.Options{
			Thresholds: workload.Thresholds{MinOverlap: 1.0},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Passed() {
			t.Fatalf("replay across scatter shapes (3 captured -> %d replayed) failed: %+v", s, rep.Violations)
		}
		if rep.MeanOverlap != 1.0 {
			t.Fatalf("shards=%d mean overlap %v, want 1.0", s, rep.MeanOverlap)
		}
	}
}

// TestShardsReport pins Report(): scatter shape, per-shard registry
// excerpts, and the merged attribution columns.
func TestShardsReport(t *testing.T) {
	data := testData(t, 400, 16, 29)
	cfg := core.Config{NumSubspaces: 4, Budget: 20, Seed: 30}
	x := mustBuild(t, data, cfg, Options{Shards: 4})
	q := testData(t, 8, 16, 31)
	for qi := 0; qi < q.Rows; qi++ {
		if _, err := x.Search(q.Row(qi), 5, core.SearchOptions{Mode: core.ModeHeap}); err != nil {
			t.Fatal(err)
		}
	}
	rep := x.Report()
	if rep.Shards != 4 || rep.Len != 400 || len(rep.PerShard) != 4 {
		t.Fatalf("report shape: %+v", rep)
	}
	if rep.Merged == nil {
		t.Fatal("report missing merged scatter telemetry")
	}
	if rep.Merged.WindowQueries != 8 {
		t.Errorf("merged window has %d queries, want 8", rep.Merged.WindowQueries)
	}
	var lenSum int
	var critical, hits, queries uint64
	for i, sr := range rep.PerShard {
		if sr.Shard != i {
			t.Errorf("PerShard[%d].Shard = %d", i, sr.Shard)
		}
		lenSum += sr.Len
		critical += sr.CriticalPath
		hits += sr.Hits
		queries += sr.Queries
		if sr.Queries != 8 {
			t.Errorf("shard %d registry has %d queries, want 8", i, sr.Queries)
		}
		if sr.CodesConsidered == 0 {
			t.Errorf("shard %d considered no codes under ModeHeap", i)
		}
	}
	if lenSum != 400 {
		t.Errorf("per-shard lens sum to %d, want 400", lenSum)
	}
	if critical != 8 {
		t.Errorf("critical-path attributions sum to %d, want one per query (8)", critical)
	}
	if hits != 8*5 {
		t.Errorf("hit attributions sum to %d, want k per query (40)", hits)
	}
}

// TestShardsHandler covers the /debug/vaq/shards HTTP surface: JSON map
// keyed by name, index filtering, 404 on unknown, and the text format.
func TestShardsHandler(t *testing.T) {
	data := testData(t, 300, 16, 32)
	cfg := core.Config{NumSubspaces: 4, Budget: 20, Seed: 33}
	x := mustBuild(t, data, cfg, Options{Shards: 2})
	if _, err := x.Search(testData(t, 1, 16, 34).Row(0), 5, core.SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	Publish("sh_test", x)
	defer Publish("sh_test", nil)
	srv := httptest.NewServer(http.HandlerFunc(handleShards))
	defer srv.Close()

	get := func(query string) (string, int) {
		t.Helper()
		resp, err := http.Get(srv.URL + query)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.StatusCode
	}

	body, code := get("?index=sh_test")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var reports map[string]*ShardsReport
	if err := json.Unmarshal([]byte(body), &reports); err != nil {
		t.Fatalf("response is not the JSON report map: %v\n%s", err, body)
	}
	if rep := reports["sh_test"]; rep == nil || rep.Shards != 2 || len(rep.PerShard) != 2 {
		t.Fatalf("report payload wrong: %+v", reports)
	}

	if _, code := get("?index=no_such"); code != http.StatusNotFound {
		t.Errorf("unknown index: status %d, want 404", code)
	}

	body, code = get("?index=sh_test&format=text")
	if code != http.StatusOK {
		t.Fatalf("text format: status %d", code)
	}
	for _, want := range []string{`== sharded index "sh_test"`, "shards=2", "skew_ratio=", "shard 0", "shard 1"} {
		if !strings.Contains(body, want) {
			t.Errorf("text dump missing %q:\n%s", want, body)
		}
	}
}

// benchShardedTracing measures the sharded hot path with tracing off
// (the atomic tracer/capture pointer loads are the only additions over
// PR 7) versus on (per-shard clocks + parent trace assembly). Compare:
//
//	go test ./internal/shard -bench='ShardedTracing(Off|On)' -count=10 | benchstat
//
// The Off arm is the acceptance bar: within noise of the pre-tracing
// scatter path.
func benchShardedTracing(b *testing.B, traceOn bool) {
	data := testData(b, 8000, 32, 40)
	x := mustBuild(b, data, testConfig(), Options{Shards: 4})
	if traceOn {
		x.EnableTracing(trace.Config{})
	}
	queries := testData(b, 64, 32, 41)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries.Row(i % queries.Rows)
		if _, err := x.Search(q, 10, core.SearchOptions{Mode: core.ModeTIEA, VisitFrac: 0.25}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShardedTracingOff(b *testing.B) { benchShardedTracing(b, false) }
func BenchmarkShardedTracingOn(b *testing.B)  { benchShardedTracing(b, true) }

// TestConcurrentDiagnoseAddSearch runs diagnostics publication against
// live Add and Search traffic: the -race gate for the observability
// surfaces the satellite demands.
func TestConcurrentDiagnoseAddSearch(t *testing.T) {
	data := testData(t, 400, 16, 35)
	cfg := core.Config{NumSubspaces: 4, Budget: 20, Seed: 36}
	x := mustBuild(t, data, cfg, Options{Shards: 3, SkewAlertRatio: 100})
	x.EnableTracing(trace.Config{RingSize: 16})
	queries := testData(t, 8, 16, 37)
	adds := testData(t, 60, 16, 38)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // diagnostics reader: scrapes while traffic is live
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				x.Diagnose()
				x.PublishDiagnostics("cdas_test")
				x.Report()
				x.Metrics().Snapshot()
			}
		}
	}()

	var workers sync.WaitGroup
	workers.Add(1)
	go func() { // writer: one vector per batch, every batch a fresh matrix
		defer workers.Done()
		for i := 0; i < adds.Rows; i++ {
			row := adds.Row(i)
			m := &vec.Matrix{Rows: 1, Cols: len(row), Data: append([]float32(nil), row...)}
			if _, err := x.Add(m); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for w := 0; w < 2; w++ { // searchers
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := 0; i < 50; i++ {
				q := queries.Row(i % queries.Rows)
				if _, err := x.Search(q, 5, core.SearchOptions{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { workers.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent observability test wedged")
	}
	close(stop)
	readers.Wait()
	for i := 0; i < x.Shards(); i++ {
		diag.Publish(fmt.Sprintf("cdas_test/shard-%d", i), nil)
	}
	if got := x.Len(); got != 400+adds.Rows {
		t.Fatalf("Len = %d after adds, want %d", got, 400+adds.Rows)
	}
}
