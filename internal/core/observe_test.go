package core

import (
	"bytes"
	"log/slog"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"vaq/internal/metrics"
	"vaq/internal/trace"
	"vaq/internal/vec"
)

// TestSearchRecordMirrorsSearchStats pins the contract metrics.SearchRecord
// documents: it stays field-for-field identical (name, type, order) with
// core.SearchStats, so the conversion in record() can never silently drop a
// counter when one side grows a field.
func TestSearchRecordMirrorsSearchStats(t *testing.T) {
	st := reflect.TypeOf(SearchStats{})
	rt := reflect.TypeOf(metrics.SearchRecord{})
	if st.NumField() != rt.NumField() {
		t.Fatalf("core.SearchStats has %d fields, metrics.SearchRecord %d — keep them in sync",
			st.NumField(), rt.NumField())
	}
	for i := 0; i < st.NumField(); i++ {
		sf, rf := st.Field(i), rt.Field(i)
		if sf.Name != rf.Name || sf.Type != rf.Type {
			t.Errorf("field %d: core.SearchStats.%s %v vs metrics.SearchRecord.%s %v",
				i, sf.Name, sf.Type, rf.Name, rf.Type)
		}
	}
}

func observeTestIndex(t *testing.T, cfg Config) (*Index, *vec.Matrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(907))
	x := skewedData(rng, 1600, 24, 1.2)
	if cfg.NumSubspaces == 0 {
		cfg = Config{NumSubspaces: 8, Budget: 48, Seed: 907, TIClusters: 30}
	}
	ix, err := Build(x, x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ix, x
}

func TestTracingEndToEnd(t *testing.T) {
	ix, x := observeTestIndex(t, Config{})
	tr := ix.EnableTracing(trace.Config{RingSize: 32, SlowThreshold: 1, Exemplars: 4})
	if ix.Tracer() != tr {
		t.Fatal("Tracer() does not return the enabled tracer")
	}
	s := ix.NewSearcher()
	const queries = 10
	for i := 0; i < queries; i++ {
		if _, err := s.Search(x.Row(i), 5, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Count() != queries {
		t.Fatalf("traced %d queries, want %d", tr.Count(), queries)
	}
	rec := tr.Recent()
	qt := rec[len(rec)-1]
	st := s.LastStats()

	if qt.Mode != "ti+ea" || qt.K != 5 {
		t.Errorf("trace metadata: mode=%q k=%d", qt.Mode, qt.K)
	}
	names := map[string]int{}
	for _, sp := range qt.Spans {
		names[sp.Name]++
		if sp.Dur < 0 || sp.Start < 0 {
			t.Errorf("span %s has negative timing: start=%v dur=%v", sp.Name, sp.Start, sp.Dur)
		}
	}
	if names[trace.SpanProject] != 1 || names[trace.SpanLUTFill] != 1 || names[trace.SpanClusterRank] != 1 {
		t.Errorf("setup spans wrong: %v", names)
	}
	if names[trace.SpanClusterScan] != st.ClustersVisited {
		t.Errorf("%d cluster_scan spans, visited %d clusters", names[trace.SpanClusterScan], st.ClustersVisited)
	}
	// Per-cluster attribution must sum back to the query totals.
	var skipped, abandoned, lookups int
	for _, sp := range qt.Spans {
		if sp.Name == trace.SpanClusterScan {
			skipped += sp.SkippedTI
			abandoned += sp.AbandonedEA
			lookups += sp.Lookups
		}
	}
	if skipped != st.CodesSkippedTI || abandoned != st.CodesAbandonedEA || lookups != st.Lookups {
		t.Errorf("span sums (%d,%d,%d) != stats (%d,%d,%d)",
			skipped, abandoned, lookups, st.CodesSkippedTI, st.CodesAbandonedEA, st.Lookups)
	}
	// The embedded record matches the stats and owns its own slices.
	if qt.Stats.CodesConsidered != st.CodesConsidered || qt.Stats.Lookups != st.Lookups {
		t.Errorf("trace stats %+v != searcher stats %+v", qt.Stats, st)
	}
	if len(st.AbandonDepths) > 0 && &qt.Stats.AbandonDepths[0] == &st.AbandonDepths[0] {
		t.Error("trace retained the searcher's scratch slice (must deep-copy)")
	}

	// With a 1ns threshold every query is a slow-query candidate.
	slow, seen := tr.Slowest()
	if seen != queries || len(slow) != 4 {
		t.Errorf("exemplars: seen %d kept %d, want %d/4", seen, len(slow), queries)
	}

	// EA and heap modes produce one whole-scan span instead.
	for _, mode := range []SearchMode{ModeEA, ModeHeap} {
		if _, err := s.Search(x.Row(0), 5, SearchOptions{Mode: mode}); err != nil {
			t.Fatal(err)
		}
		rec = tr.Recent()
		qt = rec[len(rec)-1]
		var scans int
		for _, sp := range qt.Spans {
			if sp.Name == trace.SpanScan {
				scans++
			}
			if sp.Name == trace.SpanClusterScan {
				t.Errorf("mode %v emitted a cluster_scan span", mode)
			}
		}
		if scans != 1 || qt.Mode != mode.String() {
			t.Errorf("mode %v: %d scan spans, mode %q", mode, scans, qt.Mode)
		}
	}

	// Disabling stops new searchers; existing recorders can be detached.
	ix.DisableTracing()
	if ix.Tracer() != nil {
		t.Fatal("DisableTracing left a tracer")
	}
	count := tr.Count()
	s2 := ix.NewSearcher()
	if _, err := s2.Search(x.Row(1), 5, SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	s.AttachTracer(nil)
	if _, err := s.Search(x.Row(1), 5, SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	if tr.Count() != count {
		t.Errorf("queries traced after disable: %d -> %d", count, tr.Count())
	}
}

// TestTracingLayoutParity: the blocked kernel emits the same span
// structure as the row-major oracle with identical attribution (timings
// differ, structure must not).
func TestTracingLayoutParity(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	x := skewedData(rng, 2000, 32, 1.2)
	for _, wc := range widthConfigs {
		ix, err := Build(x, x, wc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		tb := ix.EnableTracing(trace.Config{SlowThreshold: 1})
		tro := trace.New(trace.Config{SlowThreshold: 1})
		sb, so := ix.NewSearcher(), ix.NewSearcher()
		so.AttachTracer(tro)
		for i := 0; i < 5; i++ {
			qz, err := ix.ProjectQuery(x.Row(i))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sb.SearchProjected(qz, 10, SearchOptions{}); err != nil {
				t.Fatal(err)
			}
			so.oracleSearch(qz, 10, SearchOptions{})
			cb := clusterSpansByCluster(tb.Recent()[i])
			co := clusterSpansByCluster(tro.Recent()[i])
			if len(cb) != len(co) {
				t.Fatalf("%s query %d: %d vs %d cluster spans", wc.name, i, len(cb), len(co))
			}
			for c, spb := range cb {
				spo, ok := co[c]
				if !ok {
					t.Fatalf("%s query %d: cluster %d only traced by the blocked kernel", wc.name, i, c)
				}
				if spb.Rank != spo.Rank || spb.Count != spo.Count ||
					spb.SkippedTI != spo.SkippedTI || spb.AbandonedEA != spo.AbandonedEA ||
					spb.Lookups != spo.Lookups {
					t.Errorf("%s query %d cluster %d attribution differs:\nblocked %+v\noracle  %+v", wc.name, i, c, spb, spo)
				}
			}
		}
	}
}

func clusterSpansByCluster(qt *trace.QueryTrace) map[int]trace.Span {
	out := map[int]trace.Span{}
	for _, sp := range qt.Spans {
		if sp.Name == trace.SpanClusterScan {
			out[sp.Cluster] = sp
		}
	}
	return out
}

// TestAttributionSumsMatchCounters: per-query attribution histograms must
// total exactly the scalar counters in every mode, and equal the row-major
// oracle's histograms entry for entry.
func TestAttributionSumsMatchCounters(t *testing.T) {
	ix, x := observeTestIndex(t, Config{NumSubspaces: 8, Budget: 48, Seed: 907, TIClusters: 30})
	s, o := ix.NewSearcher(), ix.NewSearcher()
	for _, opt := range []SearchOptions{
		{}, {VisitFrac: 1}, {Mode: ModeEA}, {Mode: ModeHeap}, {Subspaces: 5},
	} {
		for i := 0; i < 5; i++ {
			qz, err := ix.ProjectQuery(x.Row(i))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.SearchProjected(qz, 10, opt); err != nil {
				t.Fatal(err)
			}
			st := s.LastStats()
			var depths, ranks int
			for _, v := range st.AbandonDepths {
				depths += int(v)
			}
			for _, v := range st.TISkipsByRank {
				ranks += int(v)
			}
			if depths != st.CodesAbandonedEA {
				t.Fatalf("opt %+v: abandon depths sum %d != %d abandons", opt, depths, st.CodesAbandonedEA)
			}
			if ranks != st.CodesSkippedTI {
				t.Fatalf("opt %+v: rank skips sum %d != %d TI skips", opt, ranks, st.CodesSkippedTI)
			}
			o.oracleSearch(qz, 10, opt)
			if !reflect.DeepEqual(st, o.LastStats()) {
				t.Fatalf("opt %+v: attribution differs from oracle\nblocked: %+v\noracle:  %+v", opt, st, o.LastStats())
			}
		}
	}
	// And the registry folded the same totals.
	snap := ix.Metrics().Snapshot()
	var depths, ranks uint64
	for _, v := range snap.AbandonDepths {
		depths += v
	}
	for _, v := range snap.TISkipsByRank {
		ranks += v
	}
	if depths != snap.CodesAbandonedEA || ranks != snap.CodesSkippedTI {
		t.Fatalf("registry attribution (%d,%d) != counters (%d,%d)",
			depths, ranks, snap.CodesAbandonedEA, snap.CodesSkippedTI)
	}
}

func TestSampleStride(t *testing.T) {
	cases := []struct {
		rate float64
		want uint64
	}{{1, 1}, {2, 1}, {0.5, 2}, {0.25, 4}, {0.01, 100}, {0.003, 333}}
	for _, c := range cases {
		if got := sampleStride(c.rate); got != c.want {
			t.Errorf("sampleStride(%v) = %d, want %d", c.rate, got, c.want)
		}
	}
}

func TestRecallSampling(t *testing.T) {
	ix, x := observeTestIndex(t, Config{NumSubspaces: 8, Budget: 48, Seed: 907, TIClusters: 30, RecallSampleRate: 0.5})
	if got := ix.RecallSampling(); got != 2 {
		t.Fatalf("RecallSampling() = %d, want every 2nd query", got)
	}
	s := ix.NewSearcher()
	const queries, k = 20, 5
	for i := 0; i < queries; i++ {
		if _, err := s.Search(x.Row(i), k, SearchOptions{VisitFrac: 1}); err != nil {
			t.Fatal(err)
		}
	}
	snap := ix.Metrics().Snapshot()
	if snap.RecallSamples != queries/2 {
		t.Fatalf("sampled %d queries, want %d", snap.RecallSamples, queries/2)
	}
	if snap.RecallExpected != uint64(queries/2*k) {
		t.Fatalf("expected neighbors %d, want %d", snap.RecallExpected, queries/2*k)
	}
	recall := snap.ObservedRecall()
	if recall <= 0 || recall > 1 {
		t.Fatalf("ObservedRecall = %v", recall)
	}
	// Queries are database rows and the full cluster set is visited, so the
	// measured recall@5 must be decent — this is a sanity bound, not a
	// quality benchmark.
	if recall < 0.3 {
		t.Errorf("implausibly low recall %v for self-queries at VisitFrac 1", recall)
	}
}

func TestRecallSamplingCoversAdd(t *testing.T) {
	ix, x := observeTestIndex(t, Config{NumSubspaces: 8, Budget: 48, Seed: 907, TIClusters: 30, RecallSampleRate: 1})
	extra := vec.NewMatrix(30, x.Cols)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < extra.Rows; i++ {
		copy(extra.Row(i), x.Row(rng.Intn(x.Rows)))
	}
	if _, err := ix.Add(extra); err != nil {
		t.Fatal(err)
	}
	if st := ix.state.Load(); st.retained.Rows != st.n {
		t.Fatalf("retained %d rows, index has %d — the shadow scan would miss Add'd ids",
			st.retained.Rows, st.n)
	}
	s := ix.NewSearcher()
	for i := 0; i < 5; i++ {
		if _, err := s.Search(extra.Row(i), 3, SearchOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	snap := ix.Metrics().Snapshot()
	if snap.RecallSamples != 5 {
		t.Fatalf("sampled %d, want every query at rate 1", snap.RecallSamples)
	}
}

func TestRecallSamplingOffByDefaultAndAfterLoad(t *testing.T) {
	ix, x := observeTestIndex(t, Config{})
	if ix.RecallSampling() != 0 {
		t.Fatal("recall sampling on without RecallSampleRate")
	}
	src, _ := observeTestIndex(t, Config{NumSubspaces: 8, Budget: 48, Seed: 907, TIClusters: 30, RecallSampleRate: 1})
	var buf bytes.Buffer
	if _, err := src.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.RecallSampling() != 0 {
		t.Fatal("retention must not survive serialization (it is runtime-only)")
	}
	if _, err := loaded.SearchWith(x.Row(0), 3, SearchOptions{}); err != nil {
		t.Fatal(err)
	}
	if snap := loaded.Metrics().Snapshot(); snap.RecallSamples != 0 {
		t.Fatalf("loaded index sampled recall: %+v", snap)
	}
}

func TestStructuredLogging(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	rng := rand.New(rand.NewSource(907))
	x := skewedData(rng, 1200, 24, 1.2)
	ix, err := Build(x, x, Config{NumSubspaces: 8, Budget: 48, Seed: 907, TIClusters: 30, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	extra := vec.NewMatrix(4, x.Cols)
	if _, err := ix.Add(extra); err != nil {
		t.Fatal(err)
	}
	var ser bytes.Buffer
	if _, err := ix.WriteTo(&ser); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLogged(bytes.NewReader(ser.Bytes()), logger); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"vaq.build", "vaq.add", "vaq.serialize", "vaq.read", "layout_build="} {
		if !strings.Contains(out, want) {
			t.Errorf("log output missing %q:\n%s", want, out)
		}
	}
	// No logger: all paths stay silent and alive (Build above logs, the
	// default must not).
	quiet, err := Build(x, x, Config{NumSubspaces: 8, Budget: 48, Seed: 907, TIClusters: 30})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := quiet.Add(extra); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentTracedSearches keeps the race job honest: many goroutines
// search one traced index (ring appends, reservoir mutation, metrics folds
// and shadow recall sampling all active) while readers drain the tracer.
func TestConcurrentTracedSearches(t *testing.T) {
	ix, x := observeTestIndex(t, Config{NumSubspaces: 8, Budget: 48, Seed: 907, TIClusters: 30, RecallSampleRate: 0.25})
	tr := ix.EnableTracing(trace.Config{RingSize: 16, SlowThreshold: 1})
	const workers, perWorker = 8, 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := ix.NewSearcher()
			for i := 0; i < perWorker; i++ {
				if _, err := s.Search(x.Row((w*perWorker+i)%x.Rows), 5, SearchOptions{}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				tr.Recent()
				tr.Slowest()
				ix.Metrics().Snapshot()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	wg.Wait()
	close(done)
	if tr.Count() != workers*perWorker {
		t.Fatalf("traced %d, want %d", tr.Count(), workers*perWorker)
	}
	snap := ix.Metrics().Snapshot()
	if snap.Queries != workers*perWorker {
		t.Fatalf("recorded %d queries, want %d", snap.Queries, workers*perWorker)
	}
	if snap.RecallSamples != workers*perWorker/4 {
		t.Fatalf("recall samples %d, want %d", snap.RecallSamples, workers*perWorker/4)
	}
}
