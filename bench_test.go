package vaq

// Benchmark harness: one testing.B benchmark per paper table/figure (each
// iteration regenerates the experiment at a reduced scale and discards the
// textual output), plus micro-benchmarks for the hot paths (encoding, the
// three scan modes, lookup-table construction).
//
// Regenerate a figure's actual rows with cmd/vaqbench, e.g.:
//
//	go run ./cmd/vaqbench -exp fig7
//
// Run the benches with:
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"vaq/internal/core"
	"vaq/internal/dataset"
	"vaq/internal/experiments"
	"vaq/internal/history"
	"vaq/internal/workload"
)

// benchScale keeps every figure bench to seconds per iteration.
var benchScale = experiments.Scale{N: 1500, NQ: 8, GalleryCount: 8, GalleryTrain: 250, Seed: 7}

func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Run(io.Discard, benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1QuantizationComparison(b *testing.B) { benchExperiment(b, "fig1") }
func BenchmarkFig3VarianceSpectra(b *testing.B)        { benchExperiment(b, "fig3") }
func BenchmarkFig4SubspaceOmission(b *testing.B)       { benchExperiment(b, "fig4") }
func BenchmarkFig6AccuracyRuntime(b *testing.B)        { benchExperiment(b, "fig6") }
func BenchmarkFig7PruningAblation(b *testing.B)        { benchExperiment(b, "fig7") }
func BenchmarkFig8HardwareAccelerated(b *testing.B)    { benchExperiment(b, "fig8") }
func BenchmarkFig9SubspaceBitAblation(b *testing.B)    { benchExperiment(b, "fig9") }
func BenchmarkTab1SpecMatrix(b *testing.B)             { benchExperiment(b, "tab1") }
func BenchmarkTab2GalleryAverages(b *testing.B)        { benchExperiment(b, "tab2") }
func BenchmarkFig10StatisticalRanking(b *testing.B)    { benchExperiment(b, "fig10") }
func BenchmarkFig11TreeIndexComparison(b *testing.B)   { benchExperiment(b, "fig11") }
func BenchmarkFig12HNSWComparison(b *testing.B)        { benchExperiment(b, "fig12") }
func BenchmarkAblationAllocStrategies(b *testing.B)    { benchExperiment(b, "ablation-alloc") }
func BenchmarkAblationTIVisitFraction(b *testing.B)    { benchExperiment(b, "ablation-ti") }
func BenchmarkScaleSweep(b *testing.B)                 { benchExperiment(b, "scale") }
func BenchmarkExtraBaselines(b *testing.B)             { benchExperiment(b, "extra-baselines") }

// --- micro-benchmarks -----------------------------------------------------

func benchIndex(b *testing.B, n, d, segs, budget int) (*core.Index, *dataset.Dataset) {
	b.Helper()
	ds, err := dataset.Large("SALD", n, 16, 7)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := core.Build(ds.Train, ds.Base, core.Config{
		NumSubspaces: segs, Budget: budget, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	return ix, ds
}

// BenchmarkBuild measures full index construction (PCA + allocation +
// dictionary training + encoding + TI clustering).
func BenchmarkBuild(b *testing.B) {
	ds, err := dataset.Large("SALD", 4000, 4, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(ds.Train, ds.Base, core.Config{
			NumSubspaces: 16, Budget: 128, Seed: 7,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// The three scan modes on the same index: the Figure 7 cascade as a
// micro-benchmark.
func benchSearchMode(b *testing.B, mode core.SearchMode, frac float64) {
	ix, ds := benchIndex(b, 20000, 128, 32, 256)
	s := ix.NewSearcher()
	queries := ds.Queries
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries.Row(i % queries.Rows)
		if _, err := s.Search(q, 100, core.SearchOptions{Mode: mode, VisitFrac: frac}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchHeap(b *testing.B)   { benchSearchMode(b, core.ModeHeap, 0) }
func BenchmarkSearchEA(b *testing.B)     { benchSearchMode(b, core.ModeEA, 0) }
func BenchmarkSearchTIEA25(b *testing.B) { benchSearchMode(b, core.ModeTIEA, 0.25) }
func BenchmarkSearchTIEA10(b *testing.B) { benchSearchMode(b, core.ModeTIEA, 0.10) }

// --- scan-kernel pairs ---------------------------------------------------
//
// Same index content, same queries, same mode — only the scan arithmetic
// differs (the exact float kernels over the blocked store, or the integer
// fast-scan kernel). Compare with:
//
//	GOMAXPROCS=1 go test -bench='ScanLayout' -count=10 | benchstat

var scanLayoutBenchCache = map[core.AccuracyMode]*core.Index{}
var scanLayoutBenchData *dataset.Dataset

func scanLayoutBenchIndex(b *testing.B, accuracy core.AccuracyMode) (*core.Index, *dataset.Dataset) {
	b.Helper()
	// 100k codes x 32 subspaces spill any private cache level: the scan
	// then pays its real miss rate, not just its instruction mix.
	if scanLayoutBenchData == nil {
		ds, err := dataset.Large("SALD", 100000, 16, 7)
		if err != nil {
			b.Fatal(err)
		}
		scanLayoutBenchData = ds
	}
	ds := scanLayoutBenchData
	if ix, ok := scanLayoutBenchCache[accuracy]; ok {
		return ix, ds
	}
	// Train on a sample: the pair compares scan throughput, and a smaller
	// training set keeps the one-time build out of the measured budget.
	ix, err := core.Build(ds.Train.SliceRows(0, 4000), ds.Base, core.Config{
		NumSubspaces: 32, Budget: 256, Seed: 7, AccuracyMode: accuracy,
	})
	if err != nil {
		b.Fatal(err)
	}
	scanLayoutBenchCache[accuracy] = ix
	return ix, ds
}

func benchScanLayout(b *testing.B, accuracy core.AccuracyMode, mode core.SearchMode, frac float64) {
	ix, ds := scanLayoutBenchIndex(b, accuracy)
	s := ix.NewSearcher()
	// Pre-project the queries: rotation cost is identical in either mode,
	// so the pair isolates LUT construction + scan.
	projected := make([][]float32, ds.Queries.Rows)
	for i := range projected {
		qz, err := ix.ProjectQuery(ds.Queries.Row(i))
		if err != nil {
			b.Fatal(err)
		}
		projected[i] = qz
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qz := projected[i%len(projected)]
		if _, err := s.SearchProjected(qz, 100, core.SearchOptions{Mode: mode, VisitFrac: frac}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanLayoutTIEABlocked(b *testing.B) {
	benchScanLayout(b, core.AccuracyExact, core.ModeTIEA, 0.25)
}
func BenchmarkScanLayoutHeapBlocked(b *testing.B) {
	benchScanLayout(b, core.AccuracyExact, core.ModeHeap, 0)
}

// The Fast pair runs the integer kernel (uint8 LUTs, packed 4-bit codes
// where dictionaries allow) on the same index content. These are NOT
// bit-identical to their exact twins — TestFastKernelRecallAgainstExact
// bounds the answer drift — so compare throughput only.
func BenchmarkScanLayoutTIEAFast(b *testing.B) {
	benchScanLayout(b, core.AccuracyFast, core.ModeTIEA, 0.25)
}
func BenchmarkScanLayoutHeapFast(b *testing.B) {
	benchScanLayout(b, core.AccuracyFast, core.ModeHeap, 0)
}

// BenchmarkSearchMetricsOn/Off isolate the hot-path cost of the
// index-wide telemetry registry (two time.Now calls plus a handful of
// atomic adds per query). Compare with:
//
//	go test -bench='SearchMetrics(On|Off)' -count=10 | benchstat
//
// The delta is the observability tax; the acceptance bar is <2%.
func benchMetricsToggle(b *testing.B, disable bool) {
	// Kept small enough that -count=10 runs rebuild the index in seconds:
	// the measurement is a relative delta, not an absolute throughput.
	ds, err := dataset.Large("SALD", 8000, 64, 7)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := core.Build(ds.Train, ds.Base, core.Config{
		NumSubspaces: 16, Budget: 128, Seed: 7, DisableMetrics: disable,
	})
	if err != nil {
		b.Fatal(err)
	}
	s := ix.NewSearcher()
	queries := ds.Queries
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries.Row(i % queries.Rows)
		if _, err := s.Search(q, 100, core.SearchOptions{Mode: core.ModeTIEA, VisitFrac: 0.25}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchMetricsOn(b *testing.B)  { benchMetricsToggle(b, false) }
func BenchmarkSearchMetricsOff(b *testing.B) { benchMetricsToggle(b, true) }

// BenchmarkSearchCaptureOn measures the workload-capture tax at the
// production sampling rate (1/64): one atomic increment per query plus a
// record copy on sampled ones. Compare against BenchmarkSearchMetricsOn
// (same workload, capture off); the acceptance bar is <5% overhead.
func BenchmarkSearchCaptureOn(b *testing.B) {
	ds, err := dataset.Large("SALD", 8000, 64, 7)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := core.Build(ds.Train, ds.Base, core.Config{
		NumSubspaces: 16, Budget: 128, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	ix.EnableCapture(workload.Config{SampleRate: 1.0 / 64})
	s := ix.NewSearcher()
	queries := ds.Queries
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries.Row(i % queries.Rows)
		if _, err := s.Search(q, 100, core.SearchOptions{Mode: core.ModeTIEA, VisitFrac: 0.25}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchHistoryOn/Off isolate the query-path cost of an armed
// metrics history collector. The sampler runs on its own goroutine and
// reads the same atomics the Prometheus scraper does, so the query path
// itself gains nothing — the On arm must stay within noise of Off; the
// acceptance bar is the same <5% used for the flight recorder.
func benchHistoryToggle(b *testing.B, armed bool) {
	ds, err := dataset.Large("SALD", 8000, 64, 7)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := core.Build(ds.Train, ds.Base, core.Config{
		NumSubspaces: 16, Budget: 128, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	if armed {
		// An aggressive 10ms cadence (100x the production default) so the
		// measured overhead bounds any real deployment.
		if _, err := ix.EnableHistory("bench_index", history.Config{Interval: 10 * time.Millisecond}); err != nil {
			b.Fatal(err)
		}
		defer ix.DisableHistory()
	}
	s := ix.NewSearcher()
	queries := ds.Queries
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries.Row(i % queries.Rows)
		if _, err := s.Search(q, 100, core.SearchOptions{Mode: core.ModeTIEA, VisitFrac: 0.25}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchHistoryOn(b *testing.B)  { benchHistoryToggle(b, true) }
func BenchmarkSearchHistoryOff(b *testing.B) { benchHistoryToggle(b, false) }

// BenchmarkEncodeLargeDict exercises the hierarchical k-means path for
// dictionaries above 2^10 entries (DESIGN.md §5).
func BenchmarkEncodeLargeDict(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	data := dataset.RandomWalk(rng, 6000, 64, 0.7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(data, data, core.Config{
			NumSubspaces: 4, Budget: 44, MinBits: 8, MaxBits: 12, Seed: 7,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPublicAPISearch measures the user-facing Search path including
// result conversion.
func BenchmarkPublicAPISearch(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	raw := dataset.RandomWalk(rng, 10000, 64, 0.6)
	rows := make([][]float32, raw.Rows)
	for i := range rows {
		rows[i] = raw.Row(i)
	}
	ix, err := Build(rows, Config{NumSubspaces: 16, Budget: 128, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	q := rows[123]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Search(q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocationMILP isolates the bit-allocation solver.
func BenchmarkAllocationMILP(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	data := dataset.RandomWalk(rng, 2000, 128, 0.7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(data.SliceRows(0, 500), data.SliceRows(0, 500), core.Config{
			NumSubspaces: 32, Budget: 256, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleBuild() {
	data := [][]float32{
		{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1},
		{1, 1, 0, 0}, {0, 1, 1, 0}, {0, 0, 1, 1}, {1, 0, 0, 1},
	}
	ix, err := Build(data, Config{NumSubspaces: 2, Budget: 4, Seed: 1})
	if err != nil {
		panic(err)
	}
	res, err := ix.Search([]float32{1, 0, 0, 0}, 1)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(res))
	// Output: 1
}
