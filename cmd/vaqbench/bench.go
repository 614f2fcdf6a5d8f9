package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"vaq/internal/bundle"
	"vaq/internal/core"
	"vaq/internal/dataset"
	"vaq/internal/diag"
	"vaq/internal/eval"
	"vaq/internal/history"
	"vaq/internal/metrics"
	"vaq/internal/shard"
	"vaq/internal/vec"
)

// benchParams configures the machine-readable search benchmark
// (vaqbench -json).
type benchParams struct {
	Dataset   string  `json:"dataset"`
	N         int     `json:"n"`
	NQ        int     `json:"nq"`
	Seed      int64   `json:"seed"`
	Subspaces int     `json:"subspaces"`
	Budget    int     `json:"budget"`
	MaxBits   int     `json:"max_bits,omitempty"`
	K         int     `json:"k"`
	VisitFrac float64 `json:"visit_frac"`
	Workers   int     `json:"workers"`
	Passes    int     `json:"passes"`
	// Layout is "blocked" on every measured arm (the -layout flag's "int"
	// and "all" name arm sets, not layouts); it stays in params so config
	// fingerprints match the committed baselines.
	Layout string `json:"layout"`
	// Accuracy is the scan arithmetic: "" or "exact" for the float kernels,
	// "fast" for the integer fast-scan kernel. omitempty keeps every
	// exact-mode fingerprint identical to pre-int-kernel summaries.
	Accuracy string `json:"accuracy,omitempty"`
	// RecallRate enables the online recall estimator during the timed
	// passes, so the summary's ObservedRecall is populated and -compare can
	// diff answer quality. omitempty keeps the config fingerprint of
	// recall-free runs identical to older summaries.
	RecallRate float64 `json:"recall_sample,omitempty"`
	// Shards marks a sharded scatter-gather arm (-shards): the dataset is
	// partitioned across this many indexes sharing one trained model.
	// omitempty keeps unsharded fingerprints identical to older summaries.
	Shards int `json:"shards,omitempty"`
}

// parseAccuracy maps the accuracy param to a core.AccuracyMode.
func parseAccuracy(name string) (core.AccuracyMode, error) {
	switch name {
	case "", "exact":
		return core.AccuracyExact, nil
	case "fast":
		return core.AccuracyFast, nil
	}
	return 0, fmt.Errorf("unknown accuracy %q (exact or fast)", name)
}

// accuracyName normalizes a params accuracy string for comparison ("" and
// "exact" are the same mode).
func accuracyName(a string) string {
	if a == "" {
		return "exact"
	}
	return a
}

// benchProvenance records where a summary came from, so numbers from
// different machines, toolchains or configs are never compared as equals
// (the schema is documented in DESIGN.md §7).
type benchProvenance struct {
	// SchemaVersion is bumped whenever the summary document's shape
	// changes incompatibly.
	SchemaVersion int `json:"schema_version"`
	// GoVersion/GOOS/GOARCH identify the toolchain and platform.
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// GOMAXPROCS and NumCPU pin the parallelism the run had available.
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	// ConfigFingerprint is a short sha256 of the canonical params JSON:
	// two summaries are comparable iff their fingerprints match.
	ConfigFingerprint string `json:"config_fingerprint"`
	// Layout mirrors params.layout.
	Layout string `json:"layout"`
	// Accuracy is the scan arithmetic this run measured ("" = exact).
	Accuracy string `json:"accuracy,omitempty"`
	// SearchWorkers is the resolved worker-pool width this arm actually
	// ran with (the -workers flag with 0 resolved to GOMAXPROCS; sharded
	// arms run one outer stream and scatter internally). Recorded here —
	// not in params — so the config fingerprint no longer bakes in the
	// machine's GOMAXPROCS and stays comparable across machines.
	SearchWorkers int `json:"search_workers,omitempty"`
	// Shards is the shard count of a sharded arm (0 = unsharded).
	Shards int `json:"shards,omitempty"`
	// Caveats flag conditions that make this arm's numbers
	// non-representative — e.g. a sharded arm measured with one CPU, where
	// the scatter serializes and QPS ratios vs the unsharded arm say
	// nothing about real multi-core speedup.
	Caveats []string `json:"caveats,omitempty"`
	// FlightRecorder marks an arm measured with an armed (but idle) flight
	// recorder (-flight-recorder). Runtime-only — it lives here, not in
	// params, so the config fingerprint stays comparable with unarmed runs;
	// the point of the flag is showing armed-idle is within noise.
	FlightRecorder bool `json:"flight_recorder,omitempty"`
	// History marks an arm measured with an armed metrics history collector
	// (-history). Runtime-only for the same reason: the sampler reads
	// telemetry off the query path, so summaries with and without it share
	// a config fingerprint and stay -compare-able.
	History bool `json:"history,omitempty"`
}

// benchSchemaVersion tracks the benchSummary document shape.
// v3: params.workers stays as-given (0 = auto) instead of baking in the
// machine's GOMAXPROCS; the resolved width moved to
// provenance.search_workers, and sharded arms add params.shards,
// provenance.shards and search.recall_at_k.
const benchSchemaVersion = 3

// provenanceFor stamps the environment and the params fingerprint.
func provenanceFor(p benchParams) benchProvenance {
	canonical, _ := json.Marshal(p) // struct marshal: cannot fail
	sum := sha256.Sum256(canonical)
	return benchProvenance{
		SchemaVersion:     benchSchemaVersion,
		GoVersion:         runtime.Version(),
		GOOS:              runtime.GOOS,
		GOARCH:            runtime.GOARCH,
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		NumCPU:            runtime.NumCPU(),
		ConfigFingerprint: hex.EncodeToString(sum[:8]),
		Layout:            p.Layout,
		Accuracy:          p.Accuracy,
		FlightRecorder:    armFlightRecorder,
		History:           armHistory,
	}
}

// armFlightRecorder is the -flight-recorder flag: arm an idle recorder on
// every benchmark arm. Deliberately not part of benchParams (it cannot
// change what a query returns), so summaries with and without it share a
// config fingerprint and stay -compare-able.
var armFlightRecorder bool

// armFlight arms a flight recorder writing into a throwaway temp
// directory on one benchmark arm's index; the returned cleanup disarms it
// and removes the directory. No alerts are configured in bench arms, so
// the recorder stays idle — the measurement is pure armed overhead
// (snapshot ticker plus workload-ring sampling on the query path).
func armFlight(ix interface {
	EnableFlightRecorder(string, bundle.Config) (*bundle.Recorder, error)
	DisableFlightRecorder() error
}, name string) (func(), error) {
	dir, err := os.MkdirTemp("", "vaqbench-bundles-")
	if err != nil {
		return nil, err
	}
	if _, err := ix.EnableFlightRecorder(name, bundle.Config{Dir: dir}); err != nil {
		os.RemoveAll(dir) //nolint:errcheck // best-effort temp cleanup
		return nil, err
	}
	return func() {
		ix.DisableFlightRecorder() //nolint:errcheck // idle recorder: nothing pending
		os.RemoveAll(dir)          //nolint:errcheck // best-effort temp cleanup
	}, nil
}

// armHistory is the -history flag: arm a metrics history collector on
// every benchmark arm. Like armFlightRecorder it is deliberately not part
// of benchParams — the collector samples telemetry off the query path and
// cannot change what a query returns — so summaries with and without it
// share a config fingerprint and stay -compare-able.
var armHistory bool

// armHist arms a history collector at the default production cadence on
// one benchmark arm's index; the returned cleanup disarms it. Bench arms
// configure no SLO, so no burn rules arm — the measurement is pure
// collector-armed overhead (the background sampler reading counters and
// quantiles while the query workload runs).
func armHist(ix interface {
	EnableHistory(string, history.Config) (*history.Collector, error)
	DisableHistory()
}, name string) (func(), error) {
	if _, err := ix.EnableHistory(name, history.Config{}); err != nil {
		return nil, err
	}
	return ix.DisableHistory, nil
}

// benchSummary is the JSON document vaqbench -json emits: everything a
// cross-PR perf tracker needs to plot build cost, throughput, tail
// latency and prune effectiveness over time, plus the provenance needed
// to know which runs are comparable.
type benchSummary struct {
	Params     benchParams         `json:"params"`
	Provenance benchProvenance     `json:"provenance"`
	Build      metrics.BuildReport `json:"build"`
	Search     struct {
		Queries       uint64  `json:"queries"`
		WallSeconds   float64 `json:"wall_seconds"`
		QPS           float64 `json:"qps"`
		LatencyP50Ns  int64   `json:"latency_p50_ns"`
		LatencyP95Ns  int64   `json:"latency_p95_ns"`
		LatencyP99Ns  int64   `json:"latency_p99_ns"`
		LatencyMeanNs int64   `json:"latency_mean_ns"`
		TIPruneRate   float64 `json:"ti_prune_rate"`
		EAAbandonRate float64 `json:"ea_abandon_rate"`
		// RecallAtK is recall@k against brute-force ground truth in the
		// raw space, measured on one extra untimed pass. Only computed
		// when the run has sharded arms to compare against (-shards), so
		// plain runs keep their old cost.
		RecallAtK float64 `json:"recall_at_k,omitempty"`
	} `json:"search"`
	Metrics metrics.Snapshot `json:"metrics"`
	// Report is the index-quality IndexReport (-report flag): quantization
	// distortion, codeword utilization and TI balance alongside the perf
	// numbers, so a perf tracker can correlate throughput with quality.
	Report *diag.Report `json:"report,omitempty"`
	// ShardBreakdown is the per-shard block of a sharded arm (nil on
	// unsharded arms): each shard's size, query counters and latency
	// summary plus the merged critical-path/hit attribution — the same
	// document /debug/vaq/shards serves live.
	ShardBreakdown *shard.ShardsReport `json:"shard_breakdown,omitempty"`
}

// layoutComparison is the JSON document emitted by -layout all: the same
// workload measured once per arm, plus the headline ratio the perf tracker
// watches (the integer kernel's throughput over exact). Documents written
// while a row-major arm existed also carry "rowmajor" and
// "tiea_qps_speedup"; -compare reads only the blocked arm, so they stay
// comparable.
type layoutComparison struct {
	Blocked *benchSummary `json:"blocked"`
	// BlockedInt is the integer fast kernel's arm (accuracy "fast").
	BlockedInt        *benchSummary `json:"blocked_int,omitempty"`
	IntTIEAQPSSpeedup float64       `json:"int_tiea_qps_speedup,omitempty"`
	// Sharded holds the scatter-gather arms (-shards): one per requested
	// shard count and accuracy mode, each stamped with its QPS ratio over
	// the blocked exact baseline arm.
	Sharded []*shardedArm `json:"sharded,omitempty"`
}

// shardedArm is one sharded measurement plus its headline ratio. The
// summary is embedded by value, not pointer: encoding/json can marshal an
// embedded pointer to an unexported struct but refuses to unmarshal one
// ("cannot set embedded pointer to unexported struct"), which would make
// -compare reject every committed document with sharded arms.
type shardedArm struct {
	benchSummary
	// QPSSpeedupVsBlocked is this arm's throughput over the unsharded
	// blocked arm of the same accuracy mode on the same workload, so the
	// ratio isolates scatter-gather parallelism from kernel arithmetic.
	QPSSpeedupVsBlocked float64 `json:"qps_speedup_vs_blocked"`
}

// runJSONBench builds an index over a synthetic dataset, drives the query
// workload through a worker pool of reusable Searchers, and writes the
// summary to path ("-" for stdout). With -layout all it measures the
// exact and the integer kernel on the same workload; with -shards,
// additional scatter-gather arms run after those two, each compared
// against the unsharded arm of its accuracy mode on both throughput and
// brute-force recall@k.
func runJSONBench(path string, p benchParams, withReport bool, shardCounts []int) error {
	switch p.Layout {
	case "", "blocked", "int", "all":
	default:
		return fmt.Errorf("unknown layout %q (blocked, int or all)", p.Layout)
	}
	ds, err := dataset.Large(p.Dataset, p.N, p.NQ, p.Seed)
	if err != nil {
		return err
	}
	if len(shardCounts) > 0 && p.Layout != "all" {
		return fmt.Errorf("-shards needs -layout all (the sharded arms compare against the unsharded arms)")
	}
	if p.Layout == "all" {
		if accuracyName(p.Accuracy) != "exact" {
			return fmt.Errorf("-layout all runs its own accuracy arms; drop -accuracy")
		}
		// Ground truth is only needed when sharded arms will compare
		// recall; the plain two-arm run keeps its old cost.
		var gt [][]int
		if len(shardCounts) > 0 {
			gt, err = eval.GroundTruth(ds.Base, ds.Queries, p.K)
			if err != nil {
				return err
			}
		}
		pb := p
		pb.Layout = "blocked"
		blocked, err := runBenchOnce(ds, pb, withReport, gt)
		if err != nil {
			return err
		}
		pi := pb
		pi.Accuracy = "fast"
		blockedInt, err := runBenchOnce(ds, pi, withReport, gt)
		if err != nil {
			return err
		}
		cmp := layoutComparison{
			Blocked:           blocked,
			BlockedInt:        blockedInt,
			IntTIEAQPSSpeedup: blockedInt.Search.QPS / blocked.Search.QPS,
		}
		line := fmt.Sprintf("blocked %.0f qps, int %.0f qps (%.2fx over blocked)",
			blocked.Search.QPS, blockedInt.Search.QPS, cmp.IntTIEAQPSSpeedup)
		if r := blockedInt.Metrics.ObservedRecall(); blockedInt.Metrics.RecallSamples > 0 {
			line += fmt.Sprintf(", int recall %.3f", r)
		}
		for _, s := range shardCounts {
			for _, acc := range []string{"", "fast"} {
				ps := pb
				ps.Accuracy, ps.Shards = acc, s
				arm, err := runShardedOnce(ds, ps, withReport, gt)
				if err != nil {
					return err
				}
				base := blocked
				if acc == "fast" {
					base = blockedInt
				}
				cmp.Sharded = append(cmp.Sharded, &shardedArm{
					benchSummary:        *arm,
					QPSSpeedupVsBlocked: arm.Search.QPS / base.Search.QPS,
				})
				line += fmt.Sprintf(", S=%d %s %.0f qps (%.2fx, recall %.3f)",
					s, accuracyName(acc), arm.Search.QPS,
					arm.Search.QPS/base.Search.QPS, arm.Search.RecallAtK)
			}
		}
		if len(cmp.Sharded) > 0 && len(cmp.Sharded[0].Provenance.Caveats) > 0 {
			line += " [caveat: single-core run, sharded ratios not representative]"
		}
		return writeJSONDoc(path, cmp, line)
	}
	if p.Layout == "int" {
		// Shorthand for the integer arm alone.
		p.Layout, p.Accuracy = "blocked", "fast"
	}
	sum, err := runBenchOnce(ds, p, withReport, nil)
	if err != nil {
		return err
	}
	line := fmt.Sprintf("%.0f qps, p50 %s, p95 %s, p99 %s, TI prune %.1f%%, EA abandon %.1f%%",
		sum.Search.QPS,
		time.Duration(sum.Search.LatencyP50Ns),
		time.Duration(sum.Search.LatencyP95Ns),
		time.Duration(sum.Search.LatencyP99Ns),
		100*sum.Search.TIPruneRate, 100*sum.Search.EAAbandonRate)
	return writeJSONDoc(path, sum, line)
}

// runBenchOnce builds one index at p's accuracy mode and measures the query
// workload against it. A non-nil gt adds one untimed pass measuring
// recall@k against brute-force ground truth.
func runBenchOnce(ds *dataset.Dataset, p benchParams, withReport bool, gt [][]int) (*benchSummary, error) {
	accuracy, err := parseAccuracy(p.Accuracy)
	if err != nil {
		return nil, err
	}
	ix, err := core.Build(ds.Train, ds.Base, core.Config{
		NumSubspaces:     p.Subspaces,
		Budget:           p.Budget,
		MaxBits:          p.MaxBits,
		Seed:             p.Seed,
		AccuracyMode:     accuracy,
		RecallSampleRate: p.RecallRate,
	})
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	metrics.Publish("vaqbench_index", ix.Metrics())
	if armFlightRecorder {
		cleanup, err := armFlight(ix, "vaqbench_index")
		if err != nil {
			return nil, err
		}
		defer cleanup()
	}
	if armHistory {
		cleanup, err := armHist(ix, "vaqbench_index")
		if err != nil {
			return nil, err
		}
		defer cleanup()
	}

	// Resolve the pool width without writing it back into p: params keep
	// the flag as given (0 = auto) so the config fingerprint stays
	// machine-independent; the resolved width lands in provenance.
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if p.Passes < 1 {
		p.Passes = 1
	}
	opt := core.SearchOptions{Mode: core.ModeTIEA, VisitFrac: p.VisitFrac}
	nq := ds.Queries.Rows
	qz, err := projectQueries(ix, ds)
	if err != nil {
		return nil, err
	}

	// Warmup pass (dictionary LUT allocation, page faults), then reset so
	// the summary reflects steady state only.
	runPool(ix, qz, p.K, opt, workers)
	ix.Metrics().Reset()

	start := time.Now()
	for pass := 0; pass < p.Passes; pass++ {
		runPool(ix, qz, p.K, opt, workers)
	}
	wall := time.Since(start)

	sum := &benchSummary{}
	sum.Params = p
	sum.Provenance = provenanceFor(p)
	sum.Provenance.SearchWorkers = workers
	sum.Build = ix.BuildReport()
	sum.Metrics = ix.Metrics().Snapshot()
	sum.Search.Queries = sum.Metrics.Queries
	sum.Search.WallSeconds = wall.Seconds()
	sum.Search.QPS = float64(p.Passes*nq) / wall.Seconds()
	sum.Search.LatencyP50Ns = int64(sum.Metrics.Latency.Quantile(0.50))
	sum.Search.LatencyP95Ns = int64(sum.Metrics.Latency.Quantile(0.95))
	sum.Search.LatencyP99Ns = int64(sum.Metrics.Latency.Quantile(0.99))
	sum.Search.LatencyMeanNs = int64(sum.Metrics.Latency.Mean())
	sum.Search.TIPruneRate = sum.Metrics.TIPruneRate()
	sum.Search.EAAbandonRate = sum.Metrics.EAAbandonRate()
	if gt != nil {
		s := ix.NewSearcher()
		sum.Search.RecallAtK, err = measureRecall(func(qi int) ([]vec.Neighbor, error) {
			return s.SearchProjected(qz[qi], p.K, opt)
		}, nq, gt, p.K)
		if err != nil {
			return nil, err
		}
	}
	if withReport {
		sum.Report = ix.Diagnose()
	}
	return sum, nil
}

// runShardedOnce builds a sharded scatter-gather index sharing one
// trained model across p.Shards partitions and measures the same query
// workload as a single outer stream: every query's latency includes the
// scatter, the per-shard scans (bounded internal worker pool, running
// global k-th distance fed back as a cross-shard threshold) and the
// deterministic merge.
func runShardedOnce(ds *dataset.Dataset, p benchParams, withReport bool, gt [][]int) (*benchSummary, error) {
	accuracy, err := parseAccuracy(p.Accuracy)
	if err != nil {
		return nil, err
	}
	buildStart := time.Now()
	x, err := shard.Build(ds.Train, ds.Base, core.Config{
		NumSubspaces:     p.Subspaces,
		Budget:           p.Budget,
		MaxBits:          p.MaxBits,
		Seed:             p.Seed,
		AccuracyMode:     accuracy,
		RecallSampleRate: p.RecallRate,
	}, shard.Options{Shards: p.Shards})
	if err != nil {
		return nil, fmt.Errorf("sharded build (S=%d): %w", p.Shards, err)
	}
	buildWall := time.Since(buildStart)
	if armFlightRecorder {
		cleanup, err := armFlight(x, "vaqbench_index")
		if err != nil {
			return nil, err
		}
		defer cleanup()
	}
	if armHistory {
		cleanup, err := armHist(x, "vaqbench_index")
		if err != nil {
			return nil, err
		}
		defer cleanup()
	}

	if p.Passes < 1 {
		p.Passes = 1
	}
	opt := core.SearchOptions{Mode: core.ModeTIEA, VisitFrac: p.VisitFrac}
	nq := ds.Queries.Rows
	qz := make([][]float32, nq)
	for qi := range qz {
		z, err := x.Shard(0).ProjectQuery(ds.Queries.Row(qi))
		if err != nil {
			return nil, fmt.Errorf("project query %d: %w", qi, err)
		}
		qz[qi] = z
	}

	runShardedPass := func() error {
		for qi := range qz {
			if _, err := x.SearchProjected(qz[qi], p.K, opt); err != nil {
				return fmt.Errorf("sharded query %d: %v", qi, err)
			}
		}
		return nil
	}
	if err := runShardedPass(); err != nil { // warmup
		return nil, err
	}
	x.Metrics().Reset()
	for i := 0; i < x.Shards(); i++ {
		// The per-shard registries feed the shard breakdown block; reset
		// them with the merged one so both reflect steady state only.
		x.Shard(i).Metrics().Reset()
	}

	start := time.Now()
	for pass := 0; pass < p.Passes; pass++ {
		if err := runShardedPass(); err != nil {
			return nil, err
		}
	}
	wall := time.Since(start)

	sum := &benchSummary{}
	sum.Params = p
	sum.Provenance = provenanceFor(p)
	// One outer stream: all parallelism is the internal scatter.
	sum.Provenance.SearchWorkers = 1
	sum.Provenance.Shards = x.Shards()
	if runtime.NumCPU() == 1 || runtime.GOMAXPROCS(0) == 1 {
		sum.Provenance.Caveats = append(sum.Provenance.Caveats,
			"single-core run: the per-query scatter serializes, so sharded QPS "+
				"ratios vs unsharded arms measure coordination overhead, not "+
				"scatter-gather speedup")
	}
	// Shard 0's per-phase timings with Total replaced by the observed
	// end-to-end wall, so Total < sum-of-shard-encodes measures the
	// parallel-build speedup.
	sum.Build = x.BuildReports()[0]
	sum.Build.Total = buildWall
	sum.Metrics = x.Metrics().Snapshot()
	sum.Search.Queries = sum.Metrics.Queries
	sum.Search.WallSeconds = wall.Seconds()
	sum.Search.QPS = float64(p.Passes*nq) / wall.Seconds()
	sum.Search.LatencyP50Ns = int64(sum.Metrics.Latency.Quantile(0.50))
	sum.Search.LatencyP95Ns = int64(sum.Metrics.Latency.Quantile(0.95))
	sum.Search.LatencyP99Ns = int64(sum.Metrics.Latency.Quantile(0.99))
	sum.Search.LatencyMeanNs = int64(sum.Metrics.Latency.Mean())
	sum.Search.TIPruneRate = sum.Metrics.TIPruneRate()
	sum.Search.EAAbandonRate = sum.Metrics.EAAbandonRate()
	if gt != nil {
		sum.Search.RecallAtK, err = measureRecall(func(qi int) ([]vec.Neighbor, error) {
			return x.SearchProjected(qz[qi], p.K, opt)
		}, nq, gt, p.K)
		if err != nil {
			return nil, err
		}
	}
	if withReport {
		sum.Report = x.Diagnose()[0]
	}
	sum.ShardBreakdown = x.Report()
	return sum, nil
}

// measureRecall runs every query once through search and scores the
// returned ids against brute-force ground truth.
func measureRecall(search func(qi int) ([]vec.Neighbor, error), nq int, gt [][]int, k int) (float64, error) {
	results := make([][]int, nq)
	for qi := 0; qi < nq; qi++ {
		res, err := search(qi)
		if err != nil {
			return 0, fmt.Errorf("recall query %d: %w", qi, err)
		}
		results[qi] = eval.IDs(res)
	}
	return eval.Recall(results, gt, k), nil
}

// writeJSONDoc marshals doc to path ("-" for stdout) and prints the
// one-line human summary when writing to a file.
func writeJSONDoc(path string, doc any, line string) error {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(b)
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %s\n", path, line)
	return nil
}

// projectQueries rotates the whole query set into the index's PCA space
// once, so the timed passes measure the index scan path — the thing the
// summary's latency percentiles already cover (RecordSearch starts after
// projection).
func projectQueries(ix *core.Index, ds *dataset.Dataset) ([][]float32, error) {
	qz := make([][]float32, ds.Queries.Rows)
	for qi := range qz {
		z, err := ix.ProjectQuery(ds.Queries.Row(qi))
		if err != nil {
			return nil, fmt.Errorf("project query %d: %w", qi, err)
		}
		qz[qi] = z
	}
	return qz, nil
}

// runPool runs every projected query once across workers reusable
// Searchers.
func runPool(ix *core.Index, qz [][]float32, k int, opt core.SearchOptions, workers int) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := ix.NewSearcher()
			for qi := range next {
				if _, err := s.SearchProjected(qz[qi], k, opt); err != nil {
					fmt.Fprintf(os.Stderr, "vaqbench: query %d: %v\n", qi, err)
				}
			}
		}()
	}
	for qi := range qz {
		next <- qi
	}
	close(next)
	wg.Wait()
}
