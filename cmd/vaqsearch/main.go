// Command vaqsearch builds a VAQ index over a dataset file written by
// cmd/datagen and runs its query workload, reporting accuracy against the
// exact ground truth and the per-query latency.
//
// Usage:
//
//	datagen -name SALD -n 20000 -nq 50 -out sald.vaqd
//	vaqsearch -data sald.vaqd -budget 256 -subspaces 32 -k 100 -visit 0.1
//	vaqsearch -data sald.vaqd -shards 8                      # sharded scatter-gather
//	vaqsearch -data sald.vaqd -metrics-addr localhost:6060   # live expvar/pprof
//	vaqsearch -data sald.vaqd -metrics-addr :6060 -trace -recall-sample 0.1 -hold 5m
//
// With -metrics-addr the debug mux also serves /debug/vaq/metrics
// (Prometheus text), /debug/vaq/report (the index-quality IndexReport,
// recomputed per scrape; ?format=text for a human-readable dump) and,
// with -trace, /debug/vaq/traces (per-query spans; ?format=chrome for a
// chrome://tracing export). With -shards > 1 the per-shard breakdown —
// merged scatter telemetry plus one block per shard — is additionally
// served at /debug/vaq/shards, and -trace files one parent trace per
// query with a wait/scan span pair per shard.
//
// With -bundle-dir the flight recorder is armed: every alert breach edge
// (vaq.drift, vaq.skew, vaq.slo.*, vaq.burn.*) freezes the recent context
// — metrics, windowed history, alert history, traces, a replayable .vaqwl
// of recent queries, the IndexReport — into an incident bundle under that
// directory (inspect with vaqdiag -bundle; /debug/vaq/bundle lists bundles
// and ?trigger=1 writes a manual one). Bundles pending at SIGINT/SIGTERM
// are flushed before exit, like the capture log.
//
// With -history the metrics history collector is armed: per-series tiered
// trend retention served at /debug/vaq/history (JSON and ?format=text
// sparklines, per-shard targets under -shards), and — when an SLO is
// configured — multi-window burn-rate alerting (vaq.burn.latency.fast/slow
// on -burn-fast/-burn-slow windows) in place of the instantaneous
// exhaustion edge. -top with -hold live-renders the trend view in the
// terminal (see also cmd/vaqtop for polling a remote vaqsearch), and
// -churn keeps round-robin queries flowing during the hold so the trends
// and burn windows have live traffic to show.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"vaq/internal/bundle"
	"vaq/internal/core"
	"vaq/internal/dataset"
	"vaq/internal/diag"
	"vaq/internal/eval"
	"vaq/internal/history"
	"vaq/internal/metrics"
	"vaq/internal/shard"
	"vaq/internal/trace"
	"vaq/internal/workload"
)

func main() {
	var (
		dataPath    = flag.String("data", "", "dataset file from cmd/datagen (required)")
		budget      = flag.Int("budget", 256, "bit budget per vector")
		subspaces   = flag.Int("subspaces", 32, "number of subspaces")
		minBits     = flag.Int("minbits", 1, "minimum bits per subspace")
		maxBits     = flag.Int("maxbits", 13, "maximum bits per subspace")
		k           = flag.Int("k", 100, "neighbors per query")
		visit       = flag.Float64("visit", 0.25, "fraction of TI clusters visited")
		nonUnif     = flag.Bool("nonuniform", false, "cluster dimensions into non-uniform subspaces")
		accStr      = flag.String("accuracy", "exact", "scan arithmetic: exact or fast (integer kernel)")
		seed        = flag.Int64("seed", 42, "build seed")
		shards      = flag.Int("shards", 1, "shard count: >1 builds a sharded scatter-gather index (parallel encode, concurrent per-shard search, merged top-k)")
		metricsAddr = flag.String("metrics-addr", "", "serve expvar (/debug/vars), pprof (/debug/pprof/) and /debug/vaq/{metrics,traces} on this address")
		traceOn     = flag.Bool("trace", false, "record per-query spans and publish them at /debug/vaq/traces")
		traceSlow   = flag.Duration("trace-slow", 10*time.Millisecond, "queries at or above this duration enter the slow-exemplar reservoir")
		recallRate  = flag.Float64("recall-sample", 0, "fraction of queries shadow-checked against an exact scan (0 disables)")
		hold        = flag.Duration("hold", 0, "keep the process (and -metrics-addr endpoints) alive this long after the workload (SIGINT/SIGTERM exits early)")
		capturePath = flag.String("capture", "", "record sampled queries to this .vaqwl workload log (replay with cmd/vaqreplay)")
		captureRate = flag.Float64("capture-rate", 1, "fraction of queries captured (deterministic stride; 1 = all)")
		bundleDir   = flag.String("bundle-dir", "", "arm the flight recorder: write an incident bundle under this directory on every alert breach edge (inspect with vaqdiag -bundle, replay with vaqreplay)")
		sloP99      = flag.Duration("slo-p99", 0, "latency SLO: 99% of windowed queries must finish within this duration (0 disables)")
		sloRecall   = flag.Float64("slo-recall", 0, "recall SLO: minimum windowed observed recall (needs -recall-sample; 0 disables)")
		skewAlert   = flag.Float64("skew-alert", 0, "shard-skew alert threshold: fire vaq.skew when the windowed mean skew ratio reaches this (needs -shards > 1; 0 disables)")
		historyOn   = flag.Bool("history", false, "arm the metrics history collector: tiered trend retention served at /debug/vaq/history; with an SLO, multi-window burn-rate alerts (vaq.burn.*) replace the instantaneous exhaustion edge")
		historyInt  = flag.Duration("history-interval", time.Second, "history sampling cadence (needs -history)")
		burnFast    = flag.Duration("burn-fast", 5*time.Minute, "fast burn-rate window (threshold 14.4x the allowed error rate; needs -history and an SLO)")
		burnSlow    = flag.Duration("burn-slow", time.Hour, "slow burn-rate window (threshold 6x the allowed error rate; needs -history and an SLO)")
		topMode     = flag.Bool("top", false, "with -hold: live-render per-index (and per-shard) history trend lines to stdout (implies -history)")
		churn       = flag.Duration("churn", 0, "with -hold: keep issuing round-robin dataset queries at this interval during the hold, so trend series and burn-rate windows see live traffic (0 disables)")
	)
	flag.Parse()
	if *dataPath == "" {
		fmt.Fprintln(os.Stderr, "vaqsearch: -data is required")
		os.Exit(2)
	}
	var accuracy core.AccuracyMode
	switch *accStr {
	case "", "exact":
		accuracy = core.AccuracyExact
	case "fast":
		accuracy = core.AccuracyFast
	default:
		fmt.Fprintf(os.Stderr, "vaqsearch: unknown accuracy %q (exact or fast)\n", *accStr)
		os.Exit(2)
	}
	if *metricsAddr != "" {
		srv, err := metrics.ServeDebug(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vaqsearch: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "vaqsearch: serving metrics on http://%s/debug/vars\n", srv.Addr)
	}
	ds, err := dataset.Load(*dataPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vaqsearch: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("dataset %s: %d vectors, dim %d, %d queries\n",
		ds.Name, ds.Base.Rows, ds.Dim(), ds.Queries.Rows)

	cfg := core.Config{
		NumSubspaces:     *subspaces,
		Budget:           *budget,
		MinBits:          *minBits,
		MaxBits:          *maxBits,
		NonUniform:       *nonUnif,
		Seed:             *seed,
		AccuracyMode:     accuracy,
		RecallSampleRate: *recallRate,
	}
	if *sloP99 > 0 || *sloRecall > 0 {
		cfg.SLO = &metrics.SLO{LatencyTarget: *sloP99, MinRecall: *sloRecall}
	}
	if cfg.SLO != nil || *skewAlert > 0 {
		// Surface the vaq.slo / vaq.skew breach events on stderr (Warn level
		// keeps the build/maintenance Info logs quiet).
		cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	}
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "vaqsearch: -shards must be >= 1, got %d\n", *shards)
		os.Exit(2)
	}
	if *topMode {
		*historyOn = true
	}
	if *shards > 1 {
		runSharded(ds, cfg, shardedRun{
			shards:      *shards,
			k:           *k,
			visit:       *visit,
			hold:        *hold,
			traceOn:     *traceOn,
			traceSlow:   *traceSlow,
			capturePath: *capturePath,
			captureRate: *captureRate,
			skewAlert:   *skewAlert,
			bundleDir:   *bundleDir,
			history:     *historyOn,
			historyInt:  *historyInt,
			burnFast:    *burnFast,
			burnSlow:    *burnSlow,
			top:         *topMode,
			churn:       *churn,
		})
		return
	}
	start := time.Now()
	ix, err := core.Build(ds.Train, ds.Base, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vaqsearch: build: %v\n", err)
		os.Exit(1)
	}
	rep := ix.BuildReport()
	fmt.Printf("built in %.2fs: bits=%v, %d TI clusters, %d code bytes\n",
		time.Since(start).Seconds(), ix.Bits(), ix.TIClusterCount(), ix.CodeBytes())
	fmt.Printf("build phases: pca=%s alloc=%s train=%s encode=%s ti=%s\n",
		rep.PCA.Round(time.Millisecond), rep.Allocation.Round(time.Millisecond),
		rep.Training.Round(time.Millisecond), rep.Encoding.Round(time.Millisecond),
		rep.TIClustering.Round(time.Millisecond))
	metrics.Publish("vaqsearch_index", ix.Metrics())
	diag.Publish("vaqsearch_index", ix.Diagnose)
	drep := ix.Diagnose()
	entries := 0
	for _, sr := range drep.Subspaces {
		entries += sr.Entries
	}
	fmt.Printf("diagnostics: mse_share=%.4f (%s), dead codewords %d/%d, TI gini %.2f, imbalance %.1fx\n",
		drep.MSEShare, drep.MSESource, drep.DeadCodewordsTotal, entries,
		drep.TI.Gini, drep.TI.ImbalanceRatio)
	var tr *trace.Tracer
	if *traceOn {
		tr = ix.EnableTracing(trace.Config{SlowThreshold: *traceSlow})
		trace.Publish("vaqsearch_index", tr)
	}

	// Workload capture, flushed exactly once — on the normal exit path or
	// from the signal handler, whichever comes first, so an interrupted
	// -hold still leaves a replayable log behind.
	var flushOnce sync.Once
	flushCapture := func() {
		if *capturePath == "" {
			return
		}
		flushOnce.Do(func() {
			cap := ix.Capture()
			if cap == nil {
				return
			}
			log := cap.Snapshot()
			if err := log.Save(*capturePath); err != nil {
				fmt.Fprintf(os.Stderr, "vaqsearch: capture: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "vaqsearch: captured %d of %d sampled queries (%d dropped) to %s (fingerprint %s)\n",
				len(log.Records), cap.Sampled(), cap.Dropped(), *capturePath, log.Fingerprint)
		})
	}
	// Flight-recorder shutdown, also exactly once: Close drains pending
	// alert-triggered bundles, so an interrupted -hold still leaves every
	// incident on disk — the same contract as the capture flush.
	var bundleOnce sync.Once
	flushBundle := func() {
		if *bundleDir == "" {
			return
		}
		bundleOnce.Do(func() {
			rec := ix.FlightRecorder()
			if rec == nil {
				return
			}
			if err := rec.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "vaqsearch: bundle: %v\n", err)
			}
			st := rec.Status()
			fmt.Fprintf(os.Stderr, "vaqsearch: flight recorder wrote %d incident bundle(s) under %s\n",
				st.BundlesWritten, st.Dir)
		})
	}
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		fmt.Fprintf(os.Stderr, "vaqsearch: %s — flushing capture and bundles, exiting\n", sig)
		flushCapture()
		flushBundle()
		os.Exit(130)
	}()
	if *capturePath != "" {
		ix.EnableCapture(workload.Config{SampleRate: *captureRate})
	}
	if *bundleDir != "" {
		rec, err := ix.EnableFlightRecorder("vaqsearch_index", bundle.Config{Dir: *bundleDir})
		if err != nil {
			fmt.Fprintf(os.Stderr, "vaqsearch: flight recorder: %v\n", err)
			os.Exit(1)
		}
		bundle.Publish("vaqsearch_index", rec)
		fmt.Fprintf(os.Stderr, "vaqsearch: flight recorder armed — incident bundles under %s\n", *bundleDir)
	}
	var col *history.Collector
	if *historyOn {
		var err error
		col, err = ix.EnableHistory("vaqsearch_index", historyConfig(*historyInt, *burnFast, *burnSlow))
		if err != nil {
			fmt.Fprintf(os.Stderr, "vaqsearch: history: %v\n", err)
			os.Exit(1)
		}
		history.Publish("vaqsearch_index", col)
		fmt.Fprintf(os.Stderr, "vaqsearch: history collector armed (interval %s) — trends at /debug/vaq/history\n", col.Interval())
	}

	gt, err := eval.GroundTruth(ds.Base, ds.Queries, *k)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vaqsearch: ground truth: %v\n", err)
		os.Exit(1)
	}
	searcher := ix.NewSearcher()
	results := make([][]int, ds.Queries.Rows)
	start = time.Now()
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		res, err := searcher.Search(ds.Queries.Row(qi), *k, core.SearchOptions{
			Mode: core.ModeTIEA, VisitFrac: *visit,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "vaqsearch: query %d: %v\n", qi, err)
			os.Exit(1)
		}
		results[qi] = eval.IDs(res)
	}
	elapsed := time.Since(start)
	fmt.Printf("recall@%d = %.4f, MAP@%d = %.4f, avg query %.3fms\n",
		*k, eval.Recall(results, gt, *k),
		*k, eval.MAP(results, gt, *k),
		elapsed.Seconds()/float64(ds.Queries.Rows)*1000)
	snap := ix.Metrics().Snapshot()
	fmt.Printf("metrics: %d queries, p50 %s, p95 %s, p99 %s, TI prune %.1f%%, EA abandon %.1f%%, %d lookups\n",
		snap.Queries,
		snap.Latency.Quantile(0.50).Round(time.Microsecond),
		snap.Latency.Quantile(0.95).Round(time.Microsecond),
		snap.Latency.Quantile(0.99).Round(time.Microsecond),
		100*snap.TIPruneRate(), 100*snap.EAAbandonRate(), snap.Lookups)
	if snap.RecallSamples > 0 {
		fmt.Printf("online recall: %.4f over %d sampled queries\n",
			snap.ObservedRecall(), snap.RecallSamples)
	}
	if slo := snap.SLO; slo != nil {
		status := "ok"
		if slo.LatencyExhausted || slo.RecallExhausted {
			status = "BREACH"
		}
		fmt.Printf("slo: latency budget %.3f remaining (burn %.2f, %d/%d violations), recall budget %.3f — %s\n",
			slo.LatencyBudgetRemaining, slo.BurnRate, slo.LatencyViolations,
			slo.WindowQueries, slo.RecallBudgetRemaining, status)
	}
	if tr != nil {
		if slow, seen := tr.Slowest(); len(slow) > 0 {
			fmt.Printf("slowest traced query (%d over the %s threshold):\n", seen, *traceSlow)
			trace.WriteText(os.Stdout, slow[:1])
		} else {
			fmt.Printf("no query exceeded the %s slow threshold (%d traced)\n",
				*traceSlow, tr.Count())
		}
	}
	flushCapture()
	churnSearcher := ix.NewSearcher()
	stopChurn := startChurn(*churn, *hold, ds, func(q []float32) {
		_, _ = churnSearcher.Search(q, *k, core.SearchOptions{
			Mode: core.ModeTIEA, VisitFrac: *visit,
		})
	})
	holdLoop(*hold, *topMode, col, sigCh)
	stopChurn()
	flushBundle()
}

// startChurn keeps background queries flowing during -hold so windowed
// gauges, trend series and burn-rate confirmation windows see live traffic
// instead of flat counters. The returned stop function joins the traffic
// goroutine; it is a no-op when churn is disabled.
func startChurn(every, hold time.Duration, ds *dataset.Dataset, search func(q []float32)) func() {
	if every <= 0 || hold <= 0 || ds.Queries.Rows == 0 {
		return func() {}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(every)
		defer t.Stop()
		for qi := 0; ; qi++ {
			select {
			case <-stop:
				return
			case <-t.C:
				search(ds.Queries.Row(qi % ds.Queries.Rows))
			}
		}
	}()
	fmt.Fprintf(os.Stderr, "vaqsearch: churn armed — one query per %s during hold\n", every)
	return func() { close(stop); <-done }
}

// historyConfig shapes the vaqsearch collector: the fast/slow burn windows
// keep the default SRE thresholds (14.4x / 6x), only the window lengths
// are tunable from the command line.
func historyConfig(interval, fast, slow time.Duration) history.Config {
	return history.Config{
		Interval: interval,
		Burn: []history.BurnRule{
			{Name: "fast", Window: fast, Threshold: 14.4},
			{Name: "slow", Window: slow, Threshold: 6},
		},
	}
}

// holdLoop keeps the process alive for hold; with -top it additionally
// live-renders the history sparkline view every 2s (the same text the
// /debug/vaq/history?format=text endpoint serves).
func holdLoop(hold time.Duration, top bool, col *history.Collector, sigCh chan os.Signal) {
	if hold <= 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "vaqsearch: holding for %s (ctrl-c to exit)\n", hold)
	deadline := time.After(hold)
	if !top || col == nil {
		select {
		case <-deadline:
		case sig := <-sigCh:
			// The handler goroutine may win the race for the signal; either
			// path flushes once and exits.
			fmt.Fprintf(os.Stderr, "vaqsearch: %s — exiting hold\n", sig)
		}
		return
	}
	tick := time.NewTicker(2 * time.Second)
	defer tick.Stop()
	for {
		select {
		case <-deadline:
			return
		case sig := <-sigCh:
			fmt.Fprintf(os.Stderr, "vaqsearch: %s — exiting hold\n", sig)
			return
		case <-tick.C:
			fmt.Print("\033[2J\033[H") // clear screen, home cursor
			history.RenderText(os.Stdout, col.Dump())
		}
	}
}

// shardedRun bundles the -shards >1 run parameters.
type shardedRun struct {
	shards      int
	k           int
	visit       float64
	hold        time.Duration
	traceOn     bool
	traceSlow   time.Duration
	capturePath string
	captureRate float64
	skewAlert   float64
	bundleDir   string
	history     bool
	historyInt  time.Duration
	burnFast    time.Duration
	burnSlow    time.Duration
	top         bool
	churn       time.Duration
}

// runSharded is the -shards >1 path: build a scatter-gather index sharing
// one trained model, run the query workload as a single outer stream
// (each query fans out to per-shard searchers internally), and report
// accuracy plus the merged end-to-end telemetry, the slowest-shard
// attribution, and (with -trace / -capture) the sharded parent traces and
// a replayable workload log. Per-shard registries and diagnostics are
// published under vaqsearch_index/shard-i; the per-shard breakdown lives
// at /debug/vaq/shards.
func runSharded(ds *dataset.Dataset, cfg core.Config, run shardedRun) {
	start := time.Now()
	x, err := shard.Build(ds.Train, ds.Base, cfg, shard.Options{
		Shards:         run.shards,
		SkewAlertRatio: run.skewAlert,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "vaqsearch: sharded build: %v\n", err)
		os.Exit(1)
	}
	rep := x.BuildReports()[0]
	fmt.Printf("built %d shards in %.2fs (shard sizes %v): bits=%v\n",
		x.Shards(), time.Since(start).Seconds(), x.ShardLens(), x.Shard(0).Bits())
	fmt.Printf("shared training: pca=%s alloc=%s train=%s; shard-0 encode=%s ti=%s\n",
		rep.PCA.Round(time.Millisecond), rep.Allocation.Round(time.Millisecond),
		rep.Training.Round(time.Millisecond), rep.Encoding.Round(time.Millisecond),
		rep.TIClustering.Round(time.Millisecond))
	x.PublishExpvar("vaqsearch_index")
	x.PublishDiagnostics("vaqsearch_index")
	var tr *trace.Tracer
	if run.traceOn {
		tr = x.EnableTracing(trace.Config{SlowThreshold: run.traceSlow})
		trace.Publish("vaqsearch_index", tr)
	}

	// Workload capture, flushed exactly once — on the normal exit path or
	// from the signal handler, whichever comes first, so an interrupted
	// -hold still leaves a replayable log behind.
	var flushOnce sync.Once
	flushCapture := func() {
		if run.capturePath == "" {
			return
		}
		flushOnce.Do(func() {
			cap := x.Capture()
			if cap == nil {
				return
			}
			log := cap.Snapshot()
			if err := log.Save(run.capturePath); err != nil {
				fmt.Fprintf(os.Stderr, "vaqsearch: capture: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "vaqsearch: captured %d of %d sampled queries (%d dropped) to %s (fingerprint %s, %d shards)\n",
				len(log.Records), cap.Sampled(), cap.Dropped(), run.capturePath,
				log.Fingerprint, log.Shards)
		})
	}
	// Flight-recorder shutdown, also exactly once (same contract as the
	// unsharded path: Close drains pending alert-triggered bundles).
	var bundleOnce sync.Once
	flushBundle := func() {
		if run.bundleDir == "" {
			return
		}
		bundleOnce.Do(func() {
			rec := x.FlightRecorder()
			if rec == nil {
				return
			}
			if err := rec.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "vaqsearch: bundle: %v\n", err)
			}
			st := rec.Status()
			fmt.Fprintf(os.Stderr, "vaqsearch: flight recorder wrote %d incident bundle(s) under %s\n",
				st.BundlesWritten, st.Dir)
		})
	}
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		fmt.Fprintf(os.Stderr, "vaqsearch: %s — flushing capture and bundles, exiting\n", sig)
		flushCapture()
		flushBundle()
		os.Exit(130)
	}()
	if run.capturePath != "" {
		x.EnableCapture(workload.Config{SampleRate: run.captureRate})
	}
	if run.bundleDir != "" {
		rec, err := x.EnableFlightRecorder("vaqsearch_index", bundle.Config{Dir: run.bundleDir})
		if err != nil {
			fmt.Fprintf(os.Stderr, "vaqsearch: flight recorder: %v\n", err)
			os.Exit(1)
		}
		bundle.Publish("vaqsearch_index", rec)
		fmt.Fprintf(os.Stderr, "vaqsearch: flight recorder armed — incident bundles under %s\n", run.bundleDir)
	}
	var col *history.Collector
	if run.history {
		var err error
		col, err = x.EnableHistory("vaqsearch_index", historyConfig(run.historyInt, run.burnFast, run.burnSlow))
		if err != nil {
			fmt.Fprintf(os.Stderr, "vaqsearch: history: %v\n", err)
			os.Exit(1)
		}
		history.Publish("vaqsearch_index", col)
		fmt.Fprintf(os.Stderr, "vaqsearch: history collector armed (interval %s, %d targets) — trends at /debug/vaq/history\n",
			col.Interval(), len(col.Targets()))
	}

	gt, err := eval.GroundTruth(ds.Base, ds.Queries, run.k)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vaqsearch: ground truth: %v\n", err)
		os.Exit(1)
	}
	results := make([][]int, ds.Queries.Rows)
	start = time.Now()
	for qi := 0; qi < ds.Queries.Rows; qi++ {
		res, err := x.Search(ds.Queries.Row(qi), run.k, core.SearchOptions{
			Mode: core.ModeTIEA, VisitFrac: run.visit,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "vaqsearch: query %d: %v\n", qi, err)
			os.Exit(1)
		}
		results[qi] = eval.IDs(res)
	}
	elapsed := time.Since(start)
	fmt.Printf("recall@%d = %.4f, MAP@%d = %.4f, avg query %.3fms\n",
		run.k, eval.Recall(results, gt, run.k),
		run.k, eval.MAP(results, gt, run.k),
		elapsed.Seconds()/float64(ds.Queries.Rows)*1000)
	snap := x.Metrics().Snapshot()
	fmt.Printf("merged metrics: %d queries, p50 %s, p95 %s, p99 %s, TI prune %.1f%%, EA abandon %.1f%%, %d lookups\n",
		snap.Queries,
		snap.Latency.Quantile(0.50).Round(time.Microsecond),
		snap.Latency.Quantile(0.95).Round(time.Microsecond),
		snap.Latency.Quantile(0.99).Round(time.Microsecond),
		100*snap.TIPruneRate(), 100*snap.EAAbandonRate(), snap.Lookups)
	if sh := snap.Sharded; sh != nil {
		slowest, total := 0, uint64(0)
		for i, c := range sh.CriticalPath {
			total += c
			if c > sh.CriticalPath[slowest] {
				slowest = i
			}
		}
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(sh.CriticalPath[slowest]) / float64(total)
		}
		fmt.Printf("shards: slowest shard %d (critical path of %.0f%% of queries), skew ratio %.2f, load imbalance %.2f, straggler delta p99 %s\n",
			slowest, pct, sh.SkewRatio, sh.LoadImbalance,
			sh.StragglerDelta.Quantile(0.99).Round(time.Microsecond))
		if sh.SkewAlertRatio > 0 && sh.SkewAlert {
			fmt.Printf("shards: SKEW ALERT — windowed skew ratio %.2f at or above threshold %.2f\n",
				sh.SkewRatio, sh.SkewAlertRatio)
		}
	}
	if slo := snap.SLO; slo != nil {
		status := "ok"
		if slo.LatencyExhausted || slo.RecallExhausted {
			status = "BREACH"
		}
		fmt.Printf("slo: latency budget %.3f remaining (burn %.2f, %d/%d violations) — %s\n",
			slo.LatencyBudgetRemaining, slo.BurnRate, slo.LatencyViolations,
			slo.WindowQueries, status)
	}
	if tr != nil {
		if slow, seen := tr.Slowest(); len(slow) > 0 {
			fmt.Printf("slowest traced query (%d over the %s threshold):\n", seen, run.traceSlow)
			trace.WriteText(os.Stdout, slow[:1])
		} else {
			fmt.Printf("no query exceeded the %s slow threshold (%d traced)\n",
				run.traceSlow, tr.Count())
		}
	}
	flushCapture()
	stopChurn := startChurn(run.churn, run.hold, ds, func(q []float32) {
		_, _ = x.Search(q, run.k, core.SearchOptions{
			Mode: core.ModeTIEA, VisitFrac: run.visit,
		})
	})
	holdLoop(run.hold, run.top, col, sigCh)
	stopChurn()
	flushBundle()
}
