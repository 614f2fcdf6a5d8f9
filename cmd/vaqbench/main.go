// Command vaqbench regenerates the tables and figures of the VAQ paper,
// and doubles as the cross-PR performance tracker.
//
// Usage:
//
//	vaqbench -list
//	vaqbench -exp fig1            # one experiment at the default scale
//	vaqbench -exp all -scale quick
//	vaqbench -exp tab2 -n 50000 -gallery 128
//	vaqbench -json BENCH_sald.json -n 20000 -nq 200   # perf summary
//	vaqbench -json BENCH_int.json -layout int         # integer kernel alone
//	vaqbench -json BENCH_pr6.json -layout all         # exact + integer arms
//	vaqbench -json BENCH_pr7.json -layout all -shards 4,8  # + sharded arms
//	vaqbench -json BENCH_sald.json -report            # + IndexReport quality block
//	vaqbench -json - -metrics-addr localhost:6060     # live expvar/pprof
//	vaqbench -compare BENCH_old.json BENCH_new.json -threshold 5
//
// Experiment output is plain text: the same rows/series each figure
// plots, so shapes can be compared against the paper directly (see
// EXPERIMENTS.md). The -json mode instead builds one index, drives the
// query workload through a Searcher pool, and emits a machine-readable
// summary (build-phase timings, QPS, p50/p95/p99 latency, TI/EA prune
// rates) for tracking the perf trajectory across PRs. Every arm scans the
// blocked store; -layout int measures the integer fast-scan kernel
// (-accuracy fast) alone, and -layout all runs the workload once exact and
// once on the integer kernel and records the int-over-exact throughput
// ratio;
// -report additionally embeds the index-quality IndexReport (distortion,
// utilization, TI balance) in the summary. The -compare mode diffs two
// -json summaries metric by metric and exits 1 when QPS drops or a latency
// percentile rises beyond -threshold percent (exit 2 when the summaries'
// config fingerprints or accuracy modes do not match — the latter is never
// forceable, exact and fast runs answer differently). With
// -metrics-addr, either mode serves live metrics on /debug/vars and
// profiles on /debug/pprof/.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"vaq/internal/experiments"
	"vaq/internal/metrics"
)

// parseShardCounts parses the -shards comma list ("4,8") into shard
// counts. Empty means no sharded arms.
func parseShardCounts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad -shards value %q (want positive integers, e.g. '4,8')", part)
		}
		out = append(out, v)
	}
	return out, nil
}

func main() {
	var (
		exp         = flag.String("exp", "", "experiment id (see -list), or 'all'")
		list        = flag.Bool("list", false, "list available experiments")
		scale       = flag.String("scale", "default", "preset scale: quick or default")
		n           = flag.Int("n", 0, "override base-vector count for large datasets")
		nq          = flag.Int("nq", 0, "override query count")
		gallery     = flag.Int("gallery", 0, "override gallery dataset count")
		seed        = flag.Int64("seed", 0, "override data seed")
		jsonOut     = flag.String("json", "", "run the search benchmark and write a JSON summary to this path ('-' for stdout)")
		benchData   = flag.String("dataset", "SALD", "dataset for -json (SIFT, DEEP, SEISMIC, SALD, ASTRO)")
		subspaces   = flag.Int("subspaces", 16, "subspaces for -json")
		budget      = flag.Int("budget", 128, "bit budget for -json")
		maxBits     = flag.Int("maxbits", 0, "max bits per subspace for -json (0 = default; 8 keeps every dictionary uint8-addressable)")
		k           = flag.Int("k", 100, "neighbors per query for -json")
		visit       = flag.Float64("visit", 0.25, "TI visit fraction for -json")
		workers     = flag.Int("workers", 0, "query workers for -json (0 = GOMAXPROCS)")
		passes      = flag.Int("passes", 3, "timed passes over the query set for -json")
		layout      = flag.String("layout", "blocked", "arms for -json: blocked (one arm at -accuracy), int (the integer kernel alone), or all (exact and integer arms)")
		shards      = flag.String("shards", "", "comma-separated shard counts for extra scatter-gather arms in -json -layout all (e.g. '4,8'; each runs both accuracy modes and records recall@k vs brute force)")
		accuracy    = flag.String("accuracy", "", "scan arithmetic for -json: exact (default) or fast (integer kernel; -layout blocked only)")
		report      = flag.Bool("report", false, "embed the index-quality IndexReport in the -json summary")
		recallRate  = flag.Float64("recall-sample", 0, "fraction of -json queries shadow-checked against an exact scan (populates observed recall; 0 disables)")
		compare     = flag.Bool("compare", false, "diff two -json summaries (args: baseline.json new.json); exit 1 on regression")
		threshold   = flag.Float64("threshold", 5, "regression threshold for -compare, in percent")
		force       = flag.Bool("force", false, "let -compare proceed despite mismatched config fingerprints")
		metricsAddr = flag.String("metrics-addr", "", "serve expvar (/debug/vars) and pprof (/debug/pprof/) on this address")
		flightRec   = flag.Bool("flight-recorder", false, "arm an (idle) flight recorder on every -json arm, measuring the armed-but-quiet overhead; runtime-only, so the config fingerprint is unchanged")
		historyOn   = flag.Bool("history", false, "arm a metrics history collector on every -json arm, measuring the collector-armed overhead; runtime-only, so the config fingerprint is unchanged")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "vaqbench: -compare needs exactly two summary files: baseline.json new.json")
			os.Exit(2)
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), *threshold, *force))
	}

	if *metricsAddr != "" {
		srv, err := metrics.ServeDebug(*metricsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vaqbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "vaqbench: serving metrics on http://%s/debug/vars\n", srv.Addr)
	}
	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		return
	}
	if *jsonOut != "" {
		p := benchParams{
			Dataset: *benchData, N: *n, NQ: *nq, Seed: *seed,
			Subspaces: *subspaces, Budget: *budget, MaxBits: *maxBits, K: *k,
			VisitFrac: *visit, Workers: *workers, Passes: *passes,
			Layout: *layout, Accuracy: *accuracy, RecallRate: *recallRate,
		}
		if p.N <= 0 {
			p.N = 20000
		}
		if p.NQ <= 0 {
			p.NQ = 200
		}
		if p.Seed == 0 {
			p.Seed = 7
		}
		shardCounts, err := parseShardCounts(*shards)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vaqbench: %v\n", err)
			os.Exit(2)
		}
		armFlightRecorder = *flightRec
		armHistory = *historyOn
		if err := runJSONBench(*jsonOut, p, *report, shardCounts); err != nil {
			fmt.Fprintf(os.Stderr, "vaqbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "vaqbench: -exp is required (try -list)")
		os.Exit(2)
	}
	var s experiments.Scale
	switch *scale {
	case "quick":
		s = experiments.QuickScale
	case "default":
		s = experiments.DefaultScale
	default:
		fmt.Fprintf(os.Stderr, "vaqbench: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if *n > 0 {
		s.N = *n
	}
	if *nq > 0 {
		s.NQ = *nq
	}
	if *gallery > 0 {
		s.GalleryCount = *gallery
	}
	if *seed != 0 {
		s.Seed = *seed
	}

	run := func(e experiments.Experiment) {
		fmt.Printf("### %s — %s\n", e.ID, e.Title)
		fmt.Printf("scale: n=%d nq=%d gallery=%d seed=%d\n\n", s.N, s.NQ, s.GalleryCount, s.Seed)
		start := time.Now()
		if err := e.Run(os.Stdout, s); err != nil {
			fmt.Fprintf(os.Stderr, "vaqbench: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %.1fs]\n\n", e.ID, time.Since(start).Seconds())
	}

	if *exp == "all" {
		for _, e := range experiments.Registry() {
			run(e)
		}
		return
	}
	e, ok := experiments.Find(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "vaqbench: unknown experiment %q (try -list)\n", *exp)
		os.Exit(2)
	}
	run(e)
}
