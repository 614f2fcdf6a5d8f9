// Command vaqreplay re-runs a captured query workload (a .vaqwl log
// written by vaqsearch -capture or Index.EnableCapture) against a VAQ
// index and diffs every answer against the recorded ground truth: result
// overlap@k, distance drift, and latency. Replaying against the index
// configuration that captured the log (a deterministic rebuild) must
// reproduce it exactly; replaying against a candidate configuration
// measures how far it diverges on real traffic — a portable regression
// suite made from production queries.
//
// Usage:
//
//	datagen -name SALD -n 5000 -nq 50 -out sald.vaqd
//	vaqsearch -data sald.vaqd -subspaces 16 -budget 128 -capture run.vaqwl
//	vaqreplay -log run.vaqwl -data sald.vaqd -subspaces 16 -budget 128 -min-overlap 1
//	vaqreplay -log run.vaqwl -data sald.vaqd -subspaces 16 -budget 16   # candidate config
//	vaqreplay -log run.vaqwl -data sald.vaqd ... -accuracy fast -min-overlap 0.95  # int-kernel recall gate
//	vaqreplay -log run.vaqwl -data sald.vaqd ... -shards 4 -min-overlap 0.97  # scatter-gather merge gate
//	vaqreplay -log run.vaqwl -data sald.vaqd ... -speed recorded        # paced replay
//
// Exit status: 0 when every configured threshold holds, 1 on a threshold
// violation (or any replayed query erroring), 2 on bad usage or input.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"vaq/internal/core"
	"vaq/internal/dataset"
	"vaq/internal/shard"
	"vaq/internal/workload"
)

func main() {
	var (
		logPath   = flag.String("log", "", "captured .vaqwl workload log (required)")
		dataPath  = flag.String("data", "", "dataset file from cmd/datagen to rebuild the target index from (required)")
		budget    = flag.Int("budget", 256, "bit budget per vector")
		subspaces = flag.Int("subspaces", 32, "number of subspaces")
		minBits   = flag.Int("minbits", 1, "minimum bits per subspace")
		maxBits   = flag.Int("maxbits", 13, "maximum bits per subspace")
		nonUnif   = flag.Bool("nonuniform", false, "cluster dimensions into non-uniform subspaces")
		accStr    = flag.String("accuracy", "exact", "scan arithmetic: exact or fast (integer kernel)")
		seed      = flag.Int64("seed", 42, "build seed")
		shards    = flag.Int("shards", 1, "shard count: >1 rebuilds a sharded scatter-gather index, so the replay gates merge correctness")
		speed     = flag.String("speed", "max", "replay speed: max (back to back) or recorded (reproduce capture spacing)")
		minOvl    = flag.Float64("min-overlap", 0, "minimum acceptable mean overlap@k in [0,1] (0 disables)")
		maxDrift  = flag.Float64("max-drift", -1, "maximum acceptable relative distance drift (negative disables; 0 demands bit-equal distances)")
		maxLatFac = flag.Float64("max-latency-factor", 0, "maximum acceptable replay-p99 over recorded-p99 ratio (0 disables)")
		verbose   = flag.Bool("v", false, "print every diverging query")
	)
	flag.Parse()
	if *logPath == "" || *dataPath == "" {
		fmt.Fprintln(os.Stderr, "vaqreplay: -log and -data are required")
		os.Exit(2)
	}
	var accuracy core.AccuracyMode
	switch *accStr {
	case "", "exact":
		accuracy = core.AccuracyExact
	case "fast":
		accuracy = core.AccuracyFast
	default:
		fmt.Fprintf(os.Stderr, "vaqreplay: unknown accuracy %q (exact or fast)\n", *accStr)
		os.Exit(2)
	}
	var paced bool
	switch *speed {
	case "max":
	case "recorded":
		paced = true
	default:
		fmt.Fprintf(os.Stderr, "vaqreplay: unknown speed %q (max or recorded)\n", *speed)
		os.Exit(2)
	}

	log, err := workload.LoadLog(*logPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vaqreplay: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("log %s: %d queries, dim %d, fingerprint %s\n",
		*logPath, len(log.Records), log.Dim, log.Fingerprint)
	if log.Shards > 0 {
		fmt.Printf("log provenance: captured on a %d-shard scatter-gather index\n", log.Shards)
		if *shards != log.Shards {
			fmt.Printf("note: replaying with -shards %d against a %d-shard capture — diffing across scatter shapes\n",
				*shards, log.Shards)
		}
	}

	ds, err := dataset.Load(*dataPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vaqreplay: %v\n", err)
		os.Exit(2)
	}
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "vaqreplay: -shards must be >= 1, got %d\n", *shards)
		os.Exit(2)
	}
	cfg := core.Config{
		NumSubspaces: *subspaces,
		Budget:       *budget,
		MinBits:      *minBits,
		MaxBits:      *maxBits,
		NonUniform:   *nonUnif,
		Seed:         *seed,
		AccuracyMode: accuracy,
	}
	start := time.Now()
	// The replay runner and fingerprint come from whichever index shape
	// was requested; S=1 shares the unsharded fingerprint because it
	// answers bit-identically.
	var (
		runner workload.RunFunc
		fp     string
		n, dim int
	)
	if *shards > 1 {
		x, err := shard.Build(ds.Train, ds.Base, cfg, shard.Options{Shards: *shards})
		if err != nil {
			fmt.Fprintf(os.Stderr, "vaqreplay: sharded build: %v\n", err)
			os.Exit(2)
		}
		runner, fp, n, dim = x.ReplayRunner(), x.ConfigFingerprint(), x.Len(), x.Dim()
		fmt.Printf("index: %d shards (scatter-gather replay)\n", x.Shards())
	} else {
		ix, err := core.Build(ds.Train, ds.Base, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vaqreplay: build: %v\n", err)
			os.Exit(2)
		}
		runner, fp, n, dim = ix.ReplayRunner(), ix.ConfigFingerprint(), ix.Len(), ix.Dim()
	}
	fmt.Printf("index: %d vectors, dim %d, fingerprint %s, built in %.2fs\n",
		n, dim, fp, time.Since(start).Seconds())
	if log.Fingerprint != "" && log.Fingerprint != fp {
		fmt.Printf("note: config fingerprints differ (%s captured vs %s replaying) — diffing a candidate configuration\n",
			log.Fingerprint, fp)
	}

	opt := workload.Options{
		Paced: paced,
		Thresholds: workload.Thresholds{
			MinOverlap:       *minOvl,
			MaxDistDrift:     *maxDrift,
			DistDriftSet:     *maxDrift == 0,
			MaxLatencyFactor: *maxLatFac,
		},
	}
	rep, diffs, err := workload.Replay(log, runner, opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vaqreplay: %v\n", err)
		os.Exit(2)
	}

	if *verbose {
		for _, d := range diffs {
			if d.Err != nil {
				fmt.Printf("query %4d: ERROR %v\n", d.Index, d.Err)
				continue
			}
			if d.Overlap < 1 || d.DistDrift > 0 {
				fmt.Printf("query %4d: overlap %.4f, drift %.6g, %s recorded -> %s replayed\n",
					d.Index, d.Overlap, d.DistDrift,
					d.Recorded.Round(time.Microsecond), d.Replayed.Round(time.Microsecond))
			}
		}
	}
	fmt.Printf("replayed %d queries (%d errors): mean overlap@k %.4f, worst %.4f",
		rep.Queries, rep.Errors, rep.MeanOverlap, rep.WorstOverlap)
	if rep.WorstQuery >= 0 && rep.WorstOverlap < 1 {
		fmt.Printf(" (query %d)", rep.WorstQuery)
	}
	fmt.Printf(", %d/%d exact\n", rep.ExactMatches, rep.Queries)
	fmt.Printf("distance drift: max %.6g, mean %.6g\n", rep.MaxDistDrift, rep.MeanDistDrift)
	fmt.Printf("latency: recorded p50 %s p99 %s, replay p50 %s p99 %s (factor %.2f)\n",
		rep.RecordedP50.Round(time.Microsecond), rep.RecordedP99.Round(time.Microsecond),
		rep.ReplayP50.Round(time.Microsecond), rep.ReplayP99.Round(time.Microsecond),
		rep.LatencyFactor)
	if !rep.Passed() {
		for _, v := range rep.Violations {
			fmt.Fprintf(os.Stderr, "vaqreplay: VIOLATION: %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Println("replay within thresholds")
}
