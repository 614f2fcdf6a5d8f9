package main

import (
	"fmt"

	"vaq"
)

// workload is one set of inputs and one index configuration. All four
// share the data family (random-walk series, d=128, smoothness 0.75), the
// query family (noisy copies of base rows) and the index shape (m=32
// subspaces, 256-bit budget, variable dictionaries, TI clusters auto,
// blocked layout); they differ in what dominates a query.
type workload struct {
	name string
	why  string
	// n rows are indexed; dictionaries are trained on the first trainN.
	n, trainN int
	k         int
	visitFrac float64
	accuracy  vaq.AccuracyMode
	shards    int // 0 = unsharded vaq.Index
	// recallQ leading queries of phase single are scored against the exact
	// ground truth (as many as keep its cost equal across workloads).
	recallQ int
	// recallFloor is 0.03 under the first measured recall_at_k (seed 1; the
	// toy sizes of -smoke get a looser one); a run below it fails its
	// correctness check.
	recallFloor float64
}

const (
	dim          = 128
	smoothness   = 0.75
	numSubspaces = 32
)

// scale holds every size that was shrunk to fit the run-time cap: ISSUE 11
// sized the workloads for 12-33 s set-ups and 10-20 s phases; the driver
// allows about 35 s for a whole run including three set-ups, so n, the
// dictionary cap and the Add batch all come down by one factor of 4
// (n 60 000 → 15 000, 2^13 → 2^11 centroids, which keeps the rows per
// centroid of the original design) and the query counts follow from
// -seconds.
type scale struct {
	name      string
	budget    int
	maxBits   int
	setups    int // set-ups per end-to-end run; setup_s is their median
	warmup    int // discarded queries before any timed phase
	roundTrip int // queries compared before WriteTo and after Read
	batch     int // SearchBatch block
	addBatch  int // vectors per Add in phase mixed
	mixedQPS  int // open-loop query rate in phase mixed
	addEvery  int // ms between Add calls in phase mixed
	tracedQ   int // queries per traced pass, per second of traced time
	workloads []workload
}

const (
	whyScanExact = "float TI+EA block kernel does most of the work; a scan-kernel, early-abandon or batched-kernel change must show here"
	whyScanInt   = "same data through the uint8-LUT integer kernel and exact re-rank; a float-kernel change must leave it flat, recall comparable with scan_exact"
	whyLutBound  = "small n, k=10, visit 0.1: projection, LUT fill and ranking dominate; shows LUT, ranking, observability and training-speed changes"
	whyShardMix  = "scan_exact data on S=4 shards reads the sharding tax; Add beside an open-loop query stream shows write-lock and rebuild cost"
)

var fullScale = scale{
	name: "full", budget: 256, maxBits: 11, setups: 3,
	warmup: 500, roundTrip: 200, batch: 256,
	addBatch: 64, mixedQPS: 600, addEvery: 125, tracedQ: 200,
	workloads: []workload{
		{name: "scan_exact", why: whyScanExact, n: 15000, trainN: 3000, k: 100, visitFrac: 0.25, accuracy: vaq.AccuracyExact, recallQ: 500, recallFloor: 0.782},
		{name: "scan_int", why: whyScanInt, n: 15000, trainN: 3000, k: 100, visitFrac: 0.25, accuracy: vaq.AccuracyFast, recallQ: 500, recallFloor: 0.763},
		{name: "lut_bound", why: whyLutBound, n: 2500, trainN: 2500, k: 10, visitFrac: 0.1, accuracy: vaq.AccuracyExact, recallQ: 3000, recallFloor: 0.78},
		{name: "sharded_mixed", why: whyShardMix, n: 15000, trainN: 3000, k: 100, visitFrac: 0.25, accuracy: vaq.AccuracyExact, shards: 4, recallQ: 500, recallFloor: 0.777},
	},
}

// smokeScale keeps the harness and its checks running under `go test`:
// every workload, both passes, in a few seconds.
var smokeScale = scale{
	name: "smoke", budget: 128, maxBits: 7, setups: 2,
	warmup: 50, roundTrip: 40, batch: 32,
	addBatch: 16, mixedQPS: 300, addEvery: 60, tracedQ: 200,
	workloads: []workload{
		{name: "scan_exact", why: whyScanExact, n: 2000, trainN: 500, k: 20, visitFrac: 0.25, accuracy: vaq.AccuracyExact, recallQ: 60, recallFloor: 0.5},
		{name: "scan_int", why: whyScanInt, n: 2000, trainN: 500, k: 20, visitFrac: 0.25, accuracy: vaq.AccuracyFast, recallQ: 60, recallFloor: 0.5},
		{name: "lut_bound", why: whyLutBound, n: 500, trainN: 500, k: 10, visitFrac: 0.1, accuracy: vaq.AccuracyExact, recallQ: 60, recallFloor: 0.4},
		{name: "sharded_mixed", why: whyShardMix, n: 2000, trainN: 500, k: 20, visitFrac: 0.25, accuracy: vaq.AccuracyExact, shards: 4, recallQ: 60, recallFloor: 0.5},
	},
}

func (s scale) find(name string) (workload, error) {
	for _, w := range s.workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// config is the build configuration of a workload. Config.Seed stays 1:
// -seed drives data and queries only.
func (s scale) config(w workload) vaq.Config {
	return vaq.Config{
		NumSubspaces: numSubspaces,
		Budget:       s.budget,
		MinBits:      1,
		MaxBits:      s.maxBits,
		Seed:         1,
		AccuracyMode: w.accuracy,
		Shards:       w.shards,
	}
}

func (w workload) options() vaq.SearchOptions {
	return vaq.SearchOptions{VisitFrac: w.visitFrac}
}

// metricDef declares one reported metric; BENCHMARK.json lists the same
// names, units, directions and bounds (a test keeps the two in step).
type metricDef struct {
	name   string
	unit   string
	higher bool    // higher is better
	bound  float64 // share of the parent's median it may worsen (end-to-end only)
}

// The bounds are about three times the ten-seed quartile spread measured
// on a quiet 2-core guest (see README.md); the tail and millisecond-scale
// metrics, which a single noisy second moves most, get the widest.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"build_s", "s", false, 0.15},
	{"query_p50_us", "us", false, 0.15},
	{"query_p99_us", "us", false, 0.25},
	{"cpu_us_per_query", "us", false, 0.15},
	{"batch_qps", "queries/s", true, 0.15},
	{"recall_at_k", "ratio", true, 0.05},
	{"index_bytes_per_vector", "bytes", false, 0.05},
	{"heap_mb", "MiB", false, 0.05},
	{"load_ms", "ms", false, 0.25},
	{"add_batch_p50_ms", "ms", false, 0.15},
	{"mixed_query_p99_us", "us", false, 0.25},
}

var perLayerMetrics = []metricDef{
	{name: "pca.project_ns", unit: "ns"},
	{name: "pca.fit_s", unit: "s"},
	{name: "pca.project_rows_per_s", unit: "rows/s", higher: true},
	{name: "quantizer.fill_lut_ns", unit: "ns"},
	{name: "quantizer.train_codebooks_s", unit: "s"},
	{name: "quantizer.encode_vectors_per_s", unit: "vectors/s", higher: true},
	{name: "quantizer.encode_vec_ns", unit: "ns"},
	{name: "kmeans.point_centroid_ns", unit: "ns"},
	{name: "core.train_s", unit: "s"},
	{name: "core.encode_index_s", unit: "s"},
	{name: "core.train_self_s", unit: "s"},
	{name: "core.encode_self_s", unit: "s"},
	{name: "core.search_projected_ns", unit: "ns"},
	{name: "core.min_visit_ns", unit: "ns"},
	{name: "core.rank_ns", unit: "ns"},
	{name: "core.scan_ns", unit: "ns"},
	{name: "core.scan_ns_per_code", unit: "ns"},
	{name: "core.codes_per_s_per_core", unit: "codes/s", higher: true},
	{name: "core.clusters_visited_per_query", unit: "count"},
	{name: "core.codes_considered_per_query", unit: "count"},
	{name: "core.lookups_per_code", unit: "count"},
	{name: "core.ti_skip_ratio", unit: "ratio", higher: true},
	{name: "core.ea_abandon_ratio", unit: "ratio", higher: true},
	{name: "core.first_check_abandon_ratio", unit: "ratio", higher: true},
	{name: "core.write_mb_per_s", unit: "MB/s", higher: true},
	{name: "core.read_ms", unit: "ms"},
	{name: "core.metrics_off_p50_ratio", unit: "ratio"},
	{name: "trace.armed_p50_ratio", unit: "ratio"},
	{name: "workload.armed_p50_ratio", unit: "ratio"},
	{name: "history.armed_p50_ratio", unit: "ratio"},
	{name: "bundle.armed_p50_ratio", unit: "ratio"},
	{name: "shard.search_ns", unit: "ns"},
	{name: "shard.sum_shard_ns", unit: "ns"},
	{name: "shard.max_shard_ns", unit: "ns"},
	{name: "shard.parallel_efficiency", unit: "ratio", higher: true},
	{name: "shard.codes_considered_per_query", unit: "count"},
	{name: "shard.add_self_ms", unit: "ms"},
	{name: "vaq.query_p999_us", unit: "us"},
	{name: "vaq.single_qps", unit: "queries/s", higher: true},
	{name: "vaq.batch_speedup", unit: "ratio", higher: true},
	{name: "vaq.mixed_sched_lag_p99_us", unit: "us"},
	{name: "vaq.mixed_stalled_share", unit: "ratio"},
	{name: "vaq.trace_overhead_ratio", unit: "ratio"},
}
