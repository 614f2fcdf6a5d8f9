package core

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"

	"vaq/internal/alert"
	"vaq/internal/bundle"
	"vaq/internal/diag"
	"vaq/internal/history"
	"vaq/internal/metrics"
	"vaq/internal/pca"
	"vaq/internal/quantizer"
	"vaq/internal/trace"
	"vaq/internal/vec"
	"vaq/internal/workload"
)

// Config holds all VAQ build parameters (Algorithm 5 inputs).
type Config struct {
	// NumSubspaces (m) is the number of subspaces. Required.
	NumSubspaces int
	// Budget is the total number of bits per encoded vector. Required.
	Budget int
	// MinBits / MaxBits bound the per-subspace dictionary size exponent
	// (paper evaluation: 1 and 13). Defaults: 1 and min(13, Budget).
	MinBits int
	MaxBits int
	// NonUniform clusters dimensions of similar variance into
	// unequal-length subspaces (§III-B). Off = uniform lengths.
	NonUniform bool
	// DisablePartialBalance turns off the importance-spreading swaps of
	// §III-C (enabled by default; disabling is an ablation).
	DisablePartialBalance bool
	// Alloc selects the bit-allocation strategy (default AllocMILP).
	Alloc AllocStrategy
	// AllocConstraints are extra linear constraints over the per-subspace
	// bit variables, composed with C1-C4 by the MILP allocator (ignored by
	// the other strategies). One coefficient per subspace.
	AllocConstraints []BitConstraint
	// TargetVariance is C1's coverage threshold (default 0.99).
	TargetVariance float64
	// TIClusters is the number of triangle-inequality clusters (paper
	// default 1000; 0 = auto: min(1000, max(1, n/64))).
	TIClusters int
	// TIPrefixSubspaces is how many leading subspaces TI centroids span
	// (TIClusterNumSubs; 0 = all).
	TIPrefixSubspaces int
	// DefaultVisitFrac is the fraction of TI clusters visited when a
	// Search call does not override it (paper evaluates 0.25 and 0.10;
	// default 0.25). 1.0 scans every cluster and is then exactly
	// equivalent to the EA scan.
	DefaultVisitFrac float64
	// EACheckEvery controls how often the early-abandon test runs while
	// accumulating subspace distances (paper: every 4 subspaces).
	EACheckEvery int
	// CenterPCA subtracts column means before the eigendecomposition.
	// The paper's Algorithm 1 works on the raw second-moment matrix of
	// z-normalized data, so the default is false.
	CenterPCA bool
	// Seed drives all randomized steps.
	Seed int64
	// KMeansIters bounds dictionary training iterations (default 25).
	KMeansIters int
	// HierarchicalThreshold switches dictionary training to hierarchical
	// k-means above this size (paper: 2^10; 0 = default 1024).
	HierarchicalThreshold int
	// DisableMetrics turns off the index-wide query telemetry registry.
	// Recording costs a handful of atomic adds per query (measurably
	// under 2% of a search), so the default is on.
	DisableMetrics bool
	// AccuracyMode selects the scan arithmetic (default AccuracyExact:
	// the bit-identical float32 kernels). AccuracyFast derives an integer
	// companion store from the blocked layout — uint8-quantized lookup
	// tables, 4-bit codes packed two per byte where dictionaries fit 16
	// entries — trading a small, measured recall cost for scan throughput.
	// Runtime-only, never serialized: loaded indexes start exact and opt
	// in via SetAccuracyMode.
	AccuracyMode AccuracyMode
	// RecallSampleRate enables the online recall estimator: roughly this
	// fraction of queries (deterministically every round(1/rate)-th) is
	// shadow-verified by an exact scan over the retained projected
	// vectors, and the observed recall@k folds into the metrics registry.
	// Enabling it makes Build and Add retain the projected dataset
	// (4*n*d bytes) and adds the exact-scan cost to sampled queries. 0
	// disables. Runtime-only: neither the rate nor the retained vectors
	// are serialized, so loaded indexes start with sampling off.
	RecallSampleRate float64
	// Logger receives structured build/maintenance logs (phase timings of
	// Build, Add, WriteTo). nil discards. Runtime-only, never serialized.
	Logger *slog.Logger
	// DriftAlertRatio is the quantization-drift alert threshold: when the
	// EWMA reconstruction MSE of vectors folded in by Add exceeds this
	// multiple of the Build-time baseline MSE, a vaq.drift slog event is
	// emitted and the alert gauge set (e.g. 1.5 = alert at 50% excess
	// distortion). 0 disables alerting; the drift gauges update either
	// way. Runtime-only, never serialized.
	DriftAlertRatio float64
	// SLO declares service-level objectives (tail-latency target, minimum
	// observed recall) evaluated online over sliding windows of recent
	// traffic; see metrics.SLO. Budgets are exported as gauges alongside
	// the other metrics, and crossing into exhaustion emits one vaq.slo
	// slog event per crossing (edge-triggered, re-arms on recovery). The
	// recall objective needs RecallSampleRate > 0 to feed samples. Needs
	// metrics (no effect under DisableMetrics). Runtime-only, never
	// serialized.
	SLO *metrics.SLO
}

func (c Config) withDefaults() Config {
	if c.MinBits == 0 {
		c.MinBits = 1
	}
	if c.MaxBits == 0 {
		c.MaxBits = 13
		if c.Budget < 13 {
			c.MaxBits = c.Budget
		}
	}
	if c.TargetVariance == 0 {
		c.TargetVariance = 0.99
	}
	if c.DefaultVisitFrac == 0 {
		c.DefaultVisitFrac = 0.25
	}
	if c.EACheckEvery <= 0 {
		c.EACheckEvery = 4
	}
	if c.HierarchicalThreshold == 0 {
		c.HierarchicalThreshold = 1024
	}
	return c
}

// Index is a built VAQ index over an encoded dataset.
type Index struct {
	cfg      Config
	model    *pca.Model
	ratios   []float64 // post-balance per-dimension variance shares
	subVar   []float64 // per-subspace variance shares
	bits     []int
	cb       *quantizer.Codebooks
	queryDim int
	// state is the published, immutable snapshot of everything a write
	// changes (see state); writeMu serializes the writers that prepare its
	// successors. Readers only ever Load.
	state   atomic.Pointer[state]
	writeMu sync.Mutex
	metrics *metrics.IndexMetrics
	report  metrics.BuildReport
	// tracer, when set, hands every newly created Searcher a span
	// recorder; atomic so EnableTracing is safe while queries are in
	// flight (in-flight Searchers keep their current recorder).
	tracer atomic.Pointer[trace.Tracer]
	// searchers pools the Searchers behind Search/SearchWith.
	searchers sync.Pool // *Searcher
	// capture, when set, receives a sampled fraction of queries (vector,
	// options, results, latency) for workload replay; atomic for the same
	// reason as tracer. Off = one pointer load per query.
	capture atomic.Pointer[workload.Capture]
	// flight is the armed incident recorder (EnableFlightRecorder); atomic
	// for the same reason as tracer. The query path never touches it — it
	// subscribes to the metrics alert bus instead.
	flight atomic.Pointer[bundle.Recorder]
	// hist is the armed metrics history collector (EnableHistory); atomic
	// for the same reason as tracer. Samples on its own goroutine — the
	// query path never touches it.
	hist atomic.Pointer[history.Collector]
	// recallEvery is the shadow-exact recall estimator's sampling stride
	// (0 = off; the retained rows it audits against live in state) and
	// recallCtr the query counter driving it.
	recallEvery uint64
	recallCtr   atomic.Uint64
	// baseline is the Build-time IndexReport (nil on loaded indexes — the
	// diagnostics baseline is runtime-only, never serialized), baselineMSE
	// its per-subspace MSE, and driftSrc the vaq.drift edge latch (on the
	// metrics alert bus when metrics are on, standalone otherwise; created
	// lazily by foldDrift under writeMu).
	baseline    *diag.Report
	baselineMSE []float64
	driftSrc    *alert.Source
}

// Build trains a VAQ index: PCA (Algorithm 1), subspace construction and
// partial balancing, bit allocation (Algorithm 2), variable-size dictionary
// encoding and TI clustering (Algorithm 3). train supplies the learning
// sample; data is the set that gets encoded and searched (they may be the
// same matrix). Build is Train followed by Trained.EncodeIndex; callers
// that encode several partitions against one shared training sample (the
// sharded build path) use those halves directly.
func Build(train, data *vec.Matrix, cfg Config) (*Index, error) {
	if train == nil || data == nil || train.Rows == 0 || data.Rows == 0 {
		return nil, errors.New("core: empty train or data matrix")
	}
	if train.Cols != data.Cols {
		return nil, fmt.Errorf("core: train dim %d != data dim %d", train.Cols, data.Cols)
	}
	t, err := Train(train, cfg)
	if err != nil {
		return nil, err
	}
	var dataZ *vec.Matrix
	if data == train {
		// Reuse the training projection instead of projecting data again.
		dataZ = t.trainZ
	}
	return t.encodeIndex(data, dataZ)
}

// sampleStride converts a sampling fraction into the deterministic
// every-Nth stride the recall estimator uses (rate 1.0 → every query).
func sampleStride(rate float64) uint64 {
	if rate >= 1 {
		return 1
	}
	return uint64(math.Round(1 / rate))
}

// Len reports the number of encoded vectors.
func (ix *Index) Len() int { return ix.state.Load().n }

// Dim reports the expected query dimensionality.
func (ix *Index) Dim() int { return ix.queryDim }

// Bits returns the per-subspace bit allocation (a copy).
func (ix *Index) Bits() []int { return append([]int(nil), ix.bits...) }

// SubspaceVariances returns each subspace's share of the explained
// variance after partial balancing (a copy).
func (ix *Index) SubspaceVariances() []float64 {
	return append([]float64(nil), ix.subVar...)
}

// Codebooks exposes the trained dictionaries (read-only use).
func (ix *Index) Codebooks() *quantizer.Codebooks { return ix.cb }

// Codes exposes the encoded dataset (read-only use).
func (ix *Index) Codes() *quantizer.Codes { return ix.state.Load().codes }

// CodeBytes reports the packed size of the encoded dataset in bytes.
func (ix *Index) CodeBytes() int { return ix.state.Load().codes.Bytes(ix.bits) }

// TIClusterCount reports how many triangle-inequality clusters were built.
func (ix *Index) TIClusterCount() int { return len(ix.state.Load().ti.clusters) }

// Accuracy reports the scan arithmetic mode the query kernels use.
func (ix *Index) Accuracy() AccuracyMode {
	if ix.state.Load().fast != nil {
		return AccuracyFast
	}
	return AccuracyExact
}

// SetAccuracyMode switches the scan arithmetic at runtime — the opt-in
// hook for loaded indexes, whose on-disk format carries no accuracy mode
// (the integer store is derived, never serialized). Switching to
// AccuracyFast builds the store from the canonical codes; switching back
// to AccuracyExact drops it. A writer like Add: the store is built beside
// the live state and published whole, and in-flight queries finish on the
// mode they started with.
func (ix *Index) SetAccuracyMode(mode AccuracyMode) error {
	if mode != AccuracyExact && mode != AccuracyFast {
		return fmt.Errorf("core: unknown AccuracyMode %d", mode)
	}
	ix.writeMu.Lock()
	defer ix.writeMu.Unlock()
	next := *ix.state.Load()
	if mode == AccuracyExact {
		next.fast = nil
	} else if next.fast == nil {
		next.fast = buildFastStore(ix.cb, next.codes, next.ti, ix.cfg.Seed, nil)
	}
	ix.state.Store(&next)
	return nil
}

// Metrics returns the index-wide query telemetry registry shared by every
// Searcher of this index, or nil when Config.DisableMetrics was set. The
// registry is safe for concurrent use.
func (ix *Index) Metrics() *metrics.IndexMetrics { return ix.metrics }

// BuildReport returns the wall-clock cost of each build phase. Loaded
// (deserialized) indexes report zero durations: the report describes a
// Build call, not the index state.
func (ix *Index) BuildReport() metrics.BuildReport { return ix.report }

// EnableTracing installs a fresh per-query span tracer built from cfg and
// returns it. Searchers created afterwards, and every later
// Index.Search/SearchWith, record a QueryTrace per query; Searchers created
// earlier keep running untraced. Safe to call while queries are in
// flight.
func (ix *Index) EnableTracing(cfg trace.Config) *trace.Tracer {
	t := trace.New(cfg)
	ix.tracer.Store(t)
	return t
}

// DisableTracing detaches the index tracer: the next Index.Search/SearchWith
// runs untraced, while existing Searchers keep their recorders until
// replaced.
func (ix *Index) DisableTracing() { ix.tracer.Store(nil) }

// RecallSampling reports the effective shadow-exact sampling stride: every
// n-th query is verified (0 = sampling disabled — never configured, or the
// index was loaded from disk, which drops the retained vectors).
func (ix *Index) RecallSampling() (everyNth uint64) { return ix.recallEvery }

// ProjectQuery rotates a raw query into the index's PCA space. Exposed for
// benchmarks that amortize projection across search modes.
func (ix *Index) ProjectQuery(q []float32) ([]float32, error) {
	return ix.projectQueryInto(q, nil, nil)
}

// projectQueryInto is ProjectQuery into reusable storage (see
// pca.Model.ProjectVecInto).
func (ix *Index) projectQueryInto(q, dst []float32, acc []float64) ([]float32, error) {
	if len(q) != ix.queryDim {
		return nil, fmt.Errorf("core: query dim %d, index dim %d", len(q), ix.queryDim)
	}
	if err := vec.CheckFiniteVec(q); err != nil {
		return nil, fmt.Errorf("core: query: %w", err)
	}
	return ix.model.ProjectVecInto(q, dst, acc)
}
