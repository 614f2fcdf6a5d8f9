// Package vaq is a Go implementation of Variance-Aware Quantization
// (Paparrizos et al., "Fast Adaptive Similarity Search through
// Variance-Aware Quantization", ICDE 2022): an approximate
// nearest-neighbor method that encodes vectors with per-subspace
// dictionaries whose sizes adapt to the variance each subspace explains,
// and answers queries with hardware-oblivious data skipping (triangle
// inequality over precomputed cluster distances) cascaded with
// early-abandoned table lookups.
//
// Quick start:
//
//	ix, err := vaq.Build(data, vaq.Config{NumSubspaces: 16, Budget: 128})
//	if err != nil { ... }
//	results, err := ix.Search(query, 10)
//
// data is a slice of equal-length []float32 vectors; results come back as
// (id, squared distance) pairs sorted by distance. See the examples/
// directory for richer usage and the internal packages for the substrates
// (PCA, k-means, the MILP bit-allocation solver, baseline quantizers and
// tree indexes) that power the experiment suite in cmd/vaqbench.
//
// # Concurrency and observability
//
// An Index is safe for concurrent reads: run one Searcher per goroutine,
// or use SearchBatch, which fans queries out across worker goroutines
// (workers <= 0 means runtime.GOMAXPROCS(0) workers). Every query — from
// Search, a Searcher, or SearchBatch — is folded into a lock-free
// index-wide registry; Metrics returns its snapshot (query counts,
// latency percentiles, the paper's §III-E prune counters), BuildReport
// the per-phase build timings, and PublishExpvar/ServeDebug expose both
// over HTTP for live inspection. Set Config.DisableMetrics to opt out.
package vaq

import (
	"errors"
	"fmt"
	"log/slog"

	"vaq/internal/core"
	"vaq/internal/milp"
	"vaq/internal/vec"
)

// Result is one search answer: a database vector id and its distance to
// the query. Distances are squared Euclidean in the quantized space —
// comparable within one result list, monotone in the true distance up to
// quantization error.
type Result struct {
	ID   int
	Dist float32
}

// AllocStrategy selects how the bit budget is split across subspaces.
type AllocStrategy = core.AllocStrategy

// Allocation strategies.
const (
	// AllocMILP solves the paper's constrained integer program (default).
	AllocMILP = core.AllocMILP
	// AllocTransformCoding uses the closed-form reverse-water-filling rule.
	AllocTransformCoding = core.AllocTransformCoding
	// AllocUniform assigns Budget/NumSubspaces bits everywhere (the
	// PQ/OPQ ablation baseline).
	AllocUniform = core.AllocUniform
)

// BitConstraint is an extra linear constraint over the per-subspace bit
// variables, composed with the paper's C1-C4 by the MILP allocator:
// Σ Coeffs[i]·bits[i]  Sense  RHS. One coefficient per subspace, ordered by
// subspace importance. This is the extension point §III-C motivates —
// workload-aware storage or latency requirements become allocation
// constraints instead of a new optimizer.
type BitConstraint = core.BitConstraint

// ConstraintSense is the direction of a BitConstraint.
type ConstraintSense = milp.Sense

// Constraint senses.
const (
	LE = milp.LE // Σ coeffs·bits <= RHS
	GE = milp.GE // Σ coeffs·bits >= RHS
	EQ = milp.EQ // Σ coeffs·bits == RHS
)

// ErrNonFinite is wrapped by the error Build, BuildWithTrainingSet,
// BuildSharded, BuildShardedWithTrainingSet and Add return for input that
// holds a NaN or an infinity (the message names the row and column), and
// by the error a search returns for such a query. The check runs before
// anything is trained, encoded, assigned an id or scanned, so a rejected
// Add leaves the index exactly as it was. Test with errors.Is.
var ErrNonFinite = vec.ErrNonFinite

// AccuracyMode selects the arithmetic the scan kernels run in.
type AccuracyMode = core.AccuracyMode

// Accuracy modes.
const (
	// AccuracyExact (default) keeps the bit-identical float32 kernels.
	AccuracyExact = core.AccuracyExact
	// AccuracyFast scans an integer companion store: per-query uint8
	// lookup tables (learned scale/offset, saturating) over packed 4-bit /
	// uint8 / uint16 codes, with early-abandon thresholds quantized into
	// the integer domain. Faster, with a small recall cost that
	// RecallSampleRate and workload replay can measure. ModeEA and
	// truncated-Subspaces queries transparently fall back to the exact
	// kernels.
	AccuracyFast = core.AccuracyFast
)

// SearchMode selects the query-time pruning strategy.
type SearchMode = core.SearchMode

// Search modes.
const (
	// ModeTIEA is full VAQ: triangle-inequality data skipping plus
	// early-abandoned lookups (default).
	ModeTIEA = core.ModeTIEA
	// ModeEA scans all codes with early abandoning only.
	ModeEA = core.ModeEA
	// ModeHeap is the plain exhaustive ADC scan.
	ModeHeap = core.ModeHeap
)

// Config holds build parameters. NumSubspaces and Budget are required;
// every other field has a sensible default (see the field comments in
// internal/core.Config for the paper sections each knob comes from).
type Config struct {
	// NumSubspaces is the number of subspaces (m). Required.
	NumSubspaces int
	// Budget is the total bits per encoded vector. Required.
	Budget int
	// MinBits and MaxBits bound per-subspace dictionary sizes
	// (defaults 1 and 13, the paper's evaluation setting).
	MinBits int
	MaxBits int
	// NonUniform clusters dimensions of similar variance into
	// unequal-length subspaces.
	NonUniform bool
	// DisablePartialBalance turns off importance spreading (ablation).
	DisablePartialBalance bool
	// Alloc selects the allocation strategy (default AllocMILP).
	Alloc AllocStrategy
	// AllocConstraints are extra linear constraints for the MILP allocator
	// (one coefficient per subspace; ignored by other strategies).
	AllocConstraints []BitConstraint
	// TargetVariance is the C1 coverage threshold (default 0.99).
	TargetVariance float64
	// TIClusters is the number of data-skipping clusters
	// (0 = auto: min(1000, n/64)).
	TIClusters int
	// TIPrefixSubspaces is how many leading subspaces the skip clusters
	// span (0 = all).
	TIPrefixSubspaces int
	// DefaultVisitFrac is the default fraction of clusters visited per
	// query (default 0.25).
	DefaultVisitFrac float64
	// CenterPCA subtracts column means before the eigendecomposition.
	CenterPCA bool
	// Seed makes the build deterministic.
	Seed int64
	// KMeansIters bounds dictionary-training iterations (default 25).
	KMeansIters int
	// DisableMetrics turns off the index-wide query telemetry registry
	// (see Index.Metrics). Recording costs a few atomic adds per query,
	// so the default is on.
	DisableMetrics bool
	// AccuracyMode selects the scan arithmetic (default AccuracyExact).
	// AccuracyFast runs the integer fast-scan kernel — uint8-quantized
	// lookup tables over packed codes — trading a small, measurable recall
	// cost for throughput. Runtime-only: not serialized; loaded indexes
	// start exact.
	AccuracyMode AccuracyMode
	// RecallSampleRate enables the online recall estimator: roughly this
	// fraction of queries (deterministic stride sampling, so 0.01 means
	// every 100th query) is additionally answered by an exact scan over the
	// retained projected dataset, and the overlap folds into the metrics
	// registry (MetricsSnapshot.ObservedRecall). The sampled queries pay the
	// full exact-scan cost, and the index retains its projected vectors
	// (4*n*dim bytes), so pick a small rate. 0 disables (default).
	// Runtime-only: not serialized; loaded indexes have sampling off.
	RecallSampleRate float64
	// Logger receives structured build/maintenance logs (Build, Add,
	// WriteTo) via log/slog. nil discards (default). Runtime-only: not
	// serialized.
	Logger *slog.Logger
	// DriftAlertRatio sets the quantization-drift alert threshold: when
	// the EWMA reconstruction MSE of vectors folded in by Add exceeds this
	// multiple of the Build-time baseline (e.g. 1.5 = alert at 50% excess
	// distortion), a vaq.drift log event fires and the vaq_drift_alert
	// gauge sets. 0 disables alerting; the drift gauges update either way.
	// Runtime-only: not serialized.
	DriftAlertRatio float64
	// ProfileLabels tags query goroutines with runtime/pprof labels
	// (vaq_phase = project | lut_fill | scan) so CPU profiles attribute
	// samples to search phases; PublishDiagnostics sets the index label.
	// Off by default; see also Index.EnableProfileLabels for indexes
	// loaded from disk. Runtime-only: not serialized.
	ProfileLabels bool
	// Shards partitions the dataset across this many independent indexes
	// that share one trained model (rotation, bit allocation and
	// dictionaries are learned once on the training sample, so per-shard
	// distances are directly comparable). Consumed by BuildSharded: shards
	// encode in parallel at build time, queries scatter across them on a
	// worker pool and gather through a deterministic top-k merge, and Add
	// routes whole batches to one shard so concurrent ingest stops
	// serializing on a single write lock. 0 or 1 means one shard (S=1
	// answers bit-identically to an unsharded Build). Ignored by Build.
	Shards int
	// ShardPolicy selects how Add routes batches to shards (default
	// ShardRoundRobin). Only meaningful with Shards > 1.
	ShardPolicy ShardPolicy
	// ShardSkewAlertRatio sets the shard-skew alert threshold on a sharded
	// index: when the windowed mean skew ratio — each query's slowest
	// shard latency over its mean shard latency (1 = perfectly balanced,
	// Shards = one shard does all the work) — reaches this value, a
	// vaq.skew log event fires once and the vaq_skew_alert gauge sets
	// until the window recovers, mirroring the drift and SLO alerts.
	// 0 disables the alert; the skew telemetry itself is always on when
	// metrics are. Only meaningful with Shards > 1. Runtime-only: not
	// serialized.
	ShardSkewAlertRatio float64
	// SLO declares service-level objectives — a tail-latency target and/or
	// a minimum observed recall — evaluated online over sliding windows of
	// recent traffic. Error budgets are exported through
	// MetricsSnapshot.SLO, the Prometheus gauges
	// (vaq_slo_latency_budget_remaining, vaq_slo_recall_budget_remaining,
	// vaq_slo_burn_rate) and the index report; crossing into budget
	// exhaustion emits one vaq.slo log event per crossing (edge-triggered,
	// re-arms on recovery) via Logger. The recall objective needs
	// RecallSampleRate > 0 to feed samples. nil disables (default).
	// Requires metrics (no effect under DisableMetrics). Runtime-only:
	// not serialized.
	SLO *SLO
}

// SearchOptions tune a single query.
type SearchOptions struct {
	// Mode selects the pruning strategy (default ModeTIEA).
	Mode SearchMode
	// VisitFrac overrides the fraction of skip clusters visited
	// (0 = the index default). 1.0 makes the search exactly equivalent
	// to an exhaustive scan of the encoded data.
	VisitFrac float64
	// Subspaces limits distance accumulation to the first n subspaces
	// (0 = all); used for dimensionality-reduction style trade-offs.
	Subspaces int
}

// Index is a built VAQ index over an encoded dataset.
type Index struct {
	inner *core.Index
}

func (c Config) toCore() core.Config {
	return core.Config{
		NumSubspaces:          c.NumSubspaces,
		Budget:                c.Budget,
		MinBits:               c.MinBits,
		MaxBits:               c.MaxBits,
		NonUniform:            c.NonUniform,
		DisablePartialBalance: c.DisablePartialBalance,
		Alloc:                 c.Alloc,
		AllocConstraints:      c.AllocConstraints,
		TargetVariance:        c.TargetVariance,
		TIClusters:            c.TIClusters,
		TIPrefixSubspaces:     c.TIPrefixSubspaces,
		DefaultVisitFrac:      c.DefaultVisitFrac,
		CenterPCA:             c.CenterPCA,
		Seed:                  c.Seed,
		KMeansIters:           c.KMeansIters,
		DisableMetrics:        c.DisableMetrics,
		AccuracyMode:          c.AccuracyMode,
		RecallSampleRate:      c.RecallSampleRate,
		Logger:                c.Logger,
		DriftAlertRatio:       c.DriftAlertRatio,
		ProfileLabels:         c.ProfileLabels,
		SLO:                   c.SLO,
	}
}

// Build trains a VAQ index over data (each row one vector, all rows the
// same length) and encodes all of it. Build learns from the data itself;
// use BuildWithTrainingSet to learn from a sample.
func Build(data [][]float32, cfg Config) (*Index, error) {
	m, err := vec.FromRows(data)
	if err != nil {
		return nil, fmt.Errorf("vaq: %w", err)
	}
	return buildMatrices(m, m, cfg)
}

// BuildWithTrainingSet trains dictionaries on train and encodes data.
func BuildWithTrainingSet(train, data [][]float32, cfg Config) (*Index, error) {
	tm, err := vec.FromRows(train)
	if err != nil {
		return nil, fmt.Errorf("vaq: train: %w", err)
	}
	dm, err := vec.FromRows(data)
	if err != nil {
		return nil, fmt.Errorf("vaq: data: %w", err)
	}
	return buildMatrices(tm, dm, cfg)
}

// BuildFlat trains an index over n vectors of dimension d stored
// contiguously in row-major order (no copy is made; the caller must not
// mutate data afterwards).
func BuildFlat(data []float32, n, d int, cfg Config) (*Index, error) {
	if n <= 0 || d <= 0 || len(data) != n*d {
		return nil, errors.New("vaq: flat data must have length n*d with n, d > 0")
	}
	m := &vec.Matrix{Rows: n, Cols: d, Data: data}
	return buildMatrices(m, m, cfg)
}

func buildMatrices(train, data *vec.Matrix, cfg Config) (*Index, error) {
	inner, err := core.Build(train, data, cfg.toCore())
	if err != nil {
		return nil, fmt.Errorf("vaq: %w", err)
	}
	return &Index{inner: inner}, nil
}

// Len reports the number of encoded vectors.
func (ix *Index) Len() int { return ix.inner.Len() }

// Dim reports the expected query dimensionality.
func (ix *Index) Dim() int { return ix.inner.Dim() }

// Search returns the approximate k nearest neighbors of q with the index's
// default pruning settings.
func (ix *Index) Search(q []float32, k int) ([]Result, error) {
	return ix.SearchWith(q, k, SearchOptions{})
}

// SearchWith returns the approximate k nearest neighbors under explicit
// options.
func (ix *Index) SearchWith(q []float32, k int, opt SearchOptions) ([]Result, error) {
	res, err := ix.inner.SearchWith(q, k, core.SearchOptions{
		Mode:      opt.Mode,
		VisitFrac: opt.VisitFrac,
		Subspaces: opt.Subspaces,
	})
	if err != nil {
		return nil, fmt.Errorf("vaq: %w", err)
	}
	return toResults(res), nil
}

func toResults(res []vec.Neighbor) []Result {
	out := make([]Result, len(res))
	for i, r := range res {
		out[i] = Result{ID: r.ID, Dist: r.Dist}
	}
	return out
}

// Stats describes a built index.
type Stats struct {
	// N is the number of encoded vectors; Dim the input dimensionality.
	N, Dim int
	// BitsPerSubspace is the adaptive allocation, most important
	// subspace first.
	BitsPerSubspace []int
	// SubspaceLengths is the number of (PCA) dimensions per subspace.
	SubspaceLengths []int
	// SubspaceVariances is each subspace's share of explained variance.
	SubspaceVariances []float64
	// CodeBytes is the packed size of the encoded dataset.
	CodeBytes int
	// TIClusters is the number of data-skipping clusters built.
	TIClusters int
	// Accuracy is the scan arithmetic mode the query kernels use.
	Accuracy AccuracyMode
}

// Stats returns a description of the trained index — the adaptive bit
// allocation, the subspace layout and the storage footprint.
func (ix *Index) Stats() Stats {
	return Stats{
		N:                 ix.inner.Len(),
		Dim:               ix.inner.Dim(),
		BitsPerSubspace:   ix.inner.Bits(),
		SubspaceLengths:   ix.inner.SubspaceLengths(),
		SubspaceVariances: ix.inner.SubspaceVariances(),
		CodeBytes:         ix.inner.CodeBytes(),
		TIClusters:        ix.inner.TIClusterCount(),
		Accuracy:          ix.inner.Accuracy(),
	}
}

// SetAccuracyMode switches the scan arithmetic at runtime — the opt-in
// hook for indexes loaded from disk, whose serialized form carries no
// accuracy mode (the integer store is derived, never stored). Switching
// to AccuracyFast builds the integer store; switching back to
// AccuracyExact drops it. In-flight queries finish on the mode they
// started with.
func (ix *Index) SetAccuracyMode(mode AccuracyMode) error {
	if err := ix.inner.SetAccuracyMode(mode); err != nil {
		return fmt.Errorf("vaq: %w", err)
	}
	return nil
}

// SearchStats instruments one query: how much work each pruning layer
// saved (see the field docs in internal/core.SearchStats).
type SearchStats = core.SearchStats

// Searcher is a reusable per-goroutine query context that avoids the
// per-query allocation of lookup tables. Not safe for concurrent use;
// create one per goroutine.
type Searcher struct {
	inner *core.Searcher
}

// LastStats reports the pruning instrumentation of the most recent query
// run through this Searcher.
func (s *Searcher) LastStats() SearchStats { return s.inner.LastStats() }

// NewSearcher returns a reusable query context for this index.
func (ix *Index) NewSearcher() *Searcher {
	return &Searcher{inner: ix.inner.NewSearcher()}
}

// Search runs one query through the reusable context.
func (s *Searcher) Search(q []float32, k int, opt SearchOptions) ([]Result, error) {
	res, err := s.inner.Search(q, k, core.SearchOptions{
		Mode:      opt.Mode,
		VisitFrac: opt.VisitFrac,
		Subspaces: opt.Subspaces,
	})
	if err != nil {
		return nil, fmt.Errorf("vaq: %w", err)
	}
	return toResults(res), nil
}
