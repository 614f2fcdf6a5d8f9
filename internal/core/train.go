package core

import (
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"time"

	"vaq/internal/diag"
	"vaq/internal/linalg"
	"vaq/internal/metrics"
	"vaq/internal/pca"
	"vaq/internal/quantizer"
	"vaq/internal/vec"
)

// Trained is the outcome of the learning half of a build: the PCA rotation,
// the balanced subspace layout, the adaptive bit allocation and the trained
// dictionaries — everything that depends only on the training sample, none
// of the per-dataset state. It is immutable once returned, so one Trained
// can encode many partitions concurrently (EncodeIndex is safe to call from
// multiple goroutines): a sharded build trains once on a shared sample and
// fans the per-shard encodes out in parallel, guaranteeing every shard
// quantizes against the same codebooks and therefore produces comparable
// distances.
type Trained struct {
	cfg      Config // defaults applied and validated
	model    *pca.Model
	ratios   []float64
	subVar   []float64
	bits     []int
	cb       *quantizer.Codebooks
	queryDim int
	// trainZ is the projected training matrix, kept so Build can reuse it
	// as the dataset projection when train == data (the historical fast
	// path — dropping it would change nothing but waste a projection).
	trainZ *vec.Matrix
	// report carries the training-phase timings (PCA, Allocation,
	// Training); trainWall the wall clock of the whole Train call, folded
	// into each encoded index's Total.
	report    metrics.BuildReport
	trainWall time.Duration
}

// Train runs the learning half of Build on the training sample: PCA
// (Algorithm 1), subspace construction and partial balancing (§III-B/C),
// bit allocation (Algorithm 2) and dictionary training (Algorithm 3 lines
// 1-23). The result encodes datasets via EncodeIndex.
func Train(train *vec.Matrix, cfg Config) (*Trained, error) {
	cfg = cfg.withDefaults()
	if train == nil || train.Rows == 0 {
		return nil, errors.New("core: empty train matrix")
	}
	d := train.Cols
	m := cfg.NumSubspaces
	if m < 1 || m > d {
		return nil, fmt.Errorf("core: NumSubspaces=%d invalid for %d dimensions", m, d)
	}
	if cfg.AccuracyMode != AccuracyExact && cfg.AccuracyMode != AccuracyFast {
		return nil, fmt.Errorf("core: unknown AccuracyMode %d", cfg.AccuracyMode)
	}
	if err := vec.CheckFinite(train); err != nil {
		return nil, fmt.Errorf("core: train: %w", err)
	}
	var report metrics.BuildReport
	trainStart := time.Now()

	// Step 1 (Algorithm 1): eigendecomposition, descending eigenvalues.
	phase := time.Now()
	model, err := pca.Fit(train, pca.Options{Center: cfg.CenterPCA, Method: linalg.EigAuto})
	if err != nil {
		return nil, err
	}
	report.PCA = time.Since(phase)
	ratios := model.ExplainedVarianceRatio()

	// Step 2 (§III-B): subspace lengths (uniform or variance-clustered).
	lengths, err := buildSubspaceLengths(ratios, m, cfg.NonUniform)
	if err != nil {
		return nil, err
	}

	// Step 3 (§III-C): partial balancing permutation of the PCs.
	if !cfg.DisablePartialBalance {
		perm := partialBalance(ratios, lengths)
		if err := model.PermuteComponents(perm); err != nil {
			return nil, err
		}
		ratios = applyPermutationFloat64(ratios, perm)
	}
	subVar := subspaceVariances(ratios, lengths)

	// Step 4 (Algorithm 2): adaptive bit allocation.
	phase = time.Now()
	bits, err := allocateBits(cfg.Alloc, allocParams{
		Weights:        subVar,
		Budget:         cfg.Budget,
		MinBits:        cfg.MinBits,
		MaxBits:        cfg.MaxBits,
		TargetVariance: cfg.TargetVariance,
		Extra:          cfg.AllocConstraints,
	})
	if err != nil {
		return nil, err
	}
	report.Allocation = time.Since(phase)

	// Step 5 (Algorithm 3 lines 1-23): project the sample and train the
	// variable-size dictionaries.
	trainZ, err := model.Project(train)
	if err != nil {
		return nil, err
	}
	sub, err := quantizer.FromLengths(lengths)
	if err != nil {
		return nil, err
	}
	phase = time.Now()
	cb, err := quantizer.TrainCodebooks(trainZ, sub, bits, quantizer.TrainConfig{
		Seed:                  cfg.Seed,
		MaxIter:               cfg.KMeansIters,
		Parallel:              true,
		HierarchicalThreshold: cfg.HierarchicalThreshold,
	})
	if err != nil {
		return nil, err
	}
	report.Training = time.Since(phase)
	return &Trained{
		cfg:       cfg,
		model:     model,
		ratios:    ratios,
		subVar:    subVar,
		bits:      bits,
		cb:        cb,
		queryDim:  d,
		trainZ:    trainZ,
		report:    report,
		trainWall: time.Since(trainStart),
	}, nil
}

// Dim reports the input dimensionality the trained model expects.
func (t *Trained) Dim() int { return t.queryDim }

// Config returns the build configuration with defaults applied.
func (t *Trained) Config() Config { return t.cfg }

// EncodeIndex quantizes data against the trained dictionaries and
// assembles a fully searchable Index (codes, TI skip structure, scan
// stores, diagnostics baseline). Safe for concurrent use: a single
// Trained can encode independent partitions in parallel.
func (t *Trained) EncodeIndex(data *vec.Matrix) (*Index, error) {
	return t.encodeIndex(data, nil)
}

// encodeIndex is EncodeIndex with an optional precomputed projection of
// data (Build passes the training projection through when train == data).
func (t *Trained) encodeIndex(data, dataZ *vec.Matrix) (*Index, error) {
	cfg := t.cfg
	if data == nil || data.Rows == 0 {
		return nil, errors.New("core: empty data matrix")
	}
	if data.Cols != t.queryDim {
		return nil, fmt.Errorf("core: data dim %d != trained dim %d", data.Cols, t.queryDim)
	}
	report := t.report
	encodeStart := time.Now()
	var err error
	if dataZ == nil {
		// data is not the (already checked) training matrix.
		if err := vec.CheckFinite(data); err != nil {
			return nil, fmt.Errorf("core: data: %w", err)
		}
		dataZ, err = t.model.Project(data)
		if err != nil {
			return nil, err
		}
	}
	phase := time.Now()
	codes, err := t.cb.Encode(dataZ, true)
	if err != nil {
		return nil, err
	}
	report.Encoding = time.Since(phase)

	// Step 6 (Algorithm 3 lines 24-48): TI cluster structure.
	clusterCount := cfg.TIClusters
	if clusterCount == 0 {
		clusterCount = data.Rows / 64
		if clusterCount > 1000 {
			clusterCount = 1000
		}
		if clusterCount < 1 {
			clusterCount = 1
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 104729))
	phase = time.Now()
	ti := buildTIIndex(t.cb, codes, clusterCount, cfg.TIPrefixSubspaces, rng)
	report.TIClustering = time.Since(phase)

	// Step 7: derive the scan-optimized physical layout (cluster-
	// contiguous, blocked-transposed, uint8 where dictionaries allow).
	phase = time.Now()
	blocked := buildBlockedStore(t.cb, codes, ti)
	var fast *fastStore
	if cfg.AccuracyMode == AccuracyFast {
		fast = buildFastStore(t.cb, codes, ti, cfg.Seed, nil)
	}
	report.Layout = time.Since(phase)
	// Step 8: the diagnostics baseline — the Build-time IndexReport. The
	// projected dataset is still on hand here, so the distortion fields
	// are exact; Diagnose carries them forward once dataZ is gone.
	phase = time.Now()
	baseRep := diag.Compute(diag.Input{
		N: data.Rows, Dim: t.queryDim, Bits: t.bits, VarianceShares: t.subVar,
		Codebooks: t.cb, Codes: codes, ClusterSizes: ti.sizes(), Projected: dataZ,
	})
	report.Diagnostics = time.Since(phase)
	report.Total = t.trainWall + time.Since(encodeStart)

	m := cfg.NumSubspaces
	var reg *metrics.IndexMetrics
	if !cfg.DisableMetrics {
		// Sized for attribution (a query abandons after 0..m lookups) and
		// for the per-subspace drift gauges.
		reg = metrics.NewSized(m+1, m)
	}
	ix := &Index{
		cfg:      cfg,
		model:    t.model,
		ratios:   t.ratios,
		subVar:   t.subVar,
		bits:     t.bits,
		cb:       t.cb,
		queryDim: t.queryDim,
		metrics:  reg,
		report:   report,
	}
	st := &state{n: data.Rows, codes: codes, ti: ti, blocked: blocked, fast: fast}
	if cfg.RecallSampleRate > 0 {
		st.retained = dataZ
		ix.recallEvery = sampleStride(cfg.RecallSampleRate)
	}
	if cfg.SLO != nil && reg != nil {
		reg.ConfigureSLO(*cfg.SLO, ix.sloBreach)
	}
	st.driftEWMA = ix.initDiagnostics(baseRep)
	ix.state.Store(st)
	ix.SetProfileLabel("vaq")
	if cfg.Logger != nil {
		cfg.Logger.Info("vaq.build",
			slog.Int("n", data.Rows), slog.Int("dim", t.queryDim),
			slog.Int("subspaces", m), slog.Int("budget", cfg.Budget),
			slog.Int("ti_clusters", len(ti.clusters)),
			slog.String("accuracy", cfg.AccuracyMode.String()),
			slog.Duration("pca", report.PCA),
			slog.Duration("allocation", report.Allocation),
			slog.Duration("training", report.Training),
			slog.Duration("encoding", report.Encoding),
			slog.Duration("ti_clustering", report.TIClustering),
			slog.Duration("layout_build", report.Layout),
			slog.Duration("diagnostics", report.Diagnostics),
			slog.Duration("total", report.Total))
	}
	return ix, nil
}
