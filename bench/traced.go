package main

import (
	"bytes"
	"fmt"
	"path/filepath"

	"vaq"
	"vaq/internal/core"
	"vaq/internal/kmeans"
	"vaq/internal/pca"
	"vaq/internal/quantizer"
	"vaq/internal/shard"
	"vaq/internal/vec"
)

// The traced pass times calls into each layer's public functions from
// outside: every number below is the benchmark's own span around one call,
// and every count comes from Searcher.LastStats(). It never feeds the
// end-to-end metrics, which are taken with no spans recorded.

// twinShards is the partition count of the sharded twin every workload's
// data is also built into, so shard.* reads the sharding tax at each
// operating point (on sharded_mixed the twin is the workload's own index).
const twinShards = 4

// coreConfig is the workload's public build configuration as internal/core
// takes it (vaq.Config keeps its own conversion private).
func coreConfig(sc scale, w workload) core.Config {
	c := sc.config(w)
	return core.Config{
		NumSubspaces: c.NumSubspaces,
		Budget:       c.Budget,
		MinBits:      c.MinBits,
		MaxBits:      c.MaxBits,
		Seed:         c.Seed,
		AccuracyMode: c.AccuracyMode,
	}
}

func neighborsToResults(nb []vec.Neighbor) []vaq.Result {
	out := make([]vaq.Result, len(nb))
	for i, r := range nb {
		out[i] = vaq.Result{ID: r.ID, Dist: r.Dist}
	}
	return out
}

// projectRows moves raw rows into ix's PCA space (untimed helper).
func projectRows(ix *core.Index, raw *vec.Matrix) (*vec.Matrix, error) {
	out := vec.NewMatrix(raw.Rows, raw.Cols)
	for i := 0; i < raw.Rows; i++ {
		z, err := ix.ProjectQuery(raw.Row(i))
		if err != nil {
			return nil, err
		}
		copy(out.Row(i), z)
	}
	return out, nil
}

func p50(ns []float64) float64 { return percentile(sortedCopy(ns), 0.50) }

// tracer bundles what every step of the traced pass needs.
type tracer struct {
	rec   *recorder
	check *checker
	out   map[string]summary
}

func (t *tracer) set(name string, v float64, n int) {
	for _, d := range perLayerMetrics {
		if d.name == name {
			t.out[name] = summary{Value: v, Unit: d.unit, Q1: v, Q3: v, N: n}
			return
		}
	}
	panic("undeclared per-layer metric " + name)
}

// timed records one span around f and returns its seconds.
func (t *tracer) timed(name string, parent int, f func() error) (float64, error) {
	id := t.rec.begin(name, parent, -1)
	err := f()
	ns := t.rec.end(id)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	return float64(ns) / 1e9, nil
}

// tracedPass derives every per-layer metric for the workload m measured and
// writes the spans under outDir.
func tracedPass(m *measured, seconds float64, outDir string) (map[string]summary, error) {
	e := m.e
	sc, w := e.sc, e.w
	nq := int(float64(sc.tracedQ) * seconds)
	if nq < 50 {
		nq = 50
	}
	t := &tracer{rec: newRecorder(16 * nq), check: m.check, out: map[string]summary{}}
	queries := e.source(streamTraced).take(nq)
	trainM, err := vec.FromRows(e.train)
	if err != nil {
		return nil, err
	}
	dataM, err := vec.FromRows(e.base)
	if err != nil {
		return nil, err
	}

	// One staged build: the two halves of core.Build as separate spans. It
	// is built with DisableMetrics, which the stream does not carry, so
	// reading it back gives the same index with the registry on.
	cfg := coreConfig(sc, w)
	cfgOff := cfg
	cfgOff.DisableMetrics = true
	var trained *core.Trained
	var staged *core.Index
	root := t.rec.begin("build", -1, -1)
	trainS, err := t.timed("core.train", root, func() (err error) {
		trained, err = core.Train(trainM, cfgOff)
		return err
	})
	if err != nil {
		return nil, err
	}
	encodeIndexS, err := t.timed("core.encode_index", root, func() (err error) {
		staged, err = trained.EncodeIndex(dataM)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.rec.end(root)
	t.set("core.train_s", trainS, 1)
	t.set("core.encode_index_s", encodeIndexS, 1)

	// Written twice: the first pass only sizes the buffer, so the timed one
	// measures serialization, not buffer growth.
	var sized, buf bytes.Buffer
	if _, err := staged.WriteTo(&sized); err != nil {
		return nil, err
	}
	buf.Grow(sized.Len())
	writeS, err := t.timed("core.write_to", -1, func() error {
		_, err := staged.WriteTo(&buf)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.set("core.write_mb_per_s", float64(buf.Len())/1e6/writeS, 1)
	var ix *core.Index
	var readMS []float64
	for i := 0; i < 3; i++ {
		s, err := t.timed("core.read", -1, func() (err error) {
			ix, err = core.Read(bytes.NewReader(buf.Bytes()))
			return err
		})
		if err != nil {
			return nil, err
		}
		readMS = append(readMS, s*1e3)
	}
	t.set("core.read_ms", median(readMS), len(readMS))

	if err := t.buildLayers(trained.Config(), ix, trainM, dataM, trainS, encodeIndexS); err != nil {
		return nil, err
	}
	if err := t.queryLayers(w, ix, staged, trained.Config().EACheckEvery, sc.addBatch, queries); err != nil {
		return nil, err
	}
	if err := t.shardLayers(m, cfg, trainM, dataM, queries); err != nil {
		return nil, err
	}
	if err := t.armedRatios(m, queries, filepath.Join(outDir, "bundles")); err != nil {
		return nil, err
	}
	t.context(m, nq)

	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, e.seed))
	if err := t.rec.writeJSON(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return t.out, nil
}

// buildLayers replays the calls core.Train and EncodeIndex make into pca,
// quantizer and kmeans, one span each, on the same inputs.
func (t *tracer) buildLayers(cfg core.Config, ix *core.Index, trainM, dataM *vec.Matrix, trainS, encodeIndexS float64) error {
	var model *pca.Model
	fitS, err := t.timed("pca.fit", -1, func() (err error) {
		model, err = pca.Fit(trainM, pca.Options{Center: cfg.CenterPCA})
		return err
	})
	if err != nil {
		return err
	}
	t.set("pca.fit_s", fitS, 1)
	projTrainS, err := t.timed("pca.project_train", -1, func() error {
		_, err := model.Project(trainM)
		return err
	})
	if err != nil {
		return err
	}
	projDataS, err := t.timed("pca.project_data", -1, func() error {
		_, err := model.Project(dataM)
		return err
	})
	if err != nil {
		return err
	}
	t.set("pca.project_rows_per_s", float64(dataM.Rows)/projDataS, dataM.Rows)

	// The dictionaries are replayed in the index's own space, with its own
	// subspace layout and bit allocation.
	cb := ix.Codebooks()
	trainZ, err := projectRows(ix, trainM)
	if err != nil {
		return err
	}
	dataZ, err := projectRows(ix, dataM)
	if err != nil {
		return err
	}
	trainCfg := quantizer.TrainConfig{
		Seed: cfg.Seed, MaxIter: cfg.KMeansIters, Parallel: true,
		HierarchicalThreshold: cfg.HierarchicalThreshold,
	}
	codebooksS, err := t.timed("quantizer.train_codebooks", -1, func() error {
		_, err := quantizer.TrainCodebooks(trainZ, cb.Sub, cb.Bits, trainCfg)
		return err
	})
	if err != nil {
		return err
	}
	t.set("quantizer.train_codebooks_s", codebooksS, 1)
	encodeS, err := t.timed("quantizer.encode", -1, func() error {
		_, err := cb.Encode(dataZ, true)
		return err
	})
	if err != nil {
		return err
	}
	t.set("quantizer.encode_vectors_per_s", float64(dataZ.Rows)/encodeS, dataZ.Rows)

	sub0 := trainZ.SelectColumnsRange(cb.Sub.Offsets[0], cb.Sub.Offsets[0]+cb.Sub.Lengths[0])
	var km *kmeans.Result
	kmeansS, err := t.timed("kmeans.train", -1, func() (err error) {
		km, err = kmeans.Train(sub0, kmeans.Config{
			K: 1 << cb.Bits[0], Seed: cfg.Seed, MaxIter: cfg.KMeansIters,
			HierarchicalThreshold: cfg.HierarchicalThreshold,
		})
		return err
	})
	if err != nil {
		return err
	}
	pairs := float64(sub0.Rows) * float64(km.Centroids.Rows) * float64(km.Iterations)
	t.set("kmeans.point_centroid_ns", kmeansS*1e9/pairs, 1)

	// What core adds around its children: allocation and balancing in
	// Train; TI clustering, layout and diagnostics in EncodeIndex.
	t.set("core.train_self_s", trainS-fitS-projTrainS-codebooksS, 1)
	t.set("core.encode_self_s", encodeIndexS-projDataS-encodeS, 1)
	return nil
}

// queryLayers runs the query path of one client layer by layer. The calls
// whose p50s are subtracted from one another are made back to back for each
// query, so a slow second of the machine hits both sides of a difference.
func (t *tracer) queryLayers(w workload, ix, metricsOff *core.Index, checkEvery, addBatch int, queries [][]float32) error {
	rec, nq := t.rec, len(queries)
	cb := ix.Codebooks()
	opt := core.SearchOptions{VisitFrac: w.visitFrac}
	// One visited cluster: what a query costs before the scan proper.
	oneCluster := core.SearchOptions{VisitFrac: 1e-9}
	lut := cb.BuildLUT(make([]float32, cb.Sub.Dim()))
	// floatTables times the table fill and a one-cluster search on the
	// float kernels; their difference is the cluster ranking.
	floatTables := func(s *core.Searcher, i int, qz []float32) error {
		id := rec.begin("quantizer.fill_lut", -1, i)
		cb.FillLUT(qz, lut)
		rec.end(id)
		id = rec.begin("core.min_visit_exact", -1, i)
		_, err := s.SearchProjected(qz, w.k, oneCluster)
		rec.end(id)
		return err
	}
	exact := w.accuracy == vaq.AccuracyExact
	if !exact {
		// ix arrives as read, on the float kernels. Ranking is the same code
		// in both modes but can only be told apart from the table fill on
		// the float path (the integer path fills smaller tables of its own
		// that cannot be called from outside), so it is timed here, before
		// the index switches to the workload's mode.
		s := ix.NewSearcher()
		for i, q := range queries {
			qz, err := ix.ProjectQuery(q)
			if err != nil {
				return err
			}
			if err := floatTables(s, i, qz); err != nil {
				return err
			}
		}
		if err := ix.SetAccuracyMode(w.accuracy); err != nil {
			return err
		}
	}

	s := ix.NewSearcher()
	qzs := make([][]float32, nq)
	var sum core.SearchStats
	var firstCheck int
	for i, q := range queries {
		root := rec.begin("query", -1, i)
		id := rec.begin("pca.project", root, i)
		qz, err := ix.ProjectQuery(q)
		rec.end(id)
		if err != nil {
			return err
		}
		id = rec.begin("core.search_projected", root, i)
		res, err := s.SearchProjected(qz, w.k, opt)
		rec.end(id)
		rec.end(root)
		t.check.answer("traced", neighborsToResults(res), err, w.k, ix.Len())
		qzs[i] = qz
		st := s.LastStats()
		sum.ClustersVisited += st.ClustersVisited
		sum.CodesConsidered += st.CodesConsidered
		sum.CodesSkippedTI += st.CodesSkippedTI
		sum.CodesAbandonedEA += st.CodesAbandonedEA
		sum.Lookups += st.Lookups
		if checkEvery < len(st.AbandonDepths) {
			firstCheck += int(st.AbandonDepths[checkEvery])
		}

		// In the workload's own mode: tables, integer quantisation on the
		// fast path, cluster ranking.
		if exact {
			err = floatTables(s, i, qz)
		} else {
			id = rec.begin("core.min_visit", -1, i)
			_, err = s.SearchProjected(qz, w.k, oneCluster)
			rec.end(id)
		}
		if err != nil {
			return err
		}
	}
	searchNS := p50(rec.durations("core.search_projected"))
	fillNS := p50(rec.durations("quantizer.fill_lut"))
	minVisitExactNS := p50(rec.durations("core.min_visit_exact"))
	minVisitNS := minVisitExactNS
	if !exact {
		minVisitNS = p50(rec.durations("core.min_visit"))
	}
	t.set("pca.project_ns", p50(rec.durations("pca.project")), nq)
	t.set("core.search_projected_ns", searchNS, nq)
	t.set("quantizer.fill_lut_ns", fillNS, nq)
	t.set("core.min_visit_ns", minVisitNS, nq)
	t.set("core.rank_ns", minVisitExactNS-fillNS, nq)
	scanNS := searchNS - minVisitNS
	t.set("core.scan_ns", scanNS, nq)

	// Registry on against registry off: two copies of the index, alternating
	// per query so drift hits both sides alike. A pass of its own, because
	// each copy evicts the other's codes from the cache, which the numbers
	// above must not pay for.
	off := metricsOff.NewSearcher()
	for i, qz := range qzs {
		id := rec.begin("core.search_projected.metrics_on", -1, i)
		_, err := s.SearchProjected(qz, w.k, opt)
		rec.end(id)
		if err != nil {
			return err
		}
		id = rec.begin("core.search_projected.metrics_off", -1, i)
		_, err = off.SearchProjected(qz, w.k, opt)
		rec.end(id)
		if err != nil {
			return err
		}
	}
	t.set("core.metrics_off_p50_ratio",
		p50(rec.durations("core.search_projected.metrics_off"))/p50(rec.durations("core.search_projected.metrics_on")), nq)

	codes := float64(sum.CodesConsidered) / float64(nq)
	t.set("core.scan_ns_per_code", scanNS/codes, sum.CodesConsidered)
	t.set("core.codes_per_s_per_core", 1e9*codes/scanNS, sum.CodesConsidered)
	t.set("core.clusters_visited_per_query", float64(sum.ClustersVisited)/float64(nq), nq)
	t.set("core.codes_considered_per_query", codes, nq)
	t.set("core.lookups_per_code", float64(sum.Lookups)/float64(sum.CodesConsidered), sum.CodesConsidered)
	t.set("core.ti_skip_ratio", float64(sum.CodesSkippedTI)/float64(sum.CodesConsidered), sum.CodesConsidered)
	t.set("core.ea_abandon_ratio", float64(sum.CodesAbandonedEA)/float64(sum.CodesConsidered), sum.CodesConsidered)
	t.set("core.first_check_abandon_ratio", float64(firstCheck)/float64(sum.CodesAbandonedEA), sum.CodesAbandonedEA)

	// A few Add batches worth of single-vector encodes.
	batch := qzs[:min(4*addBatch, nq)]
	code := make([]uint16, cb.Sub.M())
	id := rec.begin("quantizer.encode_vec", -1, -1)
	for _, qz := range batch {
		cb.EncodeVec(qz, code)
	}
	t.set("quantizer.encode_vec_ns", float64(rec.end(id))/float64(len(batch)), len(batch))
	return nil
}

// shardLayers times the scatter-gather against its shards searched one
// after another.
func (t *tracer) shardLayers(m *measured, cfg core.Config, trainM, dataM *vec.Matrix, queries [][]float32) error {
	w, rec := m.e.w, t.rec
	var sh *shard.Index
	var err error
	if w.shards > 0 {
		if sh, err = shard.Read(bytes.NewReader(m.raw)); err != nil {
			return err
		}
		for i := 0; i < sh.Shards(); i++ {
			if err := sh.Shard(i).SetAccuracyMode(w.accuracy); err != nil {
				return err
			}
		}
	} else if sh, err = shard.Build(trainM, dataM, cfg, shard.Options{Shards: twinShards}); err != nil {
		return err
	}
	opt := core.SearchOptions{VisitFrac: w.visitFrac}
	nq := len(queries)
	qzs := make([][]float32, nq)
	for i, q := range queries {
		root := rec.begin("shard.query", -1, i)
		id := rec.begin("shard.project", root, i)
		qz, err := sh.Shard(0).ProjectQuery(q)
		rec.end(id)
		if err != nil {
			return err
		}
		id = rec.begin("shard.search", root, i)
		res, err := sh.SearchProjected(qz, w.k, opt)
		rec.end(id)
		rec.end(root)
		t.check.answer("traced shard", neighborsToResults(res), err, w.k, sh.Len())
		qzs[i] = qz
	}
	searchNS := p50(rec.durations("shard.search"))
	t.set("shard.search_ns", searchNS, nq)

	searchers := make([]*core.Searcher, sh.Shards())
	for i := range searchers {
		searchers[i] = sh.Shard(i).NewSearcher()
	}
	sums, maxes := make([]float64, nq), make([]float64, nq)
	codes := 0
	for i, qz := range qzs {
		root := rec.begin("shard.serial", -1, i)
		for _, s := range searchers {
			id := rec.begin("shard.shard_search", root, i)
			_, err := s.SearchProjected(qz, w.k, opt)
			ns := float64(rec.end(id))
			if err != nil {
				return err
			}
			sums[i] += ns
			if ns > maxes[i] {
				maxes[i] = ns
			}
			codes += s.LastStats().CodesConsidered
		}
		rec.end(root)
	}
	sumNS := p50(sums)
	t.set("shard.sum_shard_ns", sumNS, nq)
	t.set("shard.max_shard_ns", p50(maxes), nq)
	scatter := sh.Shards()
	if n := workers(); n < scatter {
		scatter = n
	}
	t.set("shard.parallel_efficiency", sumNS/(float64(scatter)*searchNS), nq)
	t.set("shard.codes_considered_per_query", float64(codes)/float64(nq), nq)
	return nil
}

// armedRatios prices each observability toggle: p50 of Search with it
// armed over p50 with nothing armed, on a fresh copy of the index.
func (t *tracer) armedRatios(m *measured, queries [][]float32, bundleDir string) error {
	w := m.e.w
	ix, err := load(m.raw, w.shards > 0)
	if err != nil {
		return err
	}
	if u, ok := ix.(*vaq.Index); ok {
		if err := u.SetAccuracyMode(w.accuracy); err != nil {
			return err
		}
	}
	opt := w.options()
	pass := func(name string) float64 {
		for i, q := range queries {
			id := t.rec.begin(name, -1, i)
			res, err := ix.SearchWith(q, w.k, opt)
			t.rec.end(id)
			t.check.answer(name, res, err, w.k, ix.Len())
		}
		return p50(t.rec.durations(name))
	}
	// Unarmed passes before, between and after, so drift over the passes
	// lands in the base as much as in any armed side.
	base := []float64{pass("vaq.search.unarmed_0")}
	ix.EnableTracing(vaq.TraceConfig{})
	trace := pass("vaq.search.trace_armed")
	ix.DisableTracing()
	ix.EnableCapture(vaq.CaptureConfig{})
	capture := pass("vaq.search.workload_armed")
	ix.DisableCapture()
	base = append(base, pass("vaq.search.unarmed_1"))
	if _, err := ix.EnableHistory("bench", vaq.HistoryConfig{}); err != nil {
		return err
	}
	history := pass("vaq.search.history_armed")
	ix.DisableHistory()
	if _, err := ix.EnableFlightRecorder("bench", vaq.BundleConfig{Dir: bundleDir}); err != nil {
		return err
	}
	bundle := pass("vaq.search.bundle_armed")
	if err := ix.DisableFlightRecorder(); err != nil {
		return err
	}
	base = append(base, pass("vaq.search.unarmed_2"))
	unarmed := median(base)
	n := len(queries)
	t.set("trace.armed_p50_ratio", trace/unarmed, n)
	t.set("workload.armed_p50_ratio", capture/unarmed, n)
	t.set("history.armed_p50_ratio", history/unarmed, n)
	t.set("bundle.armed_p50_ratio", bundle/unarmed, n)
	return nil
}

// context derives the metrics that put the untraced phases of this same
// run beside the traced ones.
func (t *tracer) context(m *measured, nq int) {
	lat := sortedCopy(m.single.lat)
	// Central values of this run's own untraced phases, not their quietest
	// windows: the traced p50s they sit beside are central values too.
	p50us := median(m.single.p50)
	singleQPS := float64(len(lat)) / m.single.wall.Seconds()
	t.set("vaq.query_p999_us", percentile(lat, 0.999), len(lat))
	t.set("vaq.single_qps", singleQPS, len(lat))
	t.set("vaq.batch_speedup", median(m.batch)/singleQPS, m.batchN)
	t.set("vaq.mixed_sched_lag_p99_us", percentile(sortedCopy(m.mixed.lag), 0.99), len(m.mixed.lag))
	stalled := 0
	for _, l := range m.mixed.lat {
		if l > 10*p50us {
			stalled++
		}
	}
	t.set("vaq.mixed_stalled_share", float64(stalled)/float64(len(m.mixed.lat)), len(m.mixed.lat))
	// The traced root span of the workload's own path over the untraced p50.
	root := "query"
	if m.e.w.shards > 0 {
		root = "shard.query"
	}
	t.set("vaq.trace_overhead_ratio", p50(t.rec.durations(root))/1e3/p50us, nq)

	// What Add does beyond projecting and encoding its batch: TI insert and
	// the blocked-store rebuild, under the write lock.
	perVectorNS := t.out["pca.project_ns"].Value + t.out["quantizer.encode_vec_ns"].Value
	t.set("shard.add_self_ms",
		median(m.mixed.addMS)-perVectorNS*float64(m.e.sc.addBatch)/1e6, len(m.mixed.addMS))
}
