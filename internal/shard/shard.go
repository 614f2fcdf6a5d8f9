// Package shard partitions a dataset across S independent VAQ indexes and
// presents them as one: training happens once on a shared sample (so every
// shard quantizes against the same rotation, bit allocation and
// dictionaries and their distances are directly comparable), encoding runs
// per-shard in parallel, queries scatter to per-shard searchers on a
// bounded worker pool and gather through a deterministic k-way merge, and
// Add routes whole batches to one shard so concurrent ingest no longer
// serializes on a single write lock.
//
// Vectors are striped round-robin at build time: global id g lives in
// shard g mod S at local id g div S. Each shard keeps a local-to-global id
// mapping (an immutable slice behind an atomic pointer — Add publishes a
// grown copy), so per-shard results are mapped before merging. The merge
// is ordered by (distance, global id), the same strict total order the
// single-index kernel's Results() uses; with S=1 the shard index is
// bit-identical to an unsharded build, serialized bytes included.
//
// While shards drain one by one, the running global k-th distance is fed
// back into not-yet-started shards as SearchOptions.InitialThreshold, so
// cross-shard pruning compounds the way the single index's own heap
// threshold does within one scan.
package shard

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vaq/internal/bundle"
	"vaq/internal/core"
	"vaq/internal/diag"
	"vaq/internal/history"
	"vaq/internal/metrics"
	"vaq/internal/trace"
	"vaq/internal/vec"
	"vaq/internal/workload"
)

// Policy selects how Add routes incoming batches to shards.
type Policy uint8

const (
	// PolicyRoundRobin rotates whole batches across shards (default).
	PolicyRoundRobin Policy = iota
	// PolicyLeastLoaded sends each batch to the currently smallest shard,
	// rebalancing skew from uneven batch sizes.
	PolicyLeastLoaded
)

func (p Policy) String() string {
	switch p {
	case PolicyRoundRobin:
		return "round-robin"
	case PolicyLeastLoaded:
		return "least-loaded"
	}
	return "unknown"
}

// Options shape the sharded index around one core.Config.
type Options struct {
	// Shards is the partition count S (clamped to the dataset size; 1 is
	// the degenerate single-index case).
	Shards int
	// Policy selects the Add routing policy (default PolicyRoundRobin).
	Policy Policy
	// Workers bounds the per-query scatter concurrency (0 = min(S,
	// GOMAXPROCS)). Runtime-only: not serialized.
	Workers int
	// SkewAlertRatio fires the edge-triggered vaq.skew alert when the
	// windowed mean shard skew ratio (slowest shard latency over mean
	// shard latency per query) reaches this threshold. 0 disables the
	// alert; the skew telemetry itself is always on when metrics are.
	// Runtime-only: not serialized.
	SkewAlertRatio float64
}

// shardState is one partition: its index, the local-to-global id mapping
// (copy-on-write behind an atomic pointer so queries never lock), a pool
// of reusable searchers, and the per-shard Add lock.
type shardState struct {
	ix  *core.Index
	ids atomic.Pointer[[]int32]
	// unordered latches when concurrent Adds interleave batches on this
	// shard so the mapping is no longer monotone; mapped result lists are
	// then re-sorted before merging to keep the (dist, global id) order.
	unordered atomic.Bool
	pool      sync.Pool // *core.Searcher
	addMu     sync.Mutex
}

func (st *shardState) getSearcher() *core.Searcher {
	if s, ok := st.pool.Get().(*core.Searcher); ok {
		return s
	}
	return st.ix.NewSearcher()
}

func (st *shardState) putSearcher(s *core.Searcher) { st.pool.Put(s) }

// Index is a sharded VAQ index: S partitions sharing one trained model.
type Index struct {
	opts   Options
	dim    int
	states []*shardState
	// nextID is the global id allocator: Build seeds it with the dataset
	// size, Add reserves ranges with one atomic add (the lock-free half of
	// the ingest path — only the chosen shard's encode takes a lock).
	nextID atomic.Int64
	// rr drives round-robin batch routing.
	rr atomic.Uint64
	// reg is the merged end-to-end registry: one RecordSearch per global
	// query (per-shard pruning stats summed, latency measured around the
	// whole scatter-gather). The per-shard registries stay live for
	// per-shard publishing. nil under DisableMetrics.
	reg    *metrics.IndexMetrics
	logger *slog.Logger
	// tracer, when set (EnableTracing/AttachTracer), files one parent
	// QueryTrace per sharded query with per-shard wait/scan child spans
	// and bound-feedback events. capture, when set (EnableCapture),
	// samples merged queries into a replayable workload log. Both are
	// atomic so they can be toggled while queries are in flight; off,
	// each costs the hot path one pointer load.
	tracer  atomic.Pointer[trace.Tracer]
	capture atomic.Pointer[workload.Capture]
	// flight is the armed incident recorder (EnableFlightRecorder); the
	// scatter path never touches it — it subscribes to reg's alert bus.
	flight atomic.Pointer[bundle.Recorder]
	// hist is the armed metrics history collector (EnableHistory),
	// sampling the merged and per-shard registries on its own goroutine.
	hist atomic.Pointer[history.Collector]
}

// Build trains once on train (falling back to data) and encodes S
// partitions of data in parallel. cfg.RecallSampleRate and cfg.SLO are
// per-single-index features: the recall estimator is stripped from shard
// configs (a shard-local recall estimate would not be a global recall@k),
// and the SLO attaches to the merged registry where latency means
// end-to-end query latency.
func Build(train, data *vec.Matrix, cfg core.Config, opts Options) (*Index, error) {
	if data == nil || data.Rows == 0 {
		return nil, errors.New("shard: empty data matrix")
	}
	if int64(data.Rows) > math.MaxInt32+1 {
		// The local-to-global mapping stores ids as int32.
		return nil, fmt.Errorf("shard: %d rows exceed the int32 global id space", data.Rows)
	}
	if train == nil {
		train = data
	}
	if train.Cols != data.Cols {
		return nil, fmt.Errorf("shard: train dim %d != data dim %d", train.Cols, data.Cols)
	}
	// Checked here, before partitioning, so the error names the caller's
	// row rather than a shard-local one.
	if err := vec.CheckFinite(data); err != nil {
		return nil, fmt.Errorf("shard: data: %w", err)
	}
	s := opts.Shards
	if s < 1 {
		return nil, fmt.Errorf("shard: Shards=%d invalid (need >= 1)", s)
	}
	if s > data.Rows {
		s = data.Rows // never build an empty shard
	}
	if opts.Policy != PolicyRoundRobin && opts.Policy != PolicyLeastLoaded {
		return nil, fmt.Errorf("shard: unknown policy %d", opts.Policy)
	}
	opts.Shards = s
	shardCfg := cfg
	shardCfg.RecallSampleRate = 0
	shardCfg.SLO = nil

	t, err := core.Train(train, shardCfg)
	if err != nil {
		return nil, err
	}
	parts := partition(data, s)
	states := make([]*shardState, s)
	errs := make([]error, s)
	workers := s
	if mp := runtime.GOMAXPROCS(0); workers > mp {
		workers = mp
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				si := int(next.Add(1)) - 1
				if si >= s {
					return
				}
				ix, err := t.EncodeIndex(parts[si])
				if err != nil {
					errs[si] = fmt.Errorf("shard %d: %w", si, err)
					continue
				}
				st := &shardState{ix: ix}
				ids := stripeIDs(si, s, parts[si].Rows)
				st.ids.Store(&ids)
				states[si] = st
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	x := &Index{opts: opts, dim: data.Cols, states: states, logger: cfg.Logger}
	x.nextID.Store(int64(data.Rows))
	if !cfg.DisableMetrics {
		m := states[0].ix.Codebooks().Sub.M()
		x.reg = metrics.NewSized(m+1, m)
		if cfg.SLO != nil {
			x.reg.ConfigureSLO(*cfg.SLO, x.sloBreach)
		}
		x.reg.ConfigureSharded(metrics.ShardedConfig{
			Shards:         s,
			SkewAlertRatio: opts.SkewAlertRatio,
		}, x.skewBreach)
	}
	if cfg.Logger != nil {
		cfg.Logger.Info("vaq.shard.build",
			slog.Int("n", data.Rows), slog.Int("shards", s),
			slog.Int("build_workers", workers),
			slog.String("policy", opts.Policy.String()))
	}
	return x, nil
}

// partition stripes data rows round-robin into s matrices: global row g
// goes to partition g mod s at local row g div s.
func partition(data *vec.Matrix, s int) []*vec.Matrix {
	parts := make([]*vec.Matrix, s)
	for si := 0; si < s; si++ {
		rows := (data.Rows - si + s - 1) / s
		p := &vec.Matrix{Rows: rows, Cols: data.Cols}
		p.Data = make([]float32, 0, rows*data.Cols)
		for g := si; g < data.Rows; g += s {
			p.Data = append(p.Data, data.Row(g)...)
		}
		parts[si] = p
	}
	return parts
}

// stripeIDs is the build-time local-to-global mapping of partition si:
// local l holds global l*s + si.
func stripeIDs(si, s, rows int) []int32 {
	ids := make([]int32, rows)
	for l := range ids {
		ids[l] = int32(l*s + si)
	}
	return ids
}

// sloBreach surfaces merged-registry SLO budget exhaustion through the
// structured logger, mirroring the single-index event.
func (x *Index) sloBreach(kind string, remaining, burn float64) {
	if x.logger == nil {
		return
	}
	x.logger.Warn("vaq.slo",
		slog.String("objective", kind),
		slog.Float64("budget_remaining", remaining),
		slog.Float64("burn_rate", burn),
		slog.Int("shards", len(x.states)))
}

// skewBreach surfaces the merged registry's windowed shard-skew alert
// through the structured logger, mirroring the drift and SLO events.
func (x *Index) skewBreach(skew, imbalance float64, criticalShard int) {
	if x.logger == nil {
		return
	}
	x.logger.Warn("vaq.skew",
		slog.Float64("skew_ratio", skew),
		slog.Float64("load_imbalance", imbalance),
		slog.Int("critical_shard", criticalShard),
		slog.Int("shards", len(x.states)))
}

// EnableTracing installs a fresh per-query tracer built from cfg and
// returns it. From the next query on, every sharded search files one
// parent QueryTrace: a wait and a scan span per shard (the scan span
// carries that shard's TI/EA/lookup attribution), one bound-feedback
// event per cross-shard bound tightening, and a trailing merge span.
// Disabled, tracing costs the scatter path one pointer check.
func (x *Index) EnableTracing(cfg trace.Config) *trace.Tracer {
	t := trace.New(cfg)
	x.tracer.Store(t)
	return t
}

// DisableTracing detaches the tracer; in-flight queries may still file
// one last trace.
func (x *Index) DisableTracing() { x.tracer.Store(nil) }

// Tracer returns the active tracer, or nil when tracing is disabled.
func (x *Index) Tracer() *trace.Tracer { return x.tracer.Load() }

// AttachTracer points the scatter path at an existing tracer (nil
// detaches), so a caller can aggregate several indexes into one ring.
func (x *Index) AttachTracer(t *trace.Tracer) { x.tracer.Store(t) }

// EnableCapture installs a workload capture buffer on the merged query
// path and returns it. Sampled queries record the merged global result
// list — the scatter-gather ground truth — with the sharded config
// fingerprint and shard count in the log's provenance, so a replay can
// gate merge correctness across different shard counts. Off by default;
// off, the scatter path pays one pointer load.
func (x *Index) EnableCapture(cfg workload.Config) *workload.Capture {
	cfg.Fingerprint = x.ConfigFingerprint()
	cfg.Dim = x.dim
	cfg.Shards = len(x.states)
	c := workload.NewCapture(cfg)
	x.capture.Store(c)
	return c
}

// DisableCapture detaches the capture buffer; records already stored stay
// readable through the Capture returned by EnableCapture.
func (x *Index) DisableCapture() { x.capture.Store(nil) }

// Capture returns the active workload capture, or nil when capture is
// off.
func (x *Index) Capture() *workload.Capture { return x.capture.Load() }

// Len reports the total number of encoded vectors across all shards.
func (x *Index) Len() int { return int(x.nextID.Load()) }

// Dim reports the expected query dimensionality.
func (x *Index) Dim() int { return x.dim }

// Shards reports the partition count S.
func (x *Index) Shards() int { return len(x.states) }

// Shard exposes one partition's underlying index (read-only use: tests,
// diagnostics, the S=1 bit-identity gate).
func (x *Index) Shard(i int) *core.Index { return x.states[i].ix }

// ShardLens reports each shard's current vector count.
func (x *Index) ShardLens() []int {
	lens := make([]int, len(x.states))
	for i, st := range x.states {
		lens[i] = len(*st.ids.Load())
	}
	return lens
}

// Options returns the sharding options (with Shards clamped to the value
// actually built).
func (x *Index) Options() Options { return x.opts }

// Metrics returns the merged telemetry registry: one record per global
// query, pruning counters summed across the shards that served it, latency
// measured end-to-end around scatter and merge. nil when metrics are
// disabled. Per-shard registries remain reachable via Shard(i).Metrics().
func (x *Index) Metrics() *metrics.IndexMetrics { return x.reg }

// BuildReports returns each shard's per-phase build timings. The training
// phases (PCA, allocation, dictionary training) are shared work counted
// once but reported in every shard's view; the encode phases are genuinely
// per-shard and ran in parallel.
func (x *Index) BuildReports() []metrics.BuildReport {
	reps := make([]metrics.BuildReport, len(x.states))
	for i, st := range x.states {
		reps[i] = st.ix.BuildReport()
	}
	return reps
}

// PublishExpvar registers the merged registry under name and every
// per-shard registry under name/shard-i, all visible on /debug/vars and
// the Prometheus endpoint, plus the per-shard breakdown report on
// /debug/vaq/shards.
func (x *Index) PublishExpvar(name string) {
	Publish(name, x)
	if x.reg != nil {
		metrics.Publish(name, x.reg)
	}
	for i, st := range x.states {
		sub := fmt.Sprintf("%s/shard-%d", name, i)
		if m := st.ix.Metrics(); m != nil {
			metrics.Publish(sub, m)
		}
		st.ix.SetProfileLabel(sub)
	}
}

// PublishDiagnostics registers every shard's index-quality report provider
// under name/shard-i (GET /debug/vaq/report?index=...).
func (x *Index) PublishDiagnostics(name string) {
	for i, st := range x.states {
		diag.Publish(fmt.Sprintf("%s/shard-%d", name, i), st.ix.Diagnose)
	}
}

// Diagnose computes every shard's index-quality report.
func (x *Index) Diagnose() []*diag.Report {
	reps := make([]*diag.Report, len(x.states))
	for i, st := range x.states {
		reps[i] = st.ix.Diagnose()
	}
	return reps
}

// workerCount resolves the per-query scatter concurrency.
func (x *Index) workerCount() int {
	w := x.opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if s := len(x.states); w > s {
		w = s
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Search projects q once (all shards share the same trained rotation) and
// scatters it. Distances are squared Euclidean in the quantized space.
func (x *Index) Search(q []float32, k int, opt core.SearchOptions) ([]vec.Neighbor, error) {
	if k < 1 {
		x.reg.RecordError()
		return nil, fmt.Errorf("shard: k must be >= 1, got %d", k)
	}
	qz, err := x.states[0].ix.ProjectQuery(q)
	if err != nil {
		x.reg.RecordError()
		return nil, err
	}
	return x.searchProjected(qz, q, k, opt)
}

// SearchProjected runs one query already rotated into the shared PCA
// space.
func (x *Index) SearchProjected(qz []float32, k int, opt core.SearchOptions) ([]vec.Neighbor, error) {
	if k < 1 {
		x.reg.RecordError()
		return nil, fmt.Errorf("shard: k must be >= 1, got %d", k)
	}
	if err := vec.CheckFiniteVec(qz); err != nil {
		x.reg.RecordError()
		return nil, fmt.Errorf("shard: query: %w", err)
	}
	return x.searchProjected(qz, nil, k, opt)
}

// gatherState accumulates the scatter results under one mutex: the running
// global top-k (whose k-th distance feeds back to later shards), the
// summed per-shard pruning stats, and the per-shard result lists for the
// final deterministic merge.
type gatherState struct {
	mu      sync.Mutex
	tracker *vec.TopK
	lists   [][]vec.Neighbor
	errs    []error
	stats   core.SearchStats
	depths  []uint32
	ranks   []uint32
	// events are the bound-feedback events (tracing only), appended under
	// mu; boundEpoch mirrors len(events) so shards can snapshot "how many
	// bounds were live when I started" with one atomic load.
	events     []boundEvent
	boundEpoch atomic.Uint32
}

// fold merges one shard's mapped results and stats, and returns the
// tightened global bound; ok is false until the global tracker has k
// entries (an explicit flag, so a genuine k-th distance of exactly 0.0
// still propagates as a cross-shard bound).
func (g *gatherState) fold(si int, mapped []vec.Neighbor, st core.SearchStats) (bound float32, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.lists[si] = mapped
	for _, nb := range mapped {
		g.tracker.Push(nb.ID, nb.Dist)
	}
	g.stats.ClustersVisited += st.ClustersVisited
	g.stats.CodesConsidered += st.CodesConsidered
	g.stats.CodesSkippedTI += st.CodesSkippedTI
	g.stats.CodesAbandonedEA += st.CodesAbandonedEA
	g.stats.Lookups += st.Lookups
	if g.depths != nil && st.AbandonDepths != nil {
		for i, v := range st.AbandonDepths {
			if i < len(g.depths) {
				g.depths[i] += v
			}
		}
		for i, v := range st.TISkipsByRank {
			if i < len(g.ranks) {
				g.ranks[i] += v
			}
		}
	}
	if g.tracker.Full() {
		return g.tracker.Threshold(), true
	}
	return 0, false
}

// shardTiming is one shard's scatter evidence, written only by the worker
// that ran the shard (the scatter's wg.Wait publishes it to the gather
// side): queue wait, completion offset, the shard's own pruning stats, and
// the bound-event epoch the shard observed when it started.
type shardTiming struct {
	pickup time.Duration // scatter start → worker pickup
	done   time.Duration // scatter start → shard search finished
	stats  core.SearchStats
	epoch  uint32 // bound events already published when this shard started
}

// boundEvent records one cross-shard bound tightening for the parent
// trace: which shard published it, when, the bound value, and — filled in
// after the scatter — the downstream shards that started under it and the
// prunes they performed while it (or a successor) was in force.
type boundEvent struct {
	at           time.Duration
	shard        int
	bound        float32
	downShards   int
	downSkips    int
	downAbandons int
}

// recordBoundEvent appends one bound-feedback event under the gather lock
// and bumps the epoch counter so shards starting later can attribute their
// prunes to it.
func (g *gatherState) recordBoundEvent(si int, b float32, at time.Duration) {
	g.mu.Lock()
	g.events = append(g.events, boundEvent{at: at, shard: si, bound: b})
	g.boundEpoch.Store(uint32(len(g.events)))
	g.mu.Unlock()
}

func (x *Index) searchProjected(qz, rawQ []float32, k int, opt core.SearchOptions) ([]vec.Neighbor, error) {
	tr := x.tracer.Load()
	wcap := x.capture.Load()
	// Any observer needs the per-shard clocks; with all three off the
	// scatter path takes no timestamps at all.
	observed := x.reg != nil || tr != nil || wcap != nil
	var start time.Time
	if observed {
		start = time.Now()
	}
	s := len(x.states)
	g := &gatherState{
		tracker: vec.NewTopK(k),
		lists:   make([][]vec.Neighbor, s),
		errs:    make([]error, s),
	}
	if x.reg != nil {
		g.depths = make([]uint32, x.states[0].ix.Codebooks().Sub.M()+1)
		g.ranks = make([]uint32, metrics.ClusterRankBuckets)
	}
	var times []shardTiming
	if observed {
		times = make([]shardTiming, s)
	}
	traceOn := tr != nil
	// bound carries the running global k-th distance from finished shards
	// into not-yet-started ones: boundSet | float32 bits, so "no bound
	// yet" (0) is distinct from a genuine bound of 0.0.
	var bound atomic.Uint64
	var next atomic.Int64
	workers := x.workerCount()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				si := int(next.Add(1)) - 1
				if si >= s {
					return
				}
				st := x.states[si]
				var tm *shardTiming
				if times != nil {
					tm = &times[si]
					tm.pickup = time.Since(start)
					if traceOn {
						tm.epoch = g.boundEpoch.Load()
					}
				}
				o := opt
				if v := bound.Load(); v != 0 {
					bf := math.Float32frombits(uint32(v))
					if bf == 0 {
						// core treats InitialThreshold==0 as unset; the
						// smallest positive float still admits dist==0
						// ties (admission rejects strictly greater only)
						// while pruning everything else, which is exactly
						// what a 0.0 k-th distance allows.
						bf = math.SmallestNonzeroFloat32
					}
					if o.InitialThreshold == 0 || bf < o.InitialThreshold {
						o.InitialThreshold = bf
					}
				}
				sr := st.getSearcher()
				res, err := sr.SearchProjected(qz, k, o)
				if err != nil {
					st.putSearcher(sr)
					g.errs[si] = fmt.Errorf("shard %d: %w", si, err)
					continue
				}
				stats := sr.LastStats()
				ids := *st.ids.Load()
				mapped := make([]vec.Neighbor, len(res))
				for i, nb := range res {
					mapped[i] = vec.Neighbor{ID: int(ids[nb.ID]), Dist: nb.Dist}
				}
				if st.unordered.Load() {
					sort.Slice(mapped, func(a, b int) bool {
						return neighborLess(mapped[a], mapped[b])
					})
				}
				b, full := g.fold(si, mapped, stats)
				st.putSearcher(sr)
				if tm != nil {
					tm.done = time.Since(start)
					tm.stats = stats
				}
				if full && tightenBound(&bound, b) && traceOn {
					g.recordBoundEvent(si, b, time.Since(start))
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range g.errs {
		if err != nil {
			x.reg.RecordError()
			return nil, err
		}
	}
	var mergeStart time.Duration
	if observed {
		mergeStart = time.Since(start)
	}
	res := mergeTopK(g.lists, k)
	var mergeEnd time.Duration
	if observed {
		mergeEnd = time.Since(start)
	}
	var hits []int
	if x.reg != nil || traceOn {
		hits = shardHits(g.lists, res, s)
	}
	if x.reg != nil {
		g.stats.AbandonDepths = g.depths
		g.stats.TISkipsByRank = g.ranks
		x.reg.RecordSearch(metrics.SearchRecord{
			ClustersVisited:  g.stats.ClustersVisited,
			CodesConsidered:  g.stats.CodesConsidered,
			CodesSkippedTI:   g.stats.CodesSkippedTI,
			CodesAbandonedEA: g.stats.CodesAbandonedEA,
			Lookups:          g.stats.Lookups,
			AbandonDepths:    g.stats.AbandonDepths,
			TISkipsByRank:    g.stats.TISkipsByRank,
		}, time.Since(start))
		lat := make([]int64, s)
		for si := range times {
			lat[si] = (times[si].done - times[si].pickup).Nanoseconds()
		}
		x.reg.RecordScatter(metrics.ScatterRecord{ShardLatencyNs: lat, Hits: hits})
	}
	var traceSeq uint64
	if traceOn {
		traceSeq = x.fileTrace(tr, start, times, g, mergeStart, mergeEnd, k, opt, hits)
	}
	if wcap.ShouldSample() {
		x.captureQuery(wcap, qz, rawQ, k, opt, res, time.Since(start), traceSeq)
	}
	return res, nil
}

// shardHits attributes each final top-k result to the shard that served
// it (global ids live in exactly one shard, so the merged id set
// intersected with each shard's list partitions the answer).
func shardHits(lists [][]vec.Neighbor, res []vec.Neighbor, s int) []int {
	final := make(map[int]struct{}, len(res))
	for _, nb := range res {
		final[nb.ID] = struct{}{}
	}
	hits := make([]int, s)
	for si, list := range lists {
		for _, nb := range list {
			if _, ok := final[nb.ID]; ok {
				hits[si]++
			}
		}
	}
	return hits
}

// fileTrace assembles the parent QueryTrace for one sharded query: per
// shard a wait span and a scan span carrying that shard's pruning
// attribution, one bound-feedback event per cross-shard tightening
// (credited with the prunes of every shard that started under it), and the
// trailing merge span. Runs single-threaded after the scatter barrier, so
// it reads the per-shard timing slots without synchronization.
func (x *Index) fileTrace(tr *trace.Tracer, start time.Time, times []shardTiming,
	g *gatherState, mergeStart, mergeEnd time.Duration, k int, opt core.SearchOptions, hits []int) uint64 {
	// Credit each shard's prunes to the newest bound event it saw at start:
	// those skips ran under that bound (or a tighter successor).
	for si := range times {
		tm := &times[si]
		if tm.epoch == 0 || int(tm.epoch) > len(g.events) {
			continue
		}
		ev := &g.events[tm.epoch-1]
		ev.downShards++
		ev.downSkips += tm.stats.CodesSkippedTI
		ev.downAbandons += tm.stats.CodesAbandonedEA
	}
	rec := tr.NewRecorder()
	rec.Begin(time.Since(start))
	for si := range times {
		tm := &times[si]
		rec.Add(trace.Span{
			Name:  trace.SpanShardWait,
			Start: 0,
			Dur:   tm.pickup,
			Shard: si,
		})
		scan := trace.Span{
			Name:        trace.SpanShardScan,
			Start:       tm.pickup,
			Dur:         tm.done - tm.pickup,
			Shard:       si,
			Count:       tm.stats.CodesConsidered,
			SkippedTI:   tm.stats.CodesSkippedTI,
			AbandonedEA: tm.stats.CodesAbandonedEA,
			Lookups:     tm.stats.Lookups,
		}
		if hits != nil {
			scan.Hits = hits[si]
		}
		rec.Add(scan)
	}
	for _, ev := range g.events {
		rec.Add(trace.Span{
			Name:        trace.SpanBoundFeedback,
			Start:       ev.at,
			Shard:       ev.shard,
			Bound:       float64(ev.bound),
			Count:       ev.downShards,
			SkippedTI:   ev.downSkips,
			AbandonedEA: ev.downAbandons,
		})
	}
	rec.Add(trace.Span{
		Name:  trace.SpanShardMerge,
		Start: mergeStart,
		Dur:   mergeEnd - mergeStart,
	})
	return rec.End(opt.Mode.String(), k, metrics.SearchRecord{
		ClustersVisited:  g.stats.ClustersVisited,
		CodesConsidered:  g.stats.CodesConsidered,
		CodesSkippedTI:   g.stats.CodesSkippedTI,
		CodesAbandonedEA: g.stats.CodesAbandonedEA,
		Lookups:          g.stats.Lookups,
	})
}

// captureQuery files one sampled sharded query into the workload capture:
// the merged global result list is the recorded ground truth, so a replay
// gates the whole scatter-gather (including the merge) and stays
// comparable across rebuilds with different shard counts.
func (x *Index) captureQuery(c *workload.Capture, qz, rawQ []float32, k int,
	opt core.SearchOptions, res []vec.Neighbor, lat time.Duration, traceSeq uint64) {
	q, projected := rawQ, false
	if q == nil {
		q, projected = qz, true
	}
	r := &workload.Record{
		LatencyNs: lat.Nanoseconds(),
		TraceSeq:  traceSeq,
		K:         int32(k),
		Mode:      int32(opt.Mode),
		VisitFrac: opt.VisitFrac,
		Subspaces: int32(opt.Subspaces),
		Projected: projected,
		Query:     append([]float32(nil), q...),
		IDs:       make([]int32, len(res)),
		Dists:     make([]float32, len(res)),
	}
	for i, nb := range res {
		r.IDs[i] = int32(nb.ID)
		r.Dists[i] = nb.Dist
	}
	c.Add(r)
}

// boundSet flags a published cross-shard bound: the low 32 bits hold the
// float32 distance, so a bound of exactly 0.0 is still distinguishable
// from the unset state (the whole word being 0).
const boundSet = uint64(1) << 32

// tightenBound lowers the shared bound to b if b is tighter (CAS loop —
// bounds only ever shrink) and reports whether it actually lowered it.
func tightenBound(state *atomic.Uint64, b float32) bool {
	nv := boundSet | uint64(math.Float32bits(b))
	for {
		old := state.Load()
		if old != 0 && math.Float32frombits(uint32(old)) <= b {
			return false
		}
		if state.CompareAndSwap(old, nv) {
			return true
		}
	}
}

// Add encodes a batch into one shard chosen by the assignment policy. The
// global id range [firstID, firstID+rows) is reserved with a lock-free
// CAS, so concurrent Adds to different shards proceed fully in parallel
// and only batches routed to the same shard serialize on its lock.
func (x *Index) Add(vectors *vec.Matrix) (firstID int, err error) {
	if vectors == nil || vectors.Rows == 0 {
		return int(x.nextID.Load()), nil
	}
	if vectors.Cols != x.dim {
		return 0, fmt.Errorf("shard: Add dimension %d, index dimension %d", vectors.Cols, x.dim)
	}
	// Before the id reservation, which is never handed back.
	if err := vec.CheckFinite(vectors); err != nil {
		return 0, fmt.Errorf("shard: Add: %w", err)
	}
	rows := vectors.Rows
	var first int64
	for {
		cur := x.nextID.Load()
		// The mapping stores global ids as int32: refuse the reservation
		// rather than silently wrapping negative past 2^31 vectors.
		if cur+int64(rows) > math.MaxInt32+1 {
			return 0, fmt.Errorf("shard: Add of %d rows at %d existing would exceed the int32 global id space", rows, cur)
		}
		if x.nextID.CompareAndSwap(cur, cur+int64(rows)) {
			first = cur
			break
		}
	}
	st := x.pickShard()
	st.addMu.Lock()
	defer st.addMu.Unlock()
	old := *st.ids.Load()
	if len(old) > 0 && old[len(old)-1] > int32(first) {
		// A concurrent batch with later global ids won the shard lock
		// first: the mapping is no longer monotone, so result lists from
		// this shard must be re-sorted before merging.
		st.unordered.Store(true)
	}
	grown := make([]int32, len(old)+rows)
	copy(grown, old)
	for i := 0; i < rows; i++ {
		grown[len(old)+i] = int32(first) + int32(i)
	}
	// Publish the grown mapping BEFORE encoding. st.ix.Add publishes the
	// batch's codes before returning control here, so a search racing this
	// call can already see them; if the mapping were still the old length,
	// ids[nb.ID] would be out of range. The trailing entries are
	// unreachable until the codes exist, so pre-publishing is safe — and a
	// failed core.Add has published nothing, so rolling back to the old
	// mapping on error is equally safe.
	st.ids.Store(&grown)
	if _, err := st.ix.Add(vectors); err != nil {
		st.ids.Store(&old)
		return 0, err
	}
	if testHookPostEncode != nil {
		testHookPostEncode(st)
	}
	return int(first), nil
}

// testHookPostEncode, when non-nil, runs under the shard's Add lock at
// the first point where the batch's codes are visible to searches. Tests
// use it to pin the publication invariant: any search that can see a
// shard's codes must also see a mapping covering their local ids.
var testHookPostEncode func(*shardState)

// pickShard applies the assignment policy.
func (x *Index) pickShard() *shardState {
	switch x.opts.Policy {
	case PolicyLeastLoaded:
		best := x.states[0]
		bestLen := len(*best.ids.Load())
		for _, st := range x.states[1:] {
			if l := len(*st.ids.Load()); l < bestLen {
				best, bestLen = st, l
			}
		}
		return best
	default:
		return x.states[x.rr.Add(1)%uint64(len(x.states))]
	}
}

// ConfigFingerprint identifies the search-relevant configuration. S=1 is
// the single index's own fingerprint (the degenerate case answers
// bit-identically, so captured workloads replay as same-config); S>1
// derives a sharded fingerprint from it.
func (x *Index) ConfigFingerprint() string {
	base := x.states[0].ix.ConfigFingerprint()
	if len(x.states) == 1 {
		return base
	}
	return fingerprintSharded(base, len(x.states))
}

// ReplayRunner adapts the sharded index to the workload replay engine, so
// capture-replay gates cover the scatter-gather merge path.
func (x *Index) ReplayRunner() workload.RunFunc {
	return func(r *workload.Record) ([]int32, []float32, error) {
		opt := core.SearchOptions{
			Mode:      core.SearchMode(r.Mode),
			VisitFrac: r.VisitFrac,
			Subspaces: int(r.Subspaces),
		}
		var res []vec.Neighbor
		var err error
		if r.Projected {
			res, err = x.SearchProjected(r.Query, int(r.K), opt)
		} else {
			res, err = x.Search(r.Query, int(r.K), opt)
		}
		if err != nil {
			return nil, nil, err
		}
		ids := make([]int32, len(res))
		dists := make([]float32, len(res))
		for i, nb := range res {
			ids[i] = int32(nb.ID)
			dists[i] = nb.Dist
		}
		return ids, dists, nil
	}
}
