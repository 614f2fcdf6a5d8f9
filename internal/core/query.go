package core

import (
	"fmt"
	"math"
	"time"

	"vaq/internal/metrics"
	"vaq/internal/quantizer"
	"vaq/internal/trace"
	"vaq/internal/vec"
)

// SearchMode selects the query-execution pruning strategy (the Figure 7
// ablation axes).
type SearchMode int

const (
	// ModeTIEA is full VAQ: triangle-inequality data skipping cascaded
	// with early-abandon subspace skipping (Algorithm 4).
	ModeTIEA SearchMode = iota
	// ModeEA scans every code but abandons lookup accumulation early.
	ModeEA
	// ModeHeap is the plain exhaustive ADC scan with a top-k heap.
	ModeHeap
)

func (m SearchMode) String() string {
	switch m {
	case ModeTIEA:
		return "ti+ea"
	case ModeEA:
		return "ea"
	case ModeHeap:
		return "heap"
	}
	return "unknown"
}

// SearchOptions tune one query.
type SearchOptions struct {
	// Mode selects the pruning strategy (default ModeTIEA).
	Mode SearchMode
	// VisitFrac overrides the fraction of TI clusters visited
	// (0 = the index's DefaultVisitFrac). Only meaningful for ModeTIEA,
	// but every search rejects NaN and values outside [0, 1].
	VisitFrac float64
	// Subspaces limits distance accumulation to the first t subspaces
	// (0 = all). Used by the Figure 4 subspace-omission experiment; it
	// forces a full scan (TI bounds are invalid on truncated distances).
	Subspaces int
	// InitialThreshold seeds the top-k collector with an external
	// admission bound (a squared distance; 0 = none): candidates farther
	// than it are pruned — by TI skipping, early abandoning and heap
	// admission — even before k neighbors have been collected. The
	// scatter-gather path feeds the running global k-th distance into
	// per-shard searches so later shards inherit the earlier shards'
	// pruning power. A bound equal to the true k-th distance keeps
	// boundary ties (admission rejects strictly-greater only).
	InitialThreshold float32
}

// CheckSearchArgs enforces the query-argument contract every search entry
// point shares: k >= 1, and VisitFrac either 0 (the index default) or a
// fraction in (0, 1]. NaN and values outside [0, 1] are errors.
func CheckSearchArgs(k int, opt SearchOptions) error {
	if k < 1 {
		return fmt.Errorf("k must be >= 1, got %d", k)
	}
	if !(opt.VisitFrac >= 0 && opt.VisitFrac <= 1) {
		return fmt.Errorf("VisitFrac must be in [0, 1], got %v", opt.VisitFrac)
	}
	return nil
}

// Search returns the approximate k nearest neighbors of q with default
// options. Distances are squared Euclidean in the quantized space.
func (ix *Index) Search(q []float32, k int) ([]vec.Neighbor, error) {
	return ix.SearchWith(q, k, SearchOptions{})
}

// SearchWith returns the approximate k nearest neighbors of q under the
// given options. It borrows a Searcher from the index's pool, so one-shot
// queries reuse lookup tables and scratch instead of allocating them.
func (ix *Index) SearchWith(q []float32, k int, opt SearchOptions) ([]vec.Neighbor, error) {
	s, _ := ix.searchers.Get().(*Searcher)
	if s == nil {
		s = ix.newSearcher()
	} else if t := ix.tracer.Load(); s.rec.Tracer() != t {
		// Pooled Searchers follow EnableTracing/DisableTracing like fresh
		// ones: each use records into the index's current tracer.
		s.AttachTracer(t)
	}
	res, err := s.Search(q, k, opt)
	ix.searchers.Put(s)
	return res, err
}

// SearchStats instruments one query: how much work each pruning layer
// saved. Lookups counts per-subspace table accumulations; a plain scan
// performs exactly Codes x Subspaces of them.
type SearchStats struct {
	// ClustersVisited is the number of TI clusters scanned (0 for the
	// non-TI modes).
	ClustersVisited int
	// CodesConsidered counts encoded vectors reached by the scan loop
	// (TI-unvisited clusters are excluded).
	CodesConsidered int
	// CodesSkippedTI counts vectors pruned by the triangle bound before
	// any lookup.
	CodesSkippedTI int
	// CodesAbandonedEA counts vectors whose accumulation was cut short.
	CodesAbandonedEA int
	// Lookups counts subspace table accumulations actually performed.
	Lookups int
	// AbandonDepths attributes early abandons to the lookup count at which
	// they happened: AbandonDepths[i] counts codes cut short after exactly
	// i table lookups (nonzero entries sit at multiples of EACheckEvery).
	// Nil when metrics are disabled; the slice aliases per-Searcher scratch,
	// valid until the next query on the same Searcher.
	AbandonDepths []uint32
	// TISkipsByRank attributes triangle-inequality pruning to the visit
	// rank of the cluster it happened in: TISkipsByRank[r] counts codes
	// pruned inside the r-th nearest visited cluster, with ranks past the
	// last bucket clamped into it. Same lifetime as AbandonDepths.
	TISkipsByRank []uint32
}

// record converts the stats to the dependency-free currency the metrics
// registry and tracer share. The attribution slices are passed by reference
// (RecordSearch folds them immediately; the tracer stores the record only in
// a completed QueryTrace, which deep-copies via recordCopy).
func (st *SearchStats) record() metrics.SearchRecord {
	return metrics.SearchRecord{
		ClustersVisited:  st.ClustersVisited,
		CodesConsidered:  st.CodesConsidered,
		CodesSkippedTI:   st.CodesSkippedTI,
		CodesAbandonedEA: st.CodesAbandonedEA,
		Lookups:          st.Lookups,
		AbandonDepths:    st.AbandonDepths,
		TISkipsByRank:    st.TISkipsByRank,
	}
}

// recordCopy is record with the attribution slices deep-copied, safe to
// retain past the next query (QueryTraces live in the tracer ring).
func (st *SearchStats) recordCopy() metrics.SearchRecord {
	r := st.record()
	r.AbandonDepths = append([]uint32(nil), r.AbandonDepths...)
	r.TISkipsByRank = append([]uint32(nil), r.TISkipsByRank...)
	return r
}

// Searcher holds per-query scratch buffers so batch workloads don't
// allocate per query. Not safe for concurrent use; create one per
// goroutine via NewSearcher.
type Searcher struct {
	ix *Index
	// st is the index state the running query loaded; nil between queries.
	st   *state
	lut  *quantizer.LUT
	flut []float32 // float tables over the fast store's scan dictionaries
	ilut intLUT    // uint8 quantization of flut; filled only for fast scans
	// pushed records the candidates the integer scan accepted into the
	// top-k — id plus the dequantized distance it was pushed with — the
	// candidate set rerankFast rescores with exact float arithmetic. The
	// stored distance lets the re-rank skip candidates whose quantized
	// estimate already proves them outside the exact top-k.
	pushed   []pushCand
	clustD   []float32
	clustIdx []int
	topk     *vec.TopK
	stats    SearchStats
	// rec collects per-query spans when the index had a tracer attached at
	// Searcher creation (nil otherwise: every Recorder method is nil-safe).
	rec *trace.Recorder
	// projDur backdates the trace origin by the query-projection time,
	// which happens before run opens the traced window. Consumed by run.
	projDur time.Duration
	// rawQ holds the caller's unprojected query for the duration of one
	// Search call (nil for SearchProjected) so the workload capture can
	// record the portable raw vector instead of the PCA-space one.
	rawQ []float32
	// depthScratch/rankScratch back stats.AbandonDepths/TISkipsByRank so
	// batch workloads don't allocate attribution per query.
	depthScratch []uint32
	rankScratch  []uint32
	// projQ/projAcc hold the projected query and the projection's float64
	// scratch across Search calls, so the raw-query path does not
	// allocate them per query.
	projQ   []float32
	projAcc []float64
}

// LastStats reports the instrumentation of the most recent query. Its
// attribution slices alias Searcher scratch: copy them before the next
// query on this Searcher if they must outlive it.
func (s *Searcher) LastStats() SearchStats { return s.stats }

// NewSearcher returns a reusable query context for this index.
func (ix *Index) NewSearcher() *Searcher { return ix.newSearcher() }

func (ix *Index) newSearcher() *Searcher {
	return &Searcher{ix: ix, rec: ix.tracer.Load().NewRecorder()}
}

// AttachTracer re-points this Searcher at t (nil detaches). Searchers pick
// up the index tracer at creation; long-lived ones built before
// EnableTracing use this to opt in without being recreated.
func (s *Searcher) AttachTracer(t *trace.Tracer) { s.rec = t.NewRecorder() }

// Search runs one query through the reusable context. q is the RAW
// (unprojected) query.
func (s *Searcher) Search(q []float32, k int, opt SearchOptions) ([]vec.Neighbor, error) {
	if err := CheckSearchArgs(k, opt); err != nil {
		s.ix.metrics.RecordError()
		return nil, fmt.Errorf("core: %w", err)
	}
	var projStart time.Time
	if s.rec.Active() {
		projStart = time.Now()
	}
	if s.projAcc == nil {
		s.projAcc = make([]float64, s.ix.model.Dim)
	}
	qz, err := s.ix.projectQueryInto(q, s.projQ, s.projAcc)
	if err != nil {
		s.ix.metrics.RecordError()
		return nil, err
	}
	if s.rec.Active() {
		s.projDur = time.Since(projStart)
	}
	s.projQ = qz
	s.rawQ = q
	return s.run(qz, k, opt), nil
}

// SearchProjected runs one query that is already in the index's PCA space.
func (s *Searcher) SearchProjected(qz []float32, k int, opt SearchOptions) ([]vec.Neighbor, error) {
	if err := CheckSearchArgs(k, opt); err != nil {
		s.ix.metrics.RecordError()
		return nil, fmt.Errorf("core: %w", err)
	}
	if len(qz) != s.ix.cb.Sub.Dim() {
		s.ix.metrics.RecordError()
		return nil, fmt.Errorf("core: projected query dim %d, want %d", len(qz), s.ix.cb.Sub.Dim())
	}
	if err := vec.CheckFiniteVec(qz); err != nil {
		s.ix.metrics.RecordError()
		return nil, fmt.Errorf("core: query: %w", err)
	}
	s.rawQ = nil
	return s.run(qz, k, opt), nil
}

func (s *Searcher) run(qz []float32, k int, opt SearchOptions) []vec.Neighbor {
	ix := s.ix
	// One load: the whole query runs on this state, whatever Add publishes
	// meanwhile.
	s.st = ix.state.Load()
	rec := s.rec
	wcap := ix.capture.Load()
	var start time.Time
	if ix.metrics != nil || wcap != nil {
		start = time.Now()
	}
	if rec.Active() {
		// Backdate the trace origin so the projection (done by the caller)
		// occupies [0, projDur) of the timeline.
		rec.Begin(s.projDur)
		if s.projDur > 0 {
			rec.Add(trace.Span{Name: trace.SpanProject, Dur: s.projDur})
		}
		s.projDur = 0
	}
	mSub := ix.cb.Sub.M()
	useSub := mSub
	if opt.Subspaces > 0 && opt.Subspaces < mSub {
		useSub = opt.Subspaces
	}
	mode := opt.Mode
	if useSub < mSub && mode == ModeTIEA {
		// Truncated distances invalidate the TI bound; degrade gracefully.
		mode = ModeEA
	}
	// The integer kernels accumulate the full subspace range (truncated
	// distances would need their own delta/scale) and ModeEA's contract is
	// original-id scan order over the canonical codes — both fall back to
	// the exact kernels.
	fast := s.st.fast != nil && useSub == mSub && mode != ModeEA
	// Build or refill the lookup tables (Algorithm 4 lines 5-13). The fast
	// path fills the (much smaller) tables over the integer store's scan
	// dictionaries and quantizes those; the full-dictionary LUT is neither
	// filled nor read — the exact re-rank goes back to the codebooks.
	lutStart := rec.Clock()
	if fast {
		s.flut = s.st.fast.fillFloatLUT(qz, s.flut)
	} else if s.lut == nil {
		s.lut = ix.cb.BuildLUT(qz)
	} else {
		ix.cb.FillLUT(qz, s.lut)
	}
	if rec.Active() {
		rec.Add(trace.Span{Name: trace.SpanLUTFill, Start: lutStart, Dur: rec.Clock() - lutStart})
	}
	if s.topk == nil {
		s.topk = vec.NewTopK(k)
	} else {
		s.topk.Reinit(k)
	}
	if opt.InitialThreshold > 0 {
		s.topk.SetBound(opt.InitialThreshold)
	}
	s.stats = SearchStats{}

	if ix.metrics != nil {
		// Attach the pruning-attribution scratch; the kernels increment it
		// behind one nil check, so the metrics-off path pays nothing.
		if len(s.depthScratch) != mSub+1 {
			s.depthScratch = make([]uint32, mSub+1)
			s.rankScratch = make([]uint32, metrics.ClusterRankBuckets)
		} else {
			clear(s.depthScratch)
			clear(s.rankScratch)
		}
		s.stats.AbandonDepths = s.depthScratch
		s.stats.TISkipsByRank = s.rankScratch
	}
	if fast {
		quantStart := rec.Clock()
		s.ilut.quantize(s.flut, s.st.fast.offsets, mSub)
		s.pushed = s.pushed[:0]
		if rec.Active() {
			rec.Add(trace.Span{Name: trace.SpanLUTQuant, Start: quantStart, Dur: rec.Clock() - quantStart})
		}
	}
	scanStart := rec.Clock()
	switch mode {
	case ModeHeap:
		if fast {
			s.scanHeapFast()
		} else {
			s.scanHeapBlocked(useSub)
		}
	case ModeEA:
		// EA's observable semantics (threshold evolution, abandon counts)
		// are tied to its original-id scan order, which is already a
		// sequential walk of the canonical row-major codes.
		s.scanEA(useSub)
	default:
		if fast {
			s.scanTIEAFast(qz, opt.VisitFrac)
		} else {
			s.scanTIEABlocked(qz, opt.VisitFrac, useSub)
		}
	}
	if rec.Active() && mode != ModeTIEA {
		// The TI+EA kernels emit per-cluster spans themselves; the
		// whole-dataset modes get one span covering the scan.
		rec.Add(trace.Span{
			Name: trace.SpanScan, Start: scanStart, Dur: rec.Clock() - scanStart,
			Count:       s.stats.CodesConsidered,
			AbandonedEA: s.stats.CodesAbandonedEA,
			Lookups:     s.stats.Lookups,
		})
	}
	if fast {
		rerankStart := rec.Clock()
		s.rerankFast(qz)
		if rec.Active() {
			rec.Add(trace.Span{Name: trace.SpanRerank, Start: rerankStart,
				Dur: rec.Clock() - rerankStart, Count: len(s.pushed)})
		}
	}
	var lat time.Duration
	if ix.metrics != nil || wcap != nil {
		lat = time.Since(start)
	}
	if ix.metrics != nil {
		ix.metrics.RecordSearch(s.stats.record(), lat)
	}
	var traceSeq uint64
	if rec.Active() {
		traceSeq = rec.End(mode.String(), k, s.stats.recordCopy())
	}
	res := s.topk.Results()
	// The workload capture happens after the trace closes so the record
	// can carry the exemplar's sequence id; the sampling stride only
	// advances while a capture is attached.
	if wcap != nil && wcap.ShouldSample() {
		s.captureQuery(wcap, qz, k, opt, res, lat.Nanoseconds(), traceSeq)
	}
	// Shadow-exact recall sampling happens after the trace closes so the
	// exemplar durations measure the approximate query, not the audit.
	if ix.recallEvery > 0 && ix.recallCtr.Add(1)%ix.recallEvery == 0 {
		s.shadowRecallSample(qz, k, res)
	}
	// An idle (pooled) Searcher keeps neither a superseded state nor the
	// caller's query alive.
	s.st, s.rawQ = nil, nil
	return res
}

// shadowRecallSample audits one answer against an exact scan of the
// retained projected dataset. PCA rotation is orthogonal, so exact squared
// L2 in the projected space ranks identically to the raw space; the hit
// count folds into the registry's online recall estimate.
func (s *Searcher) shadowRecallSample(qz []float32, k int, approx []vec.Neighbor) {
	data := s.st.retained
	if data == nil {
		return
	}
	exact := vec.NewTopK(k)
	for i := 0; i < data.Rows; i++ {
		exact.Push(i, vec.SquaredL2(qz, data.Row(i)))
	}
	truth := exact.Results()
	got := make(map[int]struct{}, len(approx))
	for _, nb := range approx {
		got[nb.ID] = struct{}{}
	}
	hits := 0
	for _, nb := range truth {
		if _, ok := got[nb.ID]; ok {
			hits++
		}
	}
	s.ix.metrics.RecordRecallSample(hits, len(truth))
}

// eaAccumulate accumulates one row-major code word against the lookup
// tables with the early-abandon cadence of §III-E: every check subspaces
// (and only once the top-k heap was full when the code was reached —
// notFull snapshots that), the partial distance is tested against the
// best-so-far threshold bsf. It returns the accumulated distance, the
// number of lookups performed, and whether the code was abandoned.
//
// The chunked loop preserves the exact semantics of the historical
// per-term "(sI+1)%check == 0" test — abandons happen only at chunk
// boundaries and the tail after the last full chunk is never tested —
// while replacing the modulo with loop structure and giving the compiler
// a 4-wide unrolled body whose loads can issue in parallel. Additions stay
// strictly sequential in subspace order so every exact kernel produces
// bit-identical float32 distances.
func eaAccumulate(dist []float32, offsets []int, row []uint16, useSub, check int, bsf float32, notFull bool) (float32, int, bool) {
	var d float32
	sI := 0
	if !notFull {
		for sI+check <= useSub {
			end := sI + check
			for ; sI+4 <= end; sI += 4 {
				a0 := dist[offsets[sI]+int(row[sI])]
				a1 := dist[offsets[sI+1]+int(row[sI+1])]
				a2 := dist[offsets[sI+2]+int(row[sI+2])]
				a3 := dist[offsets[sI+3]+int(row[sI+3])]
				d += a0
				d += a1
				d += a2
				d += a3
			}
			for ; sI < end; sI++ {
				d += dist[offsets[sI]+int(row[sI])]
			}
			if d > bsf {
				return d, sI, true
			}
		}
	}
	for ; sI+4 <= useSub; sI += 4 {
		a0 := dist[offsets[sI]+int(row[sI])]
		a1 := dist[offsets[sI+1]+int(row[sI+1])]
		a2 := dist[offsets[sI+2]+int(row[sI+2])]
		a3 := dist[offsets[sI+3]+int(row[sI+3])]
		d += a0
		d += a1
		d += a2
		d += a3
	}
	for ; sI < useSub; sI++ {
		d += dist[offsets[sI]+int(row[sI])]
	}
	return d, useSub, false
}

// scanEA scans every code but early-abandons the subspace accumulation
// when the partial distance already exceeds the best-so-far k-th distance
// (§III-E "Subspace Skipping"; Figure 7 "EA"). Because the subspaces are
// importance-ordered, the first few terms dominate and most lookups are
// skipped.
func (s *Searcher) scanEA(useSub int) {
	ix := s.ix
	codes := s.st.codes
	dist, offsets := s.lut.Dist, s.lut.Offsets
	m := codes.M
	check := ix.cfg.EACheckEvery
	for i := 0; i < codes.N; i++ {
		row := codes.Data[i*m : i*m+useSub]
		bsf := s.topk.Threshold()
		notFull := !s.topk.Pruning()
		d, lookups, abandoned := eaAccumulate(dist, offsets, row, useSub, check, bsf, notFull)
		s.stats.Lookups += lookups
		if abandoned {
			s.stats.CodesAbandonedEA++
			if s.stats.AbandonDepths != nil {
				s.stats.AbandonDepths[lookups]++
			}
		} else {
			s.topk.Push(i, d)
		}
	}
	s.stats.CodesConsidered = codes.N
}

// orderClusters ranks the TI clusters for one query: it fills s.clustD
// with the SQUARED prefix distances to every centroid, sorts cluster ids
// ascending by that (squared distance is order-equivalent to plain, so
// the ranking needs no roots), and returns how many clusters the visit
// fraction admits. The kernels take the root only for clusters they
// actually visit — the triangle bound needs plain distances — saving
// ~(1-visitFrac)*TIClusters sqrt calls per query.
func (s *Searcher) orderClusters(qz []float32, visitFrac float64) int {
	ix := s.ix
	ti := s.st.ti
	if visitFrac == 0 {
		visitFrac = ix.cfg.DefaultVisitFrac
	}
	nClusters := len(ti.clusters)
	visit := int(math.Ceil(visitFrac * float64(nClusters)))
	if visit < 1 {
		visit = 1
	}
	if visit > nClusters {
		visit = nClusters
	}
	s.clustD = ti.queryClusterDistancesSq(qz, s.clustD)
	if cap(s.clustIdx) < nClusters {
		s.clustIdx = make([]int, nClusters)
	}
	s.clustIdx = s.clustIdx[:nClusters]
	for i := range s.clustIdx {
		s.clustIdx[i] = i
	}
	s.selectNearestClusters(visit)
	return visit
}

// selectNearestClusters reorders s.clustIdx so its first visit entries are
// the visit nearest clusters in ascending (squared distance, cluster id)
// order. Only the visited prefix needs an order, so a quickselect narrows
// the boundary segment in expected O(nClusters) comparisons and the final
// sort covers visit entries instead of all of them — at the default visit
// fractions that removes most of the per-query ranking cost. The id
// tiebreak makes the key a strict total order, so the visited set and its
// order are deterministic even when two centroids are equidistant.
func (s *Searcher) selectNearestClusters(visit int) {
	idx, d := s.clustIdx, s.clustD
	less := func(a, b int) bool {
		if d[a] != d[b] {
			return d[a] < d[b]
		}
		return a < b
	}
	lo, hi := 0, len(idx)
	for hi-lo > 16 {
		// Median-of-three pivot from the segment's ends and middle.
		mid := lo + (hi-lo)/2
		if less(idx[mid], idx[lo]) {
			idx[mid], idx[lo] = idx[lo], idx[mid]
		}
		if less(idx[hi-1], idx[lo]) {
			idx[hi-1], idx[lo] = idx[lo], idx[hi-1]
		}
		if less(idx[hi-1], idx[mid]) {
			idx[hi-1], idx[mid] = idx[mid], idx[hi-1]
		}
		pivot := idx[mid]
		i, j := lo, hi-1
		for i <= j {
			for less(idx[i], pivot) {
				i++
			}
			for less(pivot, idx[j]) {
				j--
			}
			if i <= j {
				idx[i], idx[j] = idx[j], idx[i]
				i++
				j--
			}
		}
		// Keys are distinct, so [lo..j] < pivot-zone < [i..hi). Descend
		// into whichever side still straddles the visit boundary.
		if visit <= j+1 {
			hi = j + 1
		} else if visit >= i {
			lo = i
		} else {
			// The boundary falls in the (single-element) pivot zone:
			// membership of idx[:visit] is already settled.
			lo, hi = visit, visit
		}
	}
	// Insertion-sort the small segment that still straddles the boundary,
	// settling which elements belong in the prefix.
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && less(idx[j], idx[j-1]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	sortClustersByDist(idx[:visit], d)
}

// sortClustersByDist sorts cluster indices ascending by (squared distance,
// id) — the same strict total order selectNearestClusters partitions by,
// so any correct sort yields the identical sequence. A concrete
// median-of-three quicksort instead of sort.Slice: the visited prefix is
// sorted on every query, and the reflection-based swapper was a measurable
// slice of per-query ranking cost.
func sortClustersByDist(idx []int, d []float32) {
	for len(idx) > 12 {
		mid := len(idx) / 2
		hi := len(idx) - 1
		if clusterDistLess(idx[mid], idx[0], d) {
			idx[mid], idx[0] = idx[0], idx[mid]
		}
		if clusterDistLess(idx[hi], idx[0], d) {
			idx[hi], idx[0] = idx[0], idx[hi]
		}
		if clusterDistLess(idx[hi], idx[mid], d) {
			idx[hi], idx[mid] = idx[mid], idx[hi]
		}
		pivot := idx[mid]
		i, j := 0, hi
		for i <= j {
			for clusterDistLess(idx[i], pivot, d) {
				i++
			}
			for clusterDistLess(pivot, idx[j], d) {
				j--
			}
			if i <= j {
				idx[i], idx[j] = idx[j], idx[i]
				i++
				j--
			}
		}
		// Recurse into the smaller side, iterate on the larger.
		if j+1 < len(idx)-i {
			sortClustersByDist(idx[:j+1], d)
			idx = idx[i:]
		} else {
			sortClustersByDist(idx[i:], d)
			idx = idx[:j+1]
		}
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && clusterDistLess(idx[j], idx[j-1], d); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

func clusterDistLess(a, b int, d []float32) bool {
	if d[a] != d[b] {
		return d[a] < d[b]
	}
	return a < b
}

// clampRank maps a cluster visit rank into the attribution buckets (the
// tail shares the last bucket). buckets == 0 means attribution is off; the
// return value is unused then.
func clampRank(v, buckets int) int {
	if v >= buckets {
		return buckets - 1
	}
	return v
}

// clusterScanSpan builds the SpanClusterScan for one visited cluster from
// the stat deltas it produced.
func clusterScanSpan(start, end time.Duration, cluster, rank, members int, before, after *SearchStats) trace.Span {
	return trace.Span{
		Name: trace.SpanClusterScan, Start: start, Dur: end - start,
		Cluster: cluster, Rank: rank, Count: members,
		SkippedTI:   after.CodesSkippedTI - before.CodesSkippedTI,
		AbandonedEA: after.CodesAbandonedEA - before.CodesAbandonedEA,
		Lookups:     after.Lookups - before.Lookups,
	}
}
