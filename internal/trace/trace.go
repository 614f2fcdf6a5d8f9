// Package trace is the per-query diagnostic layer of the VAQ index: where
// internal/metrics answers "how much pruning happened across all queries",
// trace answers "where did THIS query spend its time". A Tracer owns a
// fixed-size lock-free ring of recent QueryTraces plus a reservoir of
// slow-query exemplars above a configurable latency threshold; a Recorder
// is the per-Searcher scratch that collects one query's timed spans
// (projection, LUT fill, cluster ranking, per-cluster scan, EA resume)
// without locking. Everything is stdlib-only and every recording method is
// nil-safe, so the disabled cost at a call site is one pointer check.
package trace

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"vaq/internal/metrics"
)

// Span names used by the core query kernels. Exported so exporters and
// tests share one vocabulary.
const (
	SpanProject     = "project"      // PCA rotation of the raw query
	SpanLUTFill     = "lut_fill"     // per-subspace lookup-table build
	SpanLUTQuant    = "lut_quant"    // uint8 LUT quantization (AccuracyFast)
	SpanClusterRank = "cluster_rank" // TI centroid distances + quickselect
	SpanClusterScan = "cluster_scan" // one visited TI cluster's member walk
	SpanEAResume    = "ea_resume"    // aggregate post-first-chunk resumes
	SpanScan        = "scan"         // whole-dataset scan (EA / heap modes)
	SpanRerank      = "rerank"       // exact re-rank of int-scan candidates
)

// Span names used by the sharded scatter-gather path (internal/shard). A
// sharded query files one parent QueryTrace whose spans carry a Shard id:
// per shard a wait span (dispatch/queue delay on the bounded worker pool)
// and a scan span (the shard's whole search, pruning attribution inline),
// plus instantaneous bound-feedback events and one trailing merge span.
const (
	SpanShardWait     = "shard_wait"     // scatter start → worker pickup
	SpanShardScan     = "shard_scan"     // one shard's complete search
	SpanShardMerge    = "shard_merge"    // deterministic k-way merge
	SpanBoundFeedback = "bound_feedback" // a shard tightened the global k-th bound
)

// ShardSpan reports whether name is one of the scatter-gather span names
// whose Shard field is meaningful.
func ShardSpan(name string) bool {
	switch name {
	case SpanShardWait, SpanShardScan, SpanBoundFeedback:
		return true
	}
	return false
}

// Span is one timed phase of a query. Start is the offset from the query's
// start; aggregate spans (SpanEAResume) carry the summed duration of many
// short stretches and the stretch count in Count.
type Span struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start_ns"`
	Dur   time.Duration `json:"dur_ns"`
	// Cluster and Rank identify a SpanClusterScan: the TI cluster id and
	// its position in the query's nearest-first visit order (-1 otherwise).
	Cluster int `json:"cluster,omitempty"`
	Rank    int `json:"rank,omitempty"`
	// Count is the number of aggregated stretches (SpanEAResume) or codes
	// walked (SpanClusterScan).
	Count int `json:"count,omitempty"`
	// SkippedTI, AbandonedEA and Lookups are the pruning work attributed
	// to this span (SpanClusterScan, the whole-scan spans, and
	// SpanShardScan — where they are the shard's whole-search attribution;
	// on SpanBoundFeedback, AbandonedEA/SkippedTI instead credit the prunes
	// the published bound enabled in shards that started after it).
	SkippedTI   int `json:"skipped_ti,omitempty"`
	AbandonedEA int `json:"abandoned_ea,omitempty"`
	Lookups     int `json:"lookups,omitempty"`
	// Shard identifies which scatter-gather shard this span describes.
	// Meaningful only on the shard span names (ShardSpan); like Cluster,
	// the zero value on other spans carries no information.
	Shard int `json:"shard,omitempty"`
	// Hits is how many of the query's final merged top-k results this
	// shard served (SpanShardScan only).
	Hits int `json:"hits,omitempty"`
	// Bound is the global k-th distance a SpanBoundFeedback event
	// published (0 elsewhere).
	Bound float64 `json:"bound,omitempty"`
}

// QueryTrace is one completed query: its spans, total wall time, and the
// pruning counters the metrics registry aggregates index-wide.
type QueryTrace struct {
	// Seq is a monotonically increasing id assigned at completion (unique
	// per Tracer, so exemplars and ring entries can be correlated).
	Seq uint64 `json:"seq"`
	// Start is the wall-clock time the query began.
	Start time.Time `json:"start"`
	// Total is the query's end-to-end duration (projection included when
	// the query came in raw).
	Total time.Duration `json:"total_ns"`
	Mode  string        `json:"mode"`
	K     int           `json:"k"`
	Spans []Span        `json:"spans"`
	// DroppedSpans counts spans discarded once the per-query cap was hit
	// (very wide visit fractions); the kept spans are the earliest.
	DroppedSpans int                  `json:"dropped_spans,omitempty"`
	Stats        metrics.SearchRecord `json:"stats"`
}

// Config tunes a Tracer. The zero value is usable: 128 recent traces, 16
// slow exemplars above 10ms, at most 192 spans kept per query.
type Config struct {
	// RingSize is how many recent traces are retained (default 128).
	RingSize int
	// SlowThreshold is the latency above which a query is eligible for the
	// exemplar reservoir (default 10ms).
	SlowThreshold time.Duration
	// Exemplars is the reservoir size for slow queries (default 16).
	Exemplars int
	// MaxSpans caps the spans kept per query (default 192); later spans
	// are counted in DroppedSpans instead of stored.
	MaxSpans int
	// Seed drives reservoir sampling (0 = a fixed default, so tests are
	// deterministic).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.RingSize <= 0 {
		c.RingSize = 128
	}
	if c.SlowThreshold <= 0 {
		c.SlowThreshold = 10 * time.Millisecond
	}
	if c.Exemplars <= 0 {
		c.Exemplars = 16
	}
	if c.MaxSpans <= 0 {
		c.MaxSpans = 192
	}
	return c
}

// Tracer collects completed QueryTraces from any number of Recorders. The
// ring append is lock-free (an atomic sequence plus per-slot atomic
// pointers); only slow queries — rare by construction — take the reservoir
// mutex.
type Tracer struct {
	cfg  Config
	seq  atomic.Uint64
	ring []atomic.Pointer[QueryTrace]

	mu       sync.Mutex
	rng      *rand.Rand
	slow     []*QueryTrace
	slowSeen uint64
}

// New returns a Tracer with the given configuration.
func New(cfg Config) *Tracer {
	cfg = cfg.withDefaults()
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Tracer{
		cfg:  cfg,
		ring: make([]atomic.Pointer[QueryTrace], cfg.RingSize),
		rng:  rand.New(rand.NewSource(seed)),
	}
}

// Config reports the tracer's effective (defaulted) configuration.
func (t *Tracer) Config() Config { return t.cfg }

// add files one completed trace and returns its sequence id: always into
// the ring, and into the slow reservoir when it crossed the threshold
// (Algorithm R, so every slow query has equal probability of surviving as
// an exemplar).
func (t *Tracer) add(qt *QueryTrace) uint64 {
	qt.Seq = t.seq.Add(1)
	t.ring[int((qt.Seq-1)%uint64(len(t.ring)))].Store(qt)
	if qt.Total < t.cfg.SlowThreshold {
		return qt.Seq
	}
	t.mu.Lock()
	t.slowSeen++
	if len(t.slow) < t.cfg.Exemplars {
		t.slow = append(t.slow, qt)
	} else if j := t.rng.Intn(int(t.slowSeen)); j < len(t.slow) {
		t.slow[j] = qt
	}
	t.mu.Unlock()
	return qt.Seq
}

// Recent returns the retained traces, oldest first. The ring is read
// without locks, so under heavy concurrent traffic the copy is a
// near-consistent sample, not an atomic cut — fine for diagnostics.
func (t *Tracer) Recent() []*QueryTrace {
	if t == nil {
		return nil
	}
	out := make([]*QueryTrace, 0, len(t.ring))
	head := t.seq.Load() // next slot to overwrite is head % size
	n := uint64(len(t.ring))
	for i := uint64(0); i < n; i++ {
		if qt := t.ring[int((head+i)%n)].Load(); qt != nil {
			out = append(out, qt)
		}
	}
	return out
}

// Slowest returns the slow-query exemplars sorted worst-first, and the
// total number of threshold-crossing queries observed (>= len of the
// returned slice: the reservoir subsamples).
func (t *Tracer) Slowest() ([]*QueryTrace, uint64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	out := make([]*QueryTrace, len(t.slow))
	copy(out, t.slow)
	seen := t.slowSeen
	t.mu.Unlock()
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Total > out[j-1].Total; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out, seen
}

// Count reports how many traces have been recorded in total.
func (t *Tracer) Count() uint64 {
	if t == nil {
		return 0
	}
	return t.seq.Load()
}

// NewRecorder returns a per-goroutine span collector feeding this tracer.
// A nil Tracer yields a nil Recorder, on which every method is a no-op.
func (t *Tracer) NewRecorder() *Recorder {
	if t == nil {
		return nil
	}
	return &Recorder{tr: t}
}

// Recorder accumulates one query's spans without synchronization; it is
// owned by a single Searcher. Begin/Add/End on a nil Recorder are no-ops,
// so call sites pay one pointer check when tracing is off.
type Recorder struct {
	tr      *Tracer
	t0      time.Time
	spans   []Span
	dropped int
}

// Begin starts a new query trace. backdate shifts the origin earlier by
// work already done (query projection happens before the traced window
// opens), so the projection span occupies [0, backdate) without
// overlapping the scan phases.
func (r *Recorder) Begin(backdate time.Duration) {
	if r == nil {
		return
	}
	r.t0 = time.Now().Add(-backdate)
	r.spans = r.spans[:0]
	r.dropped = 0
}

// Clock returns the offset from the query start; pair two calls around a
// phase to produce a Span.
func (r *Recorder) Clock() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.t0)
}

// Active reports whether this recorder is collecting (always false for a
// nil Recorder). Kernels use it to skip attribution bookkeeping wholesale.
func (r *Recorder) Active() bool { return r != nil }

// Tracer returns the tracer r records into (nil for a nil Recorder).
func (r *Recorder) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tr
}

// Add appends one span, or counts it as dropped past the per-query cap.
func (r *Recorder) Add(s Span) {
	if r == nil {
		return
	}
	if len(r.spans) >= r.tr.cfg.MaxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, s)
}

// End completes the trace, files it with the tracer, and returns the
// assigned trace sequence id (0 for a nil Recorder) so callers — the
// workload capture — can correlate a log entry with its exemplar. The total
// is measured against the (possibly backdated) origin, so it includes the
// projection cost the metrics histogram deliberately excludes.
func (r *Recorder) End(mode string, k int, stats metrics.SearchRecord) uint64 {
	if r == nil {
		return 0
	}
	qt := &QueryTrace{
		Start:        r.t0,
		Total:        time.Since(r.t0),
		Mode:         mode,
		K:            k,
		Spans:        append([]Span(nil), r.spans...),
		DroppedSpans: r.dropped,
		Stats:        stats,
	}
	return r.tr.add(qt)
}
