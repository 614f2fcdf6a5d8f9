package vaq

import (
	"vaq/internal/trace"
)

// TraceConfig tunes per-query tracing (ring size, slow-query threshold,
// exemplar reservoir size; see the field docs in internal/trace.Config).
// The zero value is usable.
type TraceConfig = trace.Config

// Tracer collects completed QueryTraces: a lock-free ring of the most
// recent queries plus a reservoir of slow-query exemplars. Obtain one with
// Index.EnableTracing; read it with Recent, Slowest and Count.
type Tracer = trace.Tracer

// QueryTrace is one traced query: its timed spans, total wall time, and
// the pruning stats the metrics registry aggregates index-wide.
type QueryTrace = trace.QueryTrace

// TraceSpan is one timed phase of a traced query (projection, LUT fill,
// cluster ranking, per-cluster scan, EA resume).
type TraceSpan = trace.Span

// Names of the spans the query kernels record.
const (
	SpanProject     = trace.SpanProject
	SpanLUTFill     = trace.SpanLUTFill
	SpanClusterRank = trace.SpanClusterRank
	SpanClusterScan = trace.SpanClusterScan
	SpanEAResume    = trace.SpanEAResume
	SpanScan        = trace.SpanScan
)

// Names of the spans a sharded scatter-gather query records
// (ShardedIndex.EnableTracing): per shard a wait and a scan span, one
// bound-feedback event per cross-shard bound tightening, and a trailing
// merge span. Their TraceSpan.Shard field identifies the shard.
const (
	SpanShardWait     = trace.SpanShardWait
	SpanShardScan     = trace.SpanShardScan
	SpanShardMerge    = trace.SpanShardMerge
	SpanBoundFeedback = trace.SpanBoundFeedback
)

// EnableTracing installs a fresh per-query tracer on the index and returns
// it. Every later Search/SearchWith and Searchers created afterwards —
// SearchBatch workers included — record one QueryTrace per query; Searchers
// created earlier keep running untraced (re-point them with
// Searcher.AttachTracer). Tracing costs a few clock reads and one
// allocation per query; disabled, it costs one nil pointer check.
func (ix *Index) EnableTracing(cfg TraceConfig) *Tracer {
	return ix.inner.EnableTracing(cfg)
}

// DisableTracing detaches the index tracer: the next Search/SearchWith runs
// untraced. Existing Searchers keep their recorders until recreated or
// re-pointed.
func (ix *Index) DisableTracing() { ix.inner.DisableTracing() }

// Tracer returns the active tracer, or nil when tracing is disabled.
func (ix *Index) Tracer() *Tracer { return ix.inner.Tracer() }

// AttachTracer re-points this Searcher at t (nil detaches). Searchers pick
// up the index tracer at creation; long-lived ones built before
// EnableTracing use this to opt in without being recreated.
func (s *Searcher) AttachTracer(t *Tracer) { s.inner.AttachTracer(t) }

// PublishTrace registers t under name for the /debug/vaq/traces HTTP
// handler (served by ServeDebug alongside /debug/vars and /debug/pprof/):
// plain text by default, ?format=chrome for Chrome trace-event JSON
// (load in chrome://tracing or Perfetto), ?slow=1 for the slow-query
// exemplars only. Publishing nil removes the name.
func PublishTrace(name string, t *Tracer) { trace.Publish(name, t) }
