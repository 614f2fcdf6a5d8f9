package vaq

import (
	"vaq/internal/bundle"
	"vaq/internal/history"
	"vaq/internal/trace"
	"vaq/internal/workload"
)

// TraceConfig tunes per-query tracing (ring size, slow-query threshold,
// exemplar reservoir size; see the field docs in internal/trace.Config).
// The zero value is usable.
type TraceConfig = trace.Config

// Tracer collects completed query traces: a lock-free ring of the most
// recent queries plus a reservoir of slow-query exemplars. Obtain one with
// EnableTracing; read it with Recent, Slowest and Count.
type Tracer = trace.Tracer

// Names of the spans the query kernels record.
const (
	SpanProject     = trace.SpanProject
	SpanLUTFill     = trace.SpanLUTFill
	SpanClusterRank = trace.SpanClusterRank
	SpanClusterScan = trace.SpanClusterScan
	SpanEAResume    = trace.SpanEAResume
	SpanScan        = trace.SpanScan
)

// EnableTracing installs a fresh per-query tracer on the index and returns
// it. Every later Search/SearchWith and Searchers created afterwards —
// SearchBatch workers included — record one trace per query; Searchers
// created earlier keep running untraced. Tracing costs a few clock reads
// and one allocation per query; disabled, it costs one nil pointer check.
func (ix *Index) EnableTracing(cfg TraceConfig) *Tracer { return ix.inner.EnableTracing(cfg) }

// DisableTracing detaches the index tracer: the next Search/SearchWith runs
// untraced. Existing Searchers keep their recorders until recreated.
func (ix *Index) DisableTracing() { ix.inner.DisableTracing() }

// CaptureConfig tunes workload capture (sample rate, buffer bound; see the
// field docs in internal/workload.Config). Fingerprint and Dim are filled
// in by EnableCapture — leave them zero.
type CaptureConfig = workload.Config

// WorkloadCapture is a bounded lock-free buffer of sampled queries.
// Obtain one with EnableCapture; Snapshot turns its contents into a
// serializable workload log.
type WorkloadCapture = workload.Capture

// EnableCapture installs a workload capture buffer on the index and
// returns it. From the next query on, a deterministic sample of searches
// (every round(1/SampleRate)-th) records its query vector, options,
// results and latency into the buffer, bounded at MaxRecords. When off the
// query path pays one atomic pointer load. Safe while queries are in
// flight.
func (ix *Index) EnableCapture(cfg CaptureConfig) *WorkloadCapture {
	return ix.inner.EnableCapture(cfg)
}

// DisableCapture detaches the capture buffer; records already stored stay
// readable through the WorkloadCapture EnableCapture returned.
func (ix *Index) DisableCapture() { ix.inner.DisableCapture() }

// HistoryConfig tunes a metrics history collector: sampling cadence,
// per-tier ring capacities and bucket widths (see the field docs in
// internal/history.Config).
type HistoryConfig = history.Config

// HistoryCollector is an armed metrics history collector: a background
// goroutine sampling the index's telemetry into per-series ring buffers
// with tiered retention. Obtain one with EnableHistory.
type HistoryCollector = history.Collector

// EnableHistory arms a metrics history collector on the index; name labels
// the sampled target. Disarm with DisableHistory.
func (ix *Index) EnableHistory(name string, cfg HistoryConfig) (*HistoryCollector, error) {
	return ix.inner.EnableHistory(name, cfg)
}

// DisableHistory stops the collector after a final sweep. No-op when none
// is armed.
func (ix *Index) DisableHistory() { ix.inner.DisableHistory() }

// BundleConfig tunes a flight recorder: the bundle directory, the
// metric-snapshot ring, the post-trigger delay and the automatic bundle
// cap (see the field docs in internal/bundle.Config).
type BundleConfig = bundle.Config

// FlightRecorder is an armed incident recorder: it watches the index's
// alerts and freezes recent context into incident bundles. Obtain one
// with EnableFlightRecorder; it also supports a manual Trigger.
type FlightRecorder = bundle.Recorder

// EnableFlightRecorder arms a flight recorder on the index: on any alert
// breach edge (or FlightRecorder.Trigger), the recent context — metrics,
// alert history, query traces, a replayable workload log of recent
// sampled queries, the index report, runtime stats — is frozen into a
// versioned incident bundle under cfg.Dir. name is stamped into each
// bundle's provenance. Armed but idle, the query path cost is unchanged.
// Disarm with DisableFlightRecorder.
func (ix *Index) EnableFlightRecorder(name string, cfg BundleConfig) (*FlightRecorder, error) {
	return ix.inner.EnableFlightRecorder(name, cfg)
}

// DisableFlightRecorder disarms the flight recorder, flushing pending
// alert-triggered bundles first. No-op when none is armed.
func (ix *Index) DisableFlightRecorder() error { return ix.inner.DisableFlightRecorder() }

// EnableTracing installs a per-query tracer on the sharded index and
// returns it. Every query files one trace whose spans carry a Shard id:
// per shard a wait and a scan span, one bound-feedback span per
// cross-shard bound tightening, and a trailing merge span.
func (ix *ShardedIndex) EnableTracing(cfg TraceConfig) *Tracer { return ix.inner.EnableTracing(cfg) }

// DisableTracing detaches the sharded index's tracer; queries already in
// flight may still file one last trace.
func (ix *ShardedIndex) DisableTracing() { ix.inner.DisableTracing() }

// EnableCapture installs a workload capture buffer on the merged query
// path and returns it. Sampled queries record the merged global result
// list, and the log's provenance carries the sharded config fingerprint
// and the shard count.
func (ix *ShardedIndex) EnableCapture(cfg CaptureConfig) *WorkloadCapture {
	return ix.inner.EnableCapture(cfg)
}

// DisableCapture detaches the capture buffer.
func (ix *ShardedIndex) DisableCapture() { ix.inner.DisableCapture() }

// EnableHistory arms a history collector on the sharded index: the merged
// registry is watched under name and every per-shard registry under
// name/shard-i.
func (ix *ShardedIndex) EnableHistory(name string, cfg HistoryConfig) (*HistoryCollector, error) {
	return ix.inner.EnableHistory(name, cfg)
}

// DisableHistory stops the collector after a final sweep. No-op when none
// is armed.
func (ix *ShardedIndex) DisableHistory() { ix.inner.DisableHistory() }

// EnableFlightRecorder arms a flight recorder on the sharded index — same
// contract as the unsharded one, with the bundle's workload log carrying
// the merged result lists and shard count.
func (ix *ShardedIndex) EnableFlightRecorder(name string, cfg BundleConfig) (*FlightRecorder, error) {
	return ix.inner.EnableFlightRecorder(name, cfg)
}

// DisableFlightRecorder disarms the flight recorder, flushing pending
// alert-triggered bundles first. No-op when none is armed.
func (ix *ShardedIndex) DisableFlightRecorder() error { return ix.inner.DisableFlightRecorder() }
