package vaq

import (
	"fmt"

	"vaq/internal/workload"
)

// CaptureConfig tunes workload capture (sample rate, buffer bound; see the
// field docs in internal/workload.Config). Fingerprint and Dim are filled
// in by EnableCapture — leave them zero.
type CaptureConfig = workload.Config

// WorkloadCapture is a bounded lock-free buffer of sampled queries.
// Obtain one with Index.EnableCapture; Snapshot turns its contents into a
// serializable WorkloadLog.
type WorkloadCapture = workload.Capture

// WorkloadRecord is one captured query: the query vector, k, search
// options, the returned ids and distances, latency, and (when tracing is
// on) the trace sequence number linking it to its QueryTrace.
type WorkloadRecord = workload.Record

// WorkloadLog is a serializable set of captured queries plus the config
// fingerprint of the index that answered them. Save/LoadWorkloadLog use
// the versioned .vaqwl binary format documented in DESIGN.md.
type WorkloadLog = workload.Log

// ReplayThresholds gate a replay: minimum mean overlap@k, maximum result
// distance drift, maximum latency factor. Zero values disable each gate.
type ReplayThresholds = workload.Thresholds

// ReplayOptions tune a replay run (pacing, thresholds).
type ReplayOptions = workload.Options

// ReplayReport summarizes a replay: per-query overlap@k against the
// recorded results, distance drift, latency comparison, and any threshold
// violations (Passed reports whether there were none).
type ReplayReport = workload.Report

// ReplayQueryDiff is the per-query detail behind a ReplayReport.
type ReplayQueryDiff = workload.QueryDiff

// LoadWorkloadLog reads a .vaqwl workload log written by WorkloadLog.Save.
func LoadWorkloadLog(path string) (*WorkloadLog, error) {
	l, err := workload.LoadLog(path)
	if err != nil {
		return nil, fmt.Errorf("vaq: %w", err)
	}
	return l, nil
}

// EnableCapture installs a workload capture buffer on the index and
// returns it. From the next query on, a deterministic sample of searches
// (every round(1/SampleRate)-th, like the recall estimator) records its
// query vector, options, results and latency into the buffer, bounded at
// MaxRecords. Capture is off by default; when off the query path pays one
// atomic pointer load, and sampling itself costs one atomic increment per
// query plus a copy only on sampled ones. Safe to call while queries are
// in flight.
func (ix *Index) EnableCapture(cfg CaptureConfig) *WorkloadCapture {
	return ix.inner.EnableCapture(cfg)
}

// DisableCapture detaches the capture buffer; records already stored stay
// readable through the WorkloadCapture EnableCapture returned.
func (ix *Index) DisableCapture() { ix.inner.DisableCapture() }

// Capture returns the active workload capture, or nil when capture is off.
func (ix *Index) Capture() *WorkloadCapture { return ix.inner.Capture() }

// ConfigFingerprint is a stable short hash of the search-relevant build
// configuration. Workload logs and incident bundles carry it so a replay
// can tell "same config rebuild" from "different index".
func (ix *Index) ConfigFingerprint() string { return ix.inner.ConfigFingerprint() }

// ReplayWorkload re-runs a captured workload log against this index and
// diffs the answers against the recorded ones: overlap@k, result distance
// drift, latency comparison. The report's Violations list (and Passed)
// reflect opt.Thresholds. Replaying a log against the index that captured
// it (or a deterministic same-config rebuild) yields 100% overlap and zero
// drift; a drop measures how far the new index diverges on real traffic.
func (ix *Index) ReplayWorkload(l *WorkloadLog, opt ReplayOptions) (*ReplayReport, []ReplayQueryDiff, error) {
	rep, diffs, err := workload.Replay(l, ix.inner.ReplayRunner(), opt)
	if err != nil {
		return nil, nil, fmt.Errorf("vaq: %w", err)
	}
	return rep, diffs, nil
}
