package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"vaq/internal/vec"
	"vaq/internal/workload"
)

// fingerprintConfig is the canonical serialization the config fingerprint
// hashes: every build parameter that changes what a query returns. It
// deliberately excludes runtime-only knobs (metrics, tracing, logging,
// recall sampling, profiling) — two indexes differing only in telemetry
// answer identically.
type fingerprintConfig struct {
	Dim               int     `json:"dim"`
	Subspaces         int     `json:"subspaces"`
	Budget            int     `json:"budget"`
	MinBits           int     `json:"min_bits"`
	MaxBits           int     `json:"max_bits"`
	NonUniform        bool    `json:"non_uniform"`
	NoPartialBalance  bool    `json:"no_partial_balance,omitempty"`
	Alloc             int     `json:"alloc"`
	TargetVariance    float64 `json:"target_variance"`
	TIClusters        int     `json:"ti_clusters"`
	TIPrefixSubspaces int     `json:"ti_prefix_subspaces"`
	DefaultVisitFrac  float64 `json:"visit_frac"`
	EACheckEvery      int     `json:"ea_check_every"`
	Seed              int64   `json:"seed"`
	// Layout is the constant "blocked": workload captures and incident
	// bundles carry fingerprints minted when it was a setting.
	Layout string `json:"layout"`
	// Accuracy is "" for exact mode (omitted, so every fingerprint minted
	// before the integer kernel existed is unchanged) and "fast" when the
	// integer kernel answers queries — a different-answers config.
	Accuracy string `json:"accuracy,omitempty"`
}

// ConfigFingerprint is a stable short hash of the search-relevant build
// configuration: sha256 over the canonical JSON, first 8 bytes in hex.
// Workload logs carry it so a replay can tell "same config rebuild" from
// "different index", and incident bundles record it; the scheme is pinned
// so fingerprints in existing captures and bundles keep matching.
func (ix *Index) ConfigFingerprint() string {
	fp := fingerprintConfig{
		Dim:               ix.queryDim,
		Subspaces:         ix.cfg.NumSubspaces,
		Budget:            ix.cfg.Budget,
		MinBits:           ix.cfg.MinBits,
		MaxBits:           ix.cfg.MaxBits,
		NonUniform:        ix.cfg.NonUniform,
		NoPartialBalance:  ix.cfg.DisablePartialBalance,
		Alloc:             int(ix.cfg.Alloc),
		TargetVariance:    ix.cfg.TargetVariance,
		TIClusters:        ix.cfg.TIClusters,
		TIPrefixSubspaces: ix.cfg.TIPrefixSubspaces,
		DefaultVisitFrac:  ix.cfg.DefaultVisitFrac,
		EACheckEvery:      ix.cfg.EACheckEvery,
		Seed:              ix.cfg.Seed,
		Layout:            "blocked",
	}
	if mode := ix.Accuracy(); mode != AccuracyExact {
		fp.Accuracy = mode.String()
	}
	blob, err := json.Marshal(fp)
	if err != nil {
		return "unknown"
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:8])
}

// EnableCapture installs a workload capture buffer and returns it. From the
// next query on, every sampled search (deterministic stride, like the
// recall estimator) appends its query, options, result list and latency to
// the buffer; Snapshot on the returned Capture yields a serializable Log.
// cfg.Fingerprint and cfg.Dim are filled in from the index. Safe to call
// while queries are in flight; off by default, and when off the query path
// pays one atomic pointer load.
func (ix *Index) EnableCapture(cfg workload.Config) *workload.Capture {
	cfg.Fingerprint = ix.ConfigFingerprint()
	cfg.Dim = ix.queryDim
	c := workload.NewCapture(cfg)
	ix.capture.Store(c)
	return c
}

// DisableCapture detaches the capture buffer; records already stored stay
// readable through the Capture returned by EnableCapture.
func (ix *Index) DisableCapture() { ix.capture.Store(nil) }

// Capture returns the active workload capture, or nil when capture is off.
func (ix *Index) Capture() *workload.Capture { return ix.capture.Load() }

// ReplayRunner adapts one reusable Searcher to the workload replay engine:
// raw-captured queries go through the full Search path (projection
// included), projected captures through SearchProjected.
func (ix *Index) ReplayRunner() workload.RunFunc {
	s := ix.newSearcher()
	return func(r *workload.Record) ([]int32, []float32, error) {
		opt := SearchOptions{
			Mode:      SearchMode(r.Mode),
			VisitFrac: r.VisitFrac,
			Subspaces: int(r.Subspaces),
		}
		var res []vec.Neighbor
		var err error
		if r.Projected {
			res, err = s.SearchProjected(r.Query, int(r.K), opt)
		} else {
			res, err = s.Search(r.Query, int(r.K), opt)
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

// captureQuery files one sampled query into the capture buffer. qz is the
// projected query run executed; the raw query (when the search came in
// unprojected) is preferred so a replay can target a rebuild with a
// different PCA rotation.
func (s *Searcher) captureQuery(c *workload.Capture, qz []float32, k int, opt SearchOptions, res []vec.Neighbor, lat int64, traceSeq uint64) {
	q, projected := s.rawQ, false
	if q == nil {
		q, projected = qz, true
	}
	r := &workload.Record{
		LatencyNs: lat,
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
