package core

import (
	"log/slog"
	"time"

	"vaq/internal/alert"
	"vaq/internal/diag"
	"vaq/internal/quantizer"
)

// driftEWMAWindow is the smoothing horizon (in vectors) of the
// quantization-drift estimator: an Add batch of b vectors moves the
// per-subspace EWMA by weight b/(b+driftEWMAWindow), so the gauge reflects
// roughly the last ~1k incoming vectors regardless of batch sizing.
const driftEWMAWindow = 1024

// sizes returns the TI cluster member counts (the balance input of the
// IndexReport).
func (ti *tiIndex) sizes() []int {
	s := make([]int, len(ti.clusters))
	for i, members := range ti.clusters {
		s[i] = len(members)
	}
	return s
}

// Diagnose computes a point-in-time IndexReport: utilization and TI
// balance are always recomputed from the current codes; the distortion
// fields come from the retained projected vectors when the index has them
// (MSESource "fresh", covering everything Add appended), else from the
// Build-time baseline (MSESource "build-baseline"), else the report is
// Partial (a loaded index retains neither). Safe to call concurrently
// with Search and Add: it reports one published state.
func (ix *Index) Diagnose() *diag.Report {
	st := ix.state.Load()
	rep := diag.Compute(diag.Input{
		N:              st.n,
		Dim:            ix.queryDim,
		Bits:           ix.bits,
		VarianceShares: ix.subVar,
		Codebooks:      ix.cb,
		Codes:          st.codes,
		ClusterSizes:   st.ti.sizes(),
		Projected:      st.retained,
	})
	rep.GeneratedAt = time.Now()
	switch {
	case !rep.Partial:
		rep.MSESource = diag.MSEFresh
	case ix.baseline != nil:
		// No retained vectors, but the Build-time distortion accounting is
		// still on hand: carry it forward explicitly instead of reporting
		// zeroed MSE fields. Vectors added since Build are not reflected
		// here — that is what the drift gauges watch.
		rep.Partial = false
		rep.MSESource = diag.MSEBaseline
		rep.TotalMSE = ix.baseline.TotalMSE
		rep.TotalVariance = ix.baseline.TotalVariance
		rep.MSEShare = ix.baseline.MSEShare
		for s := range rep.Subspaces {
			if s < len(ix.baseline.Subspaces) {
				b := &ix.baseline.Subspaces[s]
				rep.Subspaces[s].Variance = b.Variance
				rep.Subspaces[s].MSE = b.MSE
				rep.Subspaces[s].MSEShare = b.MSEShare
			}
		}
	}
	if ix.baselineMSE != nil {
		ratio := driftRatio(st.driftEWMA, ix.baselineMSE)
		rep.Drift = &diag.DriftReport{
			Ratio:           ratio,
			AlertRatio:      ix.cfg.DriftAlertRatio,
			Alert:           ix.cfg.DriftAlertRatio > 0 && ratio > ix.cfg.DriftAlertRatio,
			SubspaceMSEEWMA: append([]float64(nil), st.driftEWMA...),
			BaselineMSE:     append([]float64(nil), ix.baselineMSE...),
		}
	}
	rep.SLO = ix.metrics.SLOSnapshot()
	return rep
}

// driftRatio is total EWMA MSE over total baseline MSE (1 = no drift). A
// zero baseline (exact reconstruction everywhere) cannot drift downward,
// so any positive EWMA there reports as ratio 1 + ewma to stay finite.
func driftRatio(ewma, baseline []float64) float64 {
	var e, b float64
	for _, v := range ewma {
		e += v
	}
	for _, v := range baseline {
		b += v
	}
	if b <= 0 {
		if e <= 0 {
			return 1
		}
		return 1 + e
	}
	return e / b
}

// initDiagnostics installs the Build-time baseline report and seeds the
// drift estimator (returned: it belongs to the first state) and the
// registry's drift gauges from it. Called once at the end of Build with
// the projected dataset still on hand.
func (ix *Index) initDiagnostics(rep *diag.Report) (driftEWMA []float64) {
	rep.GeneratedAt = time.Now()
	rep.MSESource = diag.MSEFresh
	ix.baseline = rep
	ix.baselineMSE = make([]float64, len(rep.Subspaces))
	for s := range rep.Subspaces {
		ix.baselineMSE[s] = rep.Subspaces[s].MSE
	}
	driftEWMA = append([]float64(nil), ix.baselineMSE...)
	ix.metrics.SetSubspaceMSE(driftEWMA)
	ix.metrics.SetDrift(1, false)
	ix.metrics.SetDeadCodewords(uint64(rep.DeadCodewordsTotal))
	return driftEWMA
}

// foldDrift folds one Add batch's per-subspace squared reconstruction
// error into the EWMA drift estimator and returns the successor estimate
// (prev is left untouched). It refreshes the registry gauges and emits the
// vaq.drift slog event when the ratio first crosses Config.DriftAlertRatio
// (the edge latch lives on the alert bus, so the crossing also reaches bus
// subscribers and re-arms on recovery). codes is the grown code set, for
// the dead-codeword count. Callers hold ix.writeMu, which also makes the
// lazy creation of ix.driftSrc single-threaded.
func (ix *Index) foldDrift(prev, batchSqErr []float64, batch int, codes *quantizer.Codes) []float64 {
	alpha := float64(batch) / (float64(batch) + driftEWMAWindow)
	ewma := make([]float64, len(prev))
	for s := range ewma {
		ewma[s] = float64((1-alpha)*prev[s]) + alpha*batchSqErr[s]/float64(batch)
	}
	ratio := driftRatio(ewma, ix.baselineMSE)
	alerting := ix.cfg.DriftAlertRatio > 0 && ratio > ix.cfg.DriftAlertRatio
	dead := countDeadCodewords(ix.cb, codes)
	ix.metrics.SetSubspaceMSE(ewma)
	ix.metrics.SetDrift(ratio, alerting)
	ix.metrics.SetDeadCodewords(uint64(dead))
	if ix.driftSrc == nil {
		// On the metrics alert bus when the index has a registry (so drift
		// edges reach bus subscribers like the flight recorder), standalone
		// otherwise (the latch — and its slog event — must keep working
		// under DisableMetrics).
		if b := ix.metrics.Alerts(); b != nil {
			ix.driftSrc = b.Source("vaq.drift")
		} else {
			ix.driftSrc = alert.NewSource("vaq.drift")
		}
	}
	if ix.driftSrc.Set(alerting) && ix.cfg.Logger != nil {
		ix.cfg.Logger.Warn("vaq.drift",
			slog.Float64("ratio", ratio),
			slog.Float64("alert_ratio", ix.cfg.DriftAlertRatio),
			slog.Int("n", codes.N),
			slog.Int("dead_codewords", dead))
	}
	return ewma
}

// sloBreach is the metrics.BreachFunc Build installs for Config.SLO: one
// vaq.slo slog event per budget-exhaustion edge (the metrics layer latches
// the edge, so this fires exactly once per crossing and re-arms on
// recovery). Called from the query path — one structured log line, nothing
// else.
func (ix *Index) sloBreach(kind string, remaining, burn float64) {
	if ix.cfg.Logger == nil {
		return
	}
	ix.cfg.Logger.Warn("vaq.slo",
		slog.String("objective", kind),
		slog.Float64("budget_remaining", remaining),
		slog.Float64("burn_rate", burn))
}

// countDeadCodewords counts dictionary entries no code references, summed
// over subspaces. One pass over the codes; Add calls it while preparing
// each batch (beside the O(n·m) scan-store rebuild, so it does not change
// Add's complexity).
func countDeadCodewords(cb *quantizer.Codebooks, codes *quantizer.Codes) int {
	m := cb.Sub.M()
	used := make([][]bool, m)
	total := 0
	for s := 0; s < m; s++ {
		used[s] = make([]bool, cb.Books[s].Rows)
		total += cb.Books[s].Rows
	}
	live := 0
	for i := 0; i < codes.N; i++ {
		row := codes.Row(i)
		for s := 0; s < m; s++ {
			c := int(row[s])
			if c < len(used[s]) && !used[s][c] {
				used[s][c] = true
				live++
			}
		}
	}
	return total - live
}
