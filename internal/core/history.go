package core

import (
	"errors"
	"log/slog"

	"vaq/internal/history"
	"vaq/internal/metrics"
)

// EnableHistory arms the metrics history collector on the index: a
// background goroutine sampling the registry on cfg.Interval into tiered
// ring buffers (raw cadence → 10s → 1m aggregates), from which trends,
// rates and the /debug/vaq/history endpoint are served. When the index has
// a configured SLO and cfg.DisableBurn is false, the collector also takes
// over objective alerting: the canonical multi-window multi-burn-rate
// rules (cfg.Burn, default fast 5m + slow 1h) evaluate on cadence, fire
// vaq.burn.* sources on the index's alert bus, and the instantaneous
// exhaustion edge (vaq.slo.*) is delegated quiet while armed.
//
// name labels the collector's merged target (use the name the index is
// published under). Errors if metrics are disabled or a collector is
// already armed. Disarm with DisableHistory.
func (ix *Index) EnableHistory(name string, cfg history.Config) (*history.Collector, error) {
	if ix.metrics == nil {
		return nil, errors.New("vaq: history collector requires metrics (Config.DisableMetrics is set)")
	}
	if ix.hist.Load() != nil {
		return nil, errors.New("vaq: history collector already armed")
	}
	if cfg.OnBurn == nil {
		cfg.OnBurn = ix.burnEvent
	}
	c := history.New(name, cfg)
	c.Watch(name, ix.metrics)
	if !ix.hist.CompareAndSwap(nil, c) {
		c.Close()
		return nil, errors.New("vaq: history collector already armed")
	}
	return c, nil
}

// DisableHistory stops the collector after a final sweep and hands SLO
// alerting back to the instantaneous exhaustion edge. No-op when none is
// armed. The retained series stay readable through the returned collector
// of EnableHistory, but the index drops its reference.
func (ix *Index) DisableHistory() {
	if c := ix.hist.Swap(nil); c != nil {
		c.Close()
	}
}

// burnEvent is the default history.Config.OnBurn: one vaq.burn slog event
// per burn-rule breach edge (the alert source latches the edge, so this
// fires exactly once per crossing and re-arms on recovery). Runs on the
// collector goroutine, never the query path.
func (ix *Index) burnEvent(target string, st metrics.BurnRuleStatus) {
	if ix.cfg.Logger == nil {
		return
	}
	ix.cfg.Logger.Warn("vaq.burn",
		slog.String("target", target),
		slog.String("objective", st.Objective),
		slog.String("rule", st.Rule),
		slog.Float64("burn", st.Burn),
		slog.Float64("short_burn", st.ShortBurn),
		slog.Float64("threshold", st.Threshold),
		slog.String("window", st.Window.String()),
		slog.String("confirm", st.Confirm.String()))
}
