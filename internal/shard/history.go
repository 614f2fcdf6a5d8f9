package shard

import (
	"errors"
	"fmt"
	"log/slog"

	"vaq/internal/history"
	"vaq/internal/metrics"
)

// EnableHistory arms the metrics history collector on the sharded index:
// one background goroutine sampling the merged registry under name and
// every per-shard registry under name/shard-i, so trends (QPS, skew,
// per-shard prune rates) are queryable per target through the shared
// /debug/vaq/history endpoint. Because sampling snapshots the merged
// registry on cadence, the windowed skew-ratio and load-imbalance gauges
// refresh without an external Prometheus scraper.
//
// Burn-rate rules (cfg.Burn, unless cfg.DisableBurn) arm only on the
// merged registry — it is the one carrying the SLO, where latency means
// end-to-end scatter-gather latency. While armed, the instantaneous
// vaq.slo.* edge is delegated to the vaq.burn.* multi-window evaluation.
//
// Errors under DisableMetrics or when a collector is already armed.
func (x *Index) EnableHistory(name string, cfg history.Config) (*history.Collector, error) {
	if x.reg == nil {
		return nil, errors.New("vaq: history collector requires metrics (Options.DisableMetrics is set)")
	}
	if x.hist.Load() != nil {
		return nil, errors.New("vaq: history collector already armed")
	}
	if cfg.OnBurn == nil {
		cfg.OnBurn = x.burnEvent
	}
	c := history.New(name, cfg)
	c.Watch(name, x.reg)
	for i, st := range x.states {
		if m := st.ix.Metrics(); m != nil {
			c.Watch(fmt.Sprintf("%s/shard-%d", name, i), m)
		}
	}
	if !x.hist.CompareAndSwap(nil, c) {
		c.Close()
		return nil, errors.New("vaq: history collector already armed")
	}
	return c, nil
}

// DisableHistory stops the collector after a final sweep and hands SLO
// alerting back to the instantaneous exhaustion edge. No-op when none is
// armed.
func (x *Index) DisableHistory() {
	if c := x.hist.Swap(nil); c != nil {
		c.Close()
	}
}

// burnEvent is the default history.Config.OnBurn for sharded indexes: one
// vaq.burn slog event per burn-rule breach edge, on the collector
// goroutine.
func (x *Index) burnEvent(target string, st metrics.BurnRuleStatus) {
	if x.logger == nil {
		return
	}
	x.logger.Warn("vaq.burn",
		slog.String("target", target),
		slog.String("objective", st.Objective),
		slog.String("rule", st.Rule),
		slog.Float64("burn", st.Burn),
		slog.Float64("short_burn", st.ShortBurn),
		slog.Float64("threshold", st.Threshold),
		slog.String("window", st.Window.String()),
		slog.String("confirm", st.Confirm.String()))
}
