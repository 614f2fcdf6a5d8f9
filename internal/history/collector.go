package history

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vaq/internal/metrics"
)

// Config shapes a Collector. The zero value is usable: 1s cadence, ~8.5
// minutes of raw samples, an hour of 10s aggregates, a day of 1m
// aggregates, and the default two-window burn-rate ladder on any watched
// registry with a configured SLO.
type Config struct {
	// Interval is the sampling cadence (default 1s, clamped to >= 10ms).
	Interval time.Duration
	// RawCapacity is the per-series raw ring size (default 512 samples).
	RawCapacity int
	// MidCapacity is the mid-tier ring size (default 360 buckets).
	MidCapacity int
	// LongCapacity is the long-tier ring size (default 1440 buckets).
	LongCapacity int
	// MidBucket is the mid-tier bucket width (default 10s).
	MidBucket time.Duration
	// LongBucket is the long-tier bucket width (default 1m).
	LongBucket time.Duration
	// Burn is the burn-rate rule ladder; nil selects DefaultBurnRules.
	Burn []BurnRule
	// DisableBurn keeps the collector a pure sampler: no vaq.burn sources
	// are registered and the registry's instantaneous SLO edge is left in
	// charge. The bundle recorder's fallback collector runs in this mode.
	DisableBurn bool
	// OnBurn, if set, is invoked from the collector goroutine on each
	// false→true burn-rule edge (after the alert source latches).
	OnBurn func(target string, st metrics.BurnRuleStatus)
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.Interval < 10*time.Millisecond {
		c.Interval = 10 * time.Millisecond
	}
	if c.RawCapacity <= 0 {
		c.RawCapacity = 512
	}
	if c.MidCapacity <= 0 {
		c.MidCapacity = 360
	}
	if c.LongCapacity <= 0 {
		c.LongCapacity = 1440
	}
	if c.MidBucket <= 0 {
		c.MidBucket = 10 * time.Second
	}
	if c.LongBucket <= 0 {
		c.LongBucket = time.Minute
	}
	if c.Burn == nil {
		c.Burn = DefaultBurnRules()
	}
	return c
}

// target is one watched registry and its retained series. The series map
// grows only from the collector goroutine; readers go through lookup/each,
// which take the read lock.
type target struct {
	name string
	m    *metrics.IndexMetrics

	mu     sync.RWMutex
	series map[string]*Series
	order  []string

	prev     metrics.Snapshot
	prevAt   time.Time
	havePrev bool

	burn *burnTarget
}

func (t *target) lookup(name string) *Series {
	t.mu.RLock()
	s := t.series[name]
	t.mu.RUnlock()
	return s
}

// each visits the target's series in creation order.
func (t *target) each(fn func(*Series)) {
	t.mu.RLock()
	names := append([]string(nil), t.order...)
	t.mu.RUnlock()
	for _, n := range names {
		if s := t.lookup(n); s != nil {
			fn(s)
		}
	}
}

// Collector samples watched IndexMetrics registries on a fixed cadence
// into per-series ring buffers. One Collector owns one sampling goroutine;
// all series writes happen on it.
type Collector struct {
	name string
	cfg  Config

	mu      sync.RWMutex
	targets []*target
	byName  map[string]*target

	kick     chan struct{}
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	startedAt time.Time
	samples   atomic.Uint64
}

// New starts a collector. name labels it at /debug/vaq/history and in
// dumps; callers register it there with Publish.
func New(name string, cfg Config) *Collector {
	c := &Collector{
		name:      name,
		cfg:       cfg.withDefaults(),
		byName:    make(map[string]*target),
		kick:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		startedAt: time.Now(),
	}
	go c.run()
	return c
}

// Name reports the collector's published name.
func (c *Collector) Name() string { return c.name }

// Interval reports the effective sampling cadence.
func (c *Collector) Interval() time.Duration { return c.cfg.Interval }

// Samples reports how many sampling sweeps have run.
func (c *Collector) Samples() uint64 { return c.samples.Load() }

// Watch adds a registry under the given target name (the merged index uses
// its published name; shards append "/shard-N"). Watching the same name
// again is a no-op. The new target is sampled on the collector goroutine
// almost immediately (the run loop is kicked), not synchronously — but if
// burn rules will arm (the registry has an SLO and DisableBurn is off),
// the instantaneous SLO edge is delegated away right here, so violating
// traffic in the gap before the first sweep cannot trip the legacy latch.
func (c *Collector) Watch(name string, m *metrics.IndexMetrics) {
	if m == nil {
		return
	}
	c.mu.Lock()
	if _, ok := c.byName[name]; ok {
		c.mu.Unlock()
		return
	}
	t := &target{name: name, m: m, series: make(map[string]*Series)}
	c.byName[name] = t
	c.targets = append(c.targets, t)
	c.mu.Unlock()
	if !c.cfg.DisableBurn && m.SLOConfig() != nil {
		m.DelegateSLOEdges(true)
	}
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// Targets lists watched target names, merged-first then sorted shards.
func (c *Collector) Targets() []string {
	c.mu.RLock()
	out := make([]string, len(c.targets))
	for i, t := range c.targets {
		out[i] = t.name
	}
	c.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Series returns one retained series (nil if the target or series does not
// exist yet). Safe to call concurrently with sampling.
func (c *Collector) Series(targetName, series string) *Series {
	c.mu.RLock()
	t := c.byName[targetName]
	c.mu.RUnlock()
	if t == nil {
		return nil
	}
	return t.lookup(series)
}

// Close stops the sampling goroutine after one final sweep and hands the
// instantaneous SLO edge back to any registry the collector had delegated
// away from. The retained series stay readable.
func (c *Collector) Close() {
	c.stopOnce.Do(func() {
		close(c.stop)
		<-c.done
		c.mu.RLock()
		for _, t := range c.targets {
			// Restore any target whose edge Watch delegated eagerly, even if
			// the burn ladder never armed (e.g. closed before the first sweep).
			if t.burn != nil || (!c.cfg.DisableBurn && t.m.SLOConfig() != nil) {
				t.m.DelegateSLOEdges(false)
			}
		}
		c.mu.RUnlock()
	})
}

func (c *Collector) run() {
	defer close(c.done)
	ticker := time.NewTicker(c.cfg.Interval)
	defer ticker.Stop()
	c.sampleAll(time.Now())
	for {
		select {
		case <-c.stop:
			c.sampleAll(time.Now())
			return
		case <-c.kick:
			c.sampleAll(time.Now())
		case <-ticker.C:
			// Not the tick's own time: a tick can wait in the channel while
			// a kick is sampled, and would then file an older timestamp
			// after a newer one.
			c.sampleAll(time.Now())
		}
	}
}

func (c *Collector) sampleAll(now time.Time) {
	c.mu.RLock()
	targets := append([]*target(nil), c.targets...)
	c.mu.RUnlock()
	for _, t := range targets {
		c.sample(t, now)
	}
	c.samples.Add(1)
}

// ensure returns the named series, creating it on first use. Collector
// goroutine only (creation takes the write lock; steady-state sampling
// stays on the read path).
func (t *target) ensure(name string, kind Kind, cfg *Config) *Series {
	if s := t.lookup(name); s != nil {
		return s
	}
	s := newSeries(name, kind, cfg.RawCapacity, cfg.MidCapacity, cfg.LongCapacity, cfg.MidBucket, cfg.LongBucket)
	t.mu.Lock()
	t.series[name] = s
	t.order = append(t.order, name)
	t.mu.Unlock()
	return s
}

// sample takes one sweep over a target: snapshot the registry (which also
// recomputes the windowed skew/imbalance/SLO gauges on our cadence, so
// recorded history no longer depends on an external Prometheus scraper),
// append the counter and gauge series, derive rates against the previous
// sweep, then run burn-rate evaluation.
func (c *Collector) sample(t *target, now time.Time) {
	snap := t.m.Snapshot()
	ms := now.UnixMilli()
	rec := func(name string, kind Kind, v float64) {
		t.ensure(name, kind, &c.cfg).append(ms, v)
	}

	rec("queries", Counter, float64(snap.Queries))
	rec("errors", Counter, float64(snap.Errors))
	rec("codes_considered", Counter, float64(snap.CodesConsidered))
	rec("codes_skipped_ti", Counter, float64(snap.CodesSkippedTI))
	rec("codes_abandoned_ea", Counter, float64(snap.CodesAbandonedEA))
	rec("lookups", Counter, float64(snap.Lookups))
	rec("recall_hits", Counter, float64(snap.RecallHits))
	rec("recall_expected", Counter, float64(snap.RecallExpected))

	rec("latency_p50_s", Gauge, snap.Latency.Quantile(0.50).Seconds())
	rec("latency_p99_s", Gauge, snap.Latency.Quantile(0.99).Seconds())
	rec("drift_ratio", Gauge, snap.DriftRatio)
	rec("dead_codewords", Gauge, float64(snap.DeadCodewords))

	if snap.SLO != nil {
		rec("slo_latency_violations", Counter, float64(snap.SLO.LatencyViolationsTotal))
		rec("slo_latency_budget", Gauge, snap.SLO.LatencyBudgetRemaining)
		rec("slo_burn_rate", Gauge, snap.SLO.BurnRate)
		if snap.SLO.MinRecall > 0 {
			rec("slo_recall_budget", Gauge, snap.SLO.RecallBudgetRemaining)
		}
	}
	if snap.Sharded != nil {
		rec("shard_skew_ratio", Gauge, snap.Sharded.SkewRatio)
		rec("shard_load_imbalance", Gauge, snap.Sharded.LoadImbalance)
	}

	if t.havePrev {
		dt := now.Sub(t.prevAt).Seconds()
		if dt > 0 {
			rec("qps", Gauge, counterDelta(snap.Queries, t.prev.Queries)/dt)
			if dc := counterDelta(snap.CodesConsidered, t.prev.CodesConsidered); dc > 0 {
				rec("ti_prune_rate", Gauge, counterDelta(snap.CodesSkippedTI, t.prev.CodesSkippedTI)/dc)
				rec("ea_abandon_rate", Gauge, counterDelta(snap.CodesAbandonedEA, t.prev.CodesAbandonedEA)/dc)
			}
			if de := counterDelta(snap.RecallExpected, t.prev.RecallExpected); de > 0 {
				rec("recall", Gauge, counterDelta(snap.RecallHits, t.prev.RecallHits)/de)
			}
			// Drift slope in ratio points per minute: ROADMAP item 4's
			// retrain trigger wants the trend, not the level.
			rec("drift_slope", Gauge, (snap.DriftRatio-t.prev.DriftRatio)/dt*60)
		}
	}
	t.prev, t.prevAt, t.havePrev = snap, now, true

	if !c.cfg.DisableBurn {
		if t.burn == nil {
			if slo := t.m.SLOConfig(); slo != nil {
				c.armBurn(t, slo)
			}
		}
		if t.burn != nil {
			c.evaluateBurn(t, now)
		}
	}
}

// counterDelta is a reset-aware counter difference: a decrease means the
// registry was reset, and the new epoch counts from its current value.
func counterDelta(cur, prev uint64) float64 {
	if cur >= prev {
		return float64(cur - prev)
	}
	return float64(cur)
}
