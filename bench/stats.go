package main

import (
	"math"
	"sort"
	"time"
)

// sortedCopy returns xs sorted ascending without touching the caller's slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of sorted: the
// smallest sample with at least p of all samples at or below it. Raw
// samples, no histogram, so a tail never snaps to a bucket edge.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// median of xs (mean of the two middle samples for even counts).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the same rule as
// Python's statistics.quantiles(xs, n=4) (exclusive method), so the spread
// a run prints for its own windows is the spread the driver would compute
// over the same numbers. Fewer than two samples have no spread.
func quartiles(xs []float64) (q1, q3 float64) {
	m := len(xs)
	if m == 0 {
		return math.NaN(), math.NaN()
	}
	if m == 1 {
		return xs[0], xs[0]
	}
	s := sortedCopy(xs)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// summary is one metric of one run: the reported value plus the dispersion
// the run carries on its own (quartiles across windows or repeats) and the
// number of samples behind it.
type summary struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	// Windows holds the per-window (or per-repeat) values behind Value.
	Windows []float64 `json:"windows,omitempty"`
}

// windowMedian reports the median across per-window values with their
// quartiles; n is the number of raw samples behind all windows together.
func windowMedian(perWindow []float64, unit string, n int) summary {
	q1, q3 := quartiles(perWindow)
	return summary{Value: median(perWindow), Unit: unit, Q1: q1, Q3: q3, N: n, Windows: perWindow}
}

// quietest reports, across windows, the one the shared machine disturbed
// least: the lowest cost, or the highest rate. Interference from other
// tenants only ever slows a window down, so the best window is the
// steadiest estimate of what the program costs on its own; the quartiles
// across all windows still ride along as the run's dispersion.
func quietest(perWindow []float64, unit string, n int, higher bool) summary {
	s := windowMedian(perWindow, unit, n)
	sorted := sortedCopy(perWindow)
	s.Value = sorted[0]
	if higher {
		s.Value = sorted[len(sorted)-1]
	}
	return s
}

// scalar is a metric measured once in a run (no spread of its own).
func scalar(v float64, unit string) summary {
	return summary{Value: v, Unit: unit, Q1: v, Q3: v, N: 1}
}

// openLoop is the schedule of an open-loop load generator: request i is
// due at i*interval after the phase start whether or not earlier requests
// have finished.
type openLoop struct{ interval time.Duration }

func (o openLoop) due(i int) time.Duration { return time.Duration(i) * o.interval }

// lag is how late request i left the generator; a request sent early or on
// time has no lag.
func (o openLoop) lag(i int, sent time.Duration) time.Duration {
	if l := sent - o.due(i); l > 0 {
		return l
	}
	return 0
}

// latency of request i counted from its due time, so the wait a stall
// imposes on the requests queued behind it is charged to them.
func (o openLoop) latency(i int, done time.Duration) time.Duration { return done - o.due(i) }
