package core

import (
	"math"
	"time"

	"vaq/internal/metrics"
	"vaq/internal/trace"
	"vaq/internal/vec"
)

// The row-major reference kernels. Production queries scan the blocked
// store (layout.go); these scan the canonical row-major codes directly,
// one row gather per surviving code, in the textbook form of the paper's
// Algorithm 4. They are the oracle the blocked kernels must match bit for
// bit — same ids, same distance bits, same SearchStats.

// oracleSearch answers one projected query with the reference kernels:
// the same lookup tables, top-k collector, attribution scratch and trace
// recorder as Searcher.run, but scanning the canonical codes.
func (s *Searcher) oracleSearch(qz []float32, k int, opt SearchOptions) []vec.Neighbor {
	ix := s.ix
	s.st = ix.state.Load()
	defer func() { s.st = nil }()
	m := ix.cb.Sub.M()
	useSub, mode := m, opt.Mode
	if opt.Subspaces > 0 && opt.Subspaces < m {
		useSub = opt.Subspaces
		if mode == ModeTIEA {
			mode = ModeEA
		}
	}
	s.lut = ix.cb.BuildLUT(qz)
	s.topk = vec.NewTopK(k)
	if opt.InitialThreshold > 0 {
		s.topk.SetBound(opt.InitialThreshold)
	}
	s.stats = SearchStats{}
	if ix.metrics != nil {
		s.stats.AbandonDepths = make([]uint32, m+1)
		s.stats.TISkipsByRank = make([]uint32, metrics.ClusterRankBuckets)
	}
	s.rec.Begin(0)
	switch mode {
	case ModeHeap:
		s.scanHeap(useSub)
	case ModeEA:
		s.scanEA(useSub)
	default:
		s.scanTIEA(qz, opt.VisitFrac, useSub)
	}
	s.rec.End(mode.String(), k, s.stats.recordCopy())
	return s.topk.Results()
}

// scanHeap is the no-pruning baseline: accumulate every subspace of every
// code (Figure 7 "Heap").
func (s *Searcher) scanHeap(useSub int) {
	codes := s.st.codes
	lut := s.lut
	m := codes.M
	for i := 0; i < codes.N; i++ {
		row := codes.Data[i*m : i*m+useSub]
		var d float32
		for sI, c := range row {
			d += lut.Dist[lut.Offsets[sI]+int(c)]
		}
		s.topk.Push(i, d)
	}
	s.stats.CodesConsidered = codes.N
	s.stats.Lookups = codes.N * useSub
}

// scanTIEA is the full cascade (Algorithm 4): order TI clusters by query
// distance, visit only the nearest fraction, skip members via the triangle
// inequality, and early-abandon lookups for survivors.
func (s *Searcher) scanTIEA(qz []float32, visitFrac float64, useSub int) {
	ix := s.ix
	ti := s.st.ti
	codes := s.st.codes
	dist, offsets := s.lut.Dist, s.lut.Offsets
	m := codes.M
	check := ix.cfg.EACheckEvery
	rec := s.rec
	rankStart := rec.Clock()
	visit := s.orderClusters(qz, visitFrac)
	if rec.Active() {
		rec.Add(trace.Span{Name: trace.SpanClusterRank, Start: rankStart, Dur: rec.Clock() - rankStart, Count: visit})
	}
	s.stats.ClustersVisited = visit
	for v := 0; v < visit; v++ {
		c := s.clustIdx[v]
		rk := clampRank(v, len(s.stats.TISkipsByRank))
		var spanStart time.Duration
		var before SearchStats
		if rec.Active() {
			spanStart = rec.Clock()
			before = s.stats
		}
		// The ranking sorted squared distances; the triangle bound needs
		// the plain distance, taken only for the visited fraction.
		dq := float32(math.Sqrt(float64(s.clustD[c])))
		members := ti.clusters[c]
		s.stats.CodesConsidered += len(members)
		for mi, e := range members {
			if s.topk.Pruning() {
				bsfSq := s.topk.Threshold()
				// Triangle inequality in the prefix space: the
				// query-to-member distance is at least |dq - ds|, and the
				// full ADC distance is at least the squared prefix bound.
				diff := dq - e.dist
				if diff < 0 {
					diff = -diff
				}
				if diff*diff >= bsfSq {
					if e.dist >= dq {
						// Members are sorted ascending by ds: every later
						// member has an even larger bound. Stop the cluster.
						s.stats.CodesSkippedTI += len(members) - mi
						if s.stats.TISkipsByRank != nil {
							s.stats.TISkipsByRank[rk] += uint32(len(members) - mi)
						}
						break
					}
					s.stats.CodesSkippedTI++
					if s.stats.TISkipsByRank != nil {
						s.stats.TISkipsByRank[rk]++
					}
					continue
				}
			}
			// Early-abandon accumulation for the survivor.
			row := codes.Data[e.id*m : e.id*m+useSub]
			bsf := s.topk.Threshold()
			notFull := !s.topk.Pruning()
			d, lookups, abandoned := eaAccumulate(dist, offsets, row, useSub, check, bsf, notFull)
			s.stats.Lookups += lookups
			if abandoned {
				s.stats.CodesAbandonedEA++
				if s.stats.AbandonDepths != nil {
					s.stats.AbandonDepths[lookups]++
				}
			} else {
				s.topk.Push(e.id, d)
			}
		}
		if rec.Active() {
			rec.Add(clusterScanSpan(spanStart, rec.Clock(), c, v, len(members), &before, &s.stats))
		}
	}
}
