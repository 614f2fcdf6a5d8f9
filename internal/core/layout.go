package core

import (
	"math"
	"time"

	"vaq/internal/quantizer"
	"vaq/internal/trace"
)

// The query kernels scan a derived, scan-optimized copy of the encoded
// dataset, the blocked store. The canonical row-major codes (original id
// order) are always kept — they are what Add, serialization, decoding and
// ModeEA operate on — and the blocked store is rebuilt from them. Each TI
// cluster's members are physically contiguous in the cluster's
// ascending-centroid-distance order, and within a cluster codes are
// group-transposed in blocks of blockLanes — for one block, all
// subspace-0 indices are adjacent, then all subspace-1 indices, and so on
// — so LUT accumulation streams memory sequentially. Subspaces whose
// dictionaries hold at most 256 entries (the common case under the
// paper's bit budgets) are stored as uint8, halving scan bandwidth; wider
// subspaces keep uint16.

// blockLanes is the number of codes per transposed block. 16 lanes keep a
// whole narrow block (blockLanes x subspaces bytes) inside a few cache
// lines while leaving the per-subspace groups long enough to unroll.
// Must be a power of two (the kernels use mask arithmetic).
const blockLanes = 16

// blockedStore is the scan-optimized physical copy of the encoded dataset
// (see the file comment for the layout itself).
// Cluster c occupies physical positions [start[c], start[c+1]); position p
// holds the code of original id perm[p]. Narrow (<=256-entry dictionary)
// subspaces live in data8, wide ones in data16; ord[s] is subspace s's
// ordinal within its width class, so the group of subspace s inside a
// block of cnt lanes starting at physical position q begins at byte
// q*mN + ord[s]*cnt of data8 (respectively element q*mW + ord[s]*cnt of
// data16).
type blockedStore struct {
	m      int    // subspaces per code
	mN, mW int    // narrow / wide subspace counts (mN + mW == m)
	narrow []bool // per subspace: indices fit uint8
	ord    []int  // per subspace: ordinal within its width class
	perm   []int32
	start  []int32 // len = clusters+1; start[c] is cluster c's first position
	data8  []uint8
	data16 []uint16
}

// buildBlockedStore derives the blocked layout from the canonical codes
// and the TI cluster structure. It is deterministic given its inputs, so
// it is rebuilt (not serialized) on load and after Add.
func buildBlockedStore(cb *quantizer.Codebooks, codes *quantizer.Codes, ti *tiIndex) *blockedStore {
	m := codes.M
	bs := &blockedStore{m: m, narrow: make([]bool, m), ord: make([]int, m)}
	for s := 0; s < m; s++ {
		if cb.Books[s].Rows <= 256 {
			bs.narrow[s] = true
			bs.ord[s] = bs.mN
			bs.mN++
		} else {
			bs.ord[s] = bs.mW
			bs.mW++
		}
	}
	n := codes.N
	bs.perm = make([]int32, n)
	bs.start = make([]int32, len(ti.clusters)+1)
	bs.data8 = make([]uint8, n*bs.mN)
	bs.data16 = make([]uint16, n*bs.mW)
	pos := 0
	for c, members := range ti.clusters {
		bs.start[c] = int32(pos)
		for b := 0; b < len(members); b += blockLanes {
			cnt := len(members) - b
			if cnt > blockLanes {
				cnt = blockLanes
			}
			q := pos + b
			off8, off16 := q*bs.mN, q*bs.mW
			for lane := 0; lane < cnt; lane++ {
				id := members[b+lane].id
				bs.perm[q+lane] = int32(id)
				row := codes.Row(id)
				for s := 0; s < m; s++ {
					if bs.narrow[s] {
						bs.data8[off8+bs.ord[s]*cnt+lane] = uint8(row[s])
					} else {
						bs.data16[off16+bs.ord[s]*cnt+lane] = row[s]
					}
				}
			}
		}
		pos += len(members)
	}
	bs.start[len(ti.clusters)] = int32(pos)
	return bs
}

// accumChunk computes the partial distances over subspaces [0, chunk)
// for every lane of one transposed block: acc[j] receives lane j's sum,
// each lane's terms added in subspace order (the association every kernel
// shares). Streaming the block subspace-major replaces one serial
// dependency chain per lane with blockLanes independent accumulators, so
// the loads and adds — of the first EA chunk in a TI+EA scan, where most
// survivors abandon, and of every subspace in the exhaustive scan — can
// issue in parallel.
func (bs *blockedStore) accumChunk(dist []float32, offsets []int, q, cnt, chunk int, acc *[blockLanes]float32) {
	for j := 0; j < cnt; j++ {
		acc[j] = 0
	}
	off8, off16 := q*bs.mN, q*bs.mW
	for sI := 0; sI < chunk; sI++ {
		table := dist[offsets[sI]:offsets[sI+1]]
		if bs.narrow[sI] {
			o := off8 + bs.ord[sI]*cnt
			gatherAdd(table, bs.data8[o:o+cnt], acc)
		} else {
			o := off16 + bs.ord[sI]*cnt
			gatherAdd(table, bs.data16[o:o+cnt], acc)
		}
	}
}

// gatherAdd adds table[g[j]] into acc[j] for every lane of one subspace
// group, four independent gathers per step.
func gatherAdd[T uint8 | uint16](table []float32, g []T, acc *[blockLanes]float32) {
	j := 0
	for ; j+4 <= len(g); j += 4 {
		a0 := table[g[j]]
		a1 := table[g[j+1]]
		a2 := table[g[j+2]]
		a3 := table[g[j+3]]
		acc[j] += a0
		acc[j+1] += a1
		acc[j+2] += a2
		acc[j+3] += a3
	}
	for ; j < len(g); j++ {
		acc[j] += table[g[j]]
	}
}

// eaResumeLane continues one lane (one code) of a transposed block from
// subspace sI with partial distance d already accumulated (by accumChunk),
// keeping the early-abandon cadence of eaAccumulate: q is the block's
// first physical position, cnt its lane count, lane the code's index
// within it. Accumulation order and float association match eaAccumulate
// over the canonical row exactly, so distances and prune stats are
// bit-identical to the row-major oracle; the returned lookup count is the
// absolute subspace index reached, covering the precomputed prefix.
func (bs *blockedStore) eaResumeLane(dist []float32, offsets []int, d float32, sI, q, cnt, lane, useSub, check int, bsf float32, notFull bool) (float32, int, bool) {
	base8 := q*bs.mN + lane
	base16 := q*bs.mW + lane
	if !notFull {
		for sI+check <= useSub {
			end := sI + check
			for ; sI < end; sI++ {
				var code int
				if bs.narrow[sI] {
					code = int(bs.data8[base8+bs.ord[sI]*cnt])
				} else {
					code = int(bs.data16[base16+bs.ord[sI]*cnt])
				}
				d += dist[offsets[sI]+code]
			}
			if d > bsf {
				return d, sI, true
			}
		}
	}
	for ; sI < useSub; sI++ {
		var code int
		if bs.narrow[sI] {
			code = int(bs.data8[base8+bs.ord[sI]*cnt])
		} else {
			code = int(bs.data16[base16+bs.ord[sI]*cnt])
		}
		d += dist[offsets[sI]+code]
	}
	return d, useSub, false
}

// scanHeapBlocked is the no-pruning baseline (Figure 7 "Heap"): blocks
// stream sequentially and accumChunk accumulates every subspace of every
// lane. Per-lane addition order is the subspace order, so distances match
// the row-major oracle bit for bit.
func (s *Searcher) scanHeapBlocked(useSub int) {
	bs := s.st.blocked
	dist, offsets := s.lut.Dist, s.lut.Offsets
	var acc [blockLanes]float32
	for c := 0; c+1 < len(bs.start); c++ {
		cEnd := int(bs.start[c+1])
		for q := int(bs.start[c]); q < cEnd; q += blockLanes {
			cnt := cEnd - q
			if cnt > blockLanes {
				cnt = blockLanes
			}
			bs.accumChunk(dist, offsets, q, cnt, useSub, &acc)
			for j := 0; j < cnt; j++ {
				s.topk.Push(int(bs.perm[q+j]), acc[j])
			}
		}
	}
	s.stats.CodesConsidered = s.st.codes.N
	s.stats.Lookups = s.st.codes.N * useSub
}

// scanTIEABlocked is the full cascade (Algorithm 4): order TI clusters by
// query distance, visit only the nearest fraction, skip members via the
// triangle inequality, and early-abandon lookups for survivors. The visited
// cluster's codes are physically contiguous (in exactly the member order
// the triangle-inequality walk uses), so survivors accumulate out of a
// cache-resident block instead of gathering random rows. When the first
// survivor of a block is reached, accumChunk computes the first-EA-chunk
// partials for the whole block in one subspace-major stream; each
// survivor then tests its precomputed partial against the threshold
// current at ITS scan time — decisions stay per-lane, so results and
// SearchStats match the row-major oracle bit for bit. Partials computed
// for lanes the TI bound later skips are a physical-layout artifact and
// are not counted in Lookups, which (like every other stat) counts the
// algorithmic work of the canonical scan.
func (s *Searcher) scanTIEABlocked(qz []float32, visitFrac float64, useSub int) {
	ix := s.ix
	ti := s.st.ti
	bs := s.st.blocked
	dist, offsets := s.lut.Dist, s.lut.Offsets
	check := ix.cfg.EACheckEvery
	rec := s.rec
	rankStart := rec.Clock()
	visit := s.orderClusters(qz, visitFrac)
	if rec.Active() {
		rec.Add(trace.Span{Name: trace.SpanClusterRank, Start: rankStart, Dur: rec.Clock() - rankStart, Count: visit})
	}
	s.stats.ClustersVisited = visit
	// Aggregate EA-resume span: most survivors abandon straight off the
	// precomputed first chunk, so the (rare) resume stretches are summed
	// into one span instead of flooding the ring with microspans.
	var resumeStart, resumeDur time.Duration
	resumeCnt := 0
	// chunk == check exactly when the canonical cadence has at least one
	// abandon boundary; with fewer usable subspaces than the cadence the
	// precompute covers the whole (boundary-free) accumulation.
	chunk := check
	if chunk > useSub {
		chunk = useSub
	}
	var acc [blockLanes]float32
	accQ := -1 // block (by first physical position) acc currently holds
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
		cStart := int(bs.start[c])
		s.stats.CodesConsidered += len(members)
		for mi, e := range members {
			if s.topk.Pruning() {
				bsfSq := s.topk.Threshold()
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
			blockStart := mi &^ (blockLanes - 1)
			cnt := len(members) - blockStart
			if cnt > blockLanes {
				cnt = blockLanes
			}
			q := cStart + blockStart
			if q != accQ {
				bs.accumChunk(dist, offsets, q, cnt, chunk, &acc)
				accQ = q
			}
			bsf := s.topk.Threshold()
			notFull := !s.topk.Pruning()
			d := acc[mi-blockStart]
			if !notFull && chunk == check && d > bsf {
				// First-boundary abandon straight off the precomputed
				// partial — the canonical kernel's commonest exit.
				s.stats.Lookups += chunk
				s.stats.CodesAbandonedEA++
				if s.stats.AbandonDepths != nil {
					s.stats.AbandonDepths[chunk]++
				}
				continue
			}
			var t0 time.Duration
			if rec.Active() {
				t0 = rec.Clock()
			}
			d, lookups, abandoned := bs.eaResumeLane(dist, offsets, d, chunk,
				q, cnt, mi-blockStart, useSub, check, bsf, notFull)
			if rec.Active() {
				if resumeCnt == 0 {
					resumeStart = t0
				}
				resumeDur += rec.Clock() - t0
				resumeCnt++
			}
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
	if resumeCnt > 0 {
		rec.Add(trace.Span{Name: trace.SpanEAResume, Start: resumeStart, Dur: resumeDur, Count: resumeCnt})
	}
}
