package core

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"vaq/internal/kmeans"
	"vaq/internal/quantizer"
	"vaq/internal/trace"
	"vaq/internal/vec"
)

// AccuracyMode selects the arithmetic the blocked scan kernels run in.
type AccuracyMode int

const (
	// AccuracyExact (default) keeps the bit-identical float32 kernels:
	// they return exactly the ids, distances and prune statistics of a
	// plain row-major scan of the canonical codes.
	AccuracyExact AccuracyMode = iota
	// AccuracyFast scans a derived integer code store: dictionaries wider
	// than 256 entries are coarsened once at build time to 256-entry scan
	// dictionaries (k-means over the codewords, with a code remap), so
	// every subspace code fits one byte — and dictionaries that fit 16
	// entries pack their 4-bit codes two per byte, the Quick ADC / Bolt
	// recipe on top of the blocked layout. Per query the (much smaller)
	// scan tables quantize to uint8 with per-subspace power-of-two scales,
	// distance accumulation runs on widening uint32 accumulators per
	// 16-wide group, and early-abandon thresholds are quantized into the
	// integer domain. Candidates that enter the top-k under the integer
	// metric are re-ranked with exact float arithmetic from the canonical
	// codes, so reported distances match the exact kernels and only the
	// pruning decisions are approximate — a small, *measured* recall cost
	// (the online recall estimator and vaqreplay overlap gates quantify
	// it). Applies to ModeTIEA and ModeHeap with full subspace
	// accumulation — ModeEA (an original-id-order contract) and truncated
	// Subspaces queries fall back to the exact kernels.
	AccuracyFast
)

func (a AccuracyMode) String() string {
	switch a {
	case AccuracyExact:
		return "exact"
	case AccuracyFast:
		return "fast"
	}
	return "unknown"
}

// packEntries is the largest dictionary a subspace may have for its codes
// to pack two per byte (4 bits each) in the fast store.
const packEntries = 16

// coarseEntries is the scan-dictionary size wide subspaces coarsen to:
// one byte per code, and a per-query table small enough to stay cache
// resident. 13-bit dictionaries would otherwise force uint16 code reads
// AND a per-query quantization pass over tens of thousands of entries —
// at SALD bench scale the five 13-bit subspaces alone hold 73% of the
// full LUT.
const coarseEntries = 256

// coarseIters bounds the Lloyd iterations of the one-time coarsening
// k-means. The codewords being clustered are themselves k-means output,
// so convergence is fast.
const coarseIters = 12

// Per-subspace storage class inside the fast store.
const (
	classPack4 = uint8(iota) // dictionary <= 16 entries: two 4-bit codes per byte
	classU8                  // everything else: one byte per code (wide dicts are coarsened)
)

// fastStore is the integer-kernel companion of blockedStore: the same
// cluster-contiguous, group-transposed geometry (identical perm/start, the
// physical order IS the TI member order), but with uniform 16-lane blocks
// (tail blocks are zero-padded so every block has the same byte layout),
// one byte per code everywhere — subspaces wider than 256 entries scan a
// coarsened 256-entry dictionary via a build-time code remap — and a
// packed class that stores 4-bit codes two per byte, so one byte load
// feeds two lanes. Like blockedStore it is a deterministic function of
// (codebooks, codes, TI clusters, seed): derived on Build/Read/Add, never
// serialized.
//
// Block b (global index; blockBase maps clusters to their first block)
// occupies:
//
//	dataP [b*strideP, (b+1)*strideP): nP groups of blockLanes/2 bytes —
//	       byte j of a group holds lane 2j in its low nibble, lane 2j+1
//	       in its high nibble
//	data8 [b*stride8, (b+1)*stride8): n8 groups of blockLanes bytes
//
// and the group of subspace s sits at ordinal ord[s] within its class.
type fastStore struct {
	cb        *quantizer.Codebooks
	m         int
	nP, n8    int           // subspace counts per class
	u8Prefix  int           // leading subspaces that are classU8 (the fused-chunk fast path)
	class     []uint8       // per subspace: classPack4 / classU8
	ord       []int         // per subspace: ordinal within its class
	offsets   []int         // len m+1: scan-table offsets (per-subspace entries <= 256)
	books     []*vec.Matrix // per subspace: the scan dictionary (coarse centroids, or cb.Books[s])
	remap     [][]uint8     // per subspace: canonical code -> scan code (nil = identity)
	perm      []int32
	start     []int32 // len clusters+1: cluster c's first physical position
	blockBase []int32 // len clusters+1: cluster c's first global block index
	strideP   int     // bytes per block in dataP (nP * blockLanes/2)
	stride8   int     // bytes per block in data8 (n8 * blockLanes)
	dataP     []uint8
	data8     []uint8
	// The exact codebooks flattened into one array for the re-rank pass:
	// subspace s's codeword c occupies rerFlat[rerBase[s]+c*len : ...+len].
	// One contiguous array instead of a Matrix pointer chase per subspace
	// per candidate; rerDim4 marks the (dominant) layout where every
	// subspace is 4-dimensional and query-contiguous, which the re-rank
	// inner loop specializes on.
	rerFlat []float32
	rerBase []int32
	rerDim4 bool
}

// coarsenBook trains the 256-entry scan dictionary for one wide subspace
// and the canonical-code remap onto it. The codewords are clustered
// unweighted — they already sit where the data is dense — and the remap
// is the training run's own final assignment: every codeword goes to its
// nearest coarse centroid, so the scan distance of a code is the distance
// to the centroid standing in for its codeword.
func coarsenBook(book *vec.Matrix, seed int64) (*vec.Matrix, []uint8) {
	res, err := kmeans.Train(book, kmeans.Config{
		K: coarseEntries, MaxIter: coarseIters, Seed: seed, Parallel: true,
	})
	if err != nil {
		// Train refuses only K < 1 or an empty input; callers pass books
		// of more than coarseEntries rows.
		panic(fmt.Sprintf("core: coarsening a %d-entry dictionary: %v", book.Rows, err))
	}
	remap := make([]uint8, book.Rows)
	for i, c := range res.Assign {
		remap[i] = uint8(c)
	}
	return res.Centroids, remap
}

// buildFastStore derives the integer scan store from the canonical codes
// and the TI cluster structure. Deterministic given its inputs. prev, when
// non-nil and built over the same codebooks, donates its coarse
// dictionaries and remaps — Add rebuilds the block data but never retrains
// the coarsening (the codebooks are immutable after Build).
func buildFastStore(cb *quantizer.Codebooks, codes *quantizer.Codes, ti *tiIndex, seed int64, prev *fastStore) *fastStore {
	m := codes.M
	fs := &fastStore{
		cb:      cb,
		m:       m,
		class:   make([]uint8, m),
		ord:     make([]int, m),
		offsets: make([]int, m+1),
		books:   make([]*vec.Matrix, m),
		remap:   make([][]uint8, m),
	}
	reuse := prev != nil && prev.cb == cb && prev.m == m
	total := 0
	for s := 0; s < m; s++ {
		book := cb.Books[s]
		if book.Rows > coarseEntries {
			if reuse && prev.remap[s] != nil {
				fs.books[s], fs.remap[s] = prev.books[s], prev.remap[s]
			} else {
				// Decorrelate per-subspace k-means streams with a fixed odd
				// stride so every subspace trains deterministically.
				fs.books[s], fs.remap[s] = coarsenBook(book, seed+int64(s)*7919+1)
			}
		} else {
			fs.books[s] = book
		}
		entries := fs.books[s].Rows
		fs.offsets[s] = total
		total += entries
		if entries <= packEntries {
			fs.class[s] = classPack4
			fs.ord[s] = fs.nP
			fs.nP++
		} else {
			fs.class[s] = classU8
			fs.ord[s] = fs.n8
			fs.n8++
		}
	}
	fs.offsets[m] = total
	for s := 0; s < m && fs.class[s] == classU8; s++ {
		fs.u8Prefix++
	}
	if reuse {
		fs.rerFlat, fs.rerBase, fs.rerDim4 = prev.rerFlat, prev.rerBase, prev.rerDim4
	} else {
		flat := 0
		fs.rerBase = make([]int32, m)
		fs.rerDim4 = true
		for s := 0; s < m; s++ {
			fs.rerBase[s] = int32(flat)
			flat += len(cb.Books[s].Data)
			if cb.Sub.Lengths[s] != 4 || cb.Sub.Offsets[s] != 4*s {
				fs.rerDim4 = false
			}
		}
		fs.rerFlat = make([]float32, flat)
		for s := 0; s < m; s++ {
			copy(fs.rerFlat[fs.rerBase[s]:], cb.Books[s].Data)
		}
	}
	fs.strideP = fs.nP * (blockLanes / 2)
	fs.stride8 = fs.n8 * blockLanes
	n := codes.N
	clusters := ti.clusters
	fs.perm = make([]int32, n)
	fs.start = make([]int32, len(clusters)+1)
	fs.blockBase = make([]int32, len(clusters)+1)
	blocks := 0
	pos := 0
	for c, members := range clusters {
		fs.start[c] = int32(pos)
		fs.blockBase[c] = int32(blocks)
		blocks += (len(members) + blockLanes - 1) / blockLanes
		pos += len(members)
	}
	fs.start[len(clusters)] = int32(pos)
	fs.blockBase[len(clusters)] = int32(blocks)
	fs.dataP = make([]uint8, blocks*fs.strideP)
	fs.data8 = make([]uint8, blocks*fs.stride8)
	for c, members := range clusters {
		cStart := int(fs.start[c])
		base := int(fs.blockBase[c])
		for b := 0; b < len(members); b += blockLanes {
			cnt := len(members) - b
			if cnt > blockLanes {
				cnt = blockLanes
			}
			blk := base + b/blockLanes
			offP, off8 := blk*fs.strideP, blk*fs.stride8
			for lane := 0; lane < cnt; lane++ {
				id := members[b+lane].id
				fs.perm[cStart+b+lane] = int32(id)
				row := codes.Row(id)
				for s := 0; s < m; s++ {
					code := uint8(row[s])
					if rm := fs.remap[s]; rm != nil {
						code = rm[row[s]]
					}
					if fs.class[s] == classPack4 {
						p := offP + fs.ord[s]*(blockLanes/2) + lane>>1
						fs.dataP[p] |= code << ((lane & 1) * 4)
					} else {
						fs.data8[off8+fs.ord[s]*blockLanes+lane] = code
					}
				}
			}
		}
	}
	return fs
}

// packedSubspaces reports how many subspaces store 4-bit packed codes.
func (fs *fastStore) packedSubspaces() int { return fs.nP }

// coarsenedSubspaces reports how many subspaces scan a coarsened
// dictionary instead of their full codebook.
func (fs *fastStore) coarsenedSubspaces() int {
	n := 0
	for _, rm := range fs.remap {
		if rm != nil {
			n++
		}
	}
	return n
}

// fillFloatLUT computes the per-query float distance tables over the scan
// dictionaries (coarse centroids where coarsened). At bench scale this is
// ~an order of magnitude smaller than the full LUT, so the fast path
// skips the full fill entirely.
func (fs *fastStore) fillFloatLUT(qz []float32, buf []float32) []float32 {
	total := fs.offsets[fs.m]
	if cap(buf) < total {
		buf = make([]float32, total)
	}
	buf = buf[:total]
	for s := 0; s < fs.m; s++ {
		quantizer.FillTable(fs.cb.Sub.Of(qz, s), fs.books[s], buf[fs.offsets[s]:fs.offsets[s+1]])
	}
	return buf
}

// rMaxShift caps the per-subspace power-of-two scale spread. With it, any
// integer partial distance is bounded by m * 255 * 2^rMaxShift, so uint32
// accumulators cannot overflow for any real subspace count, and thresholds
// past maxIntAccum can simply disable abandoning. The cap sacrifices only
// subspaces whose range sits more than rMaxShift octaves below the widest
// one; tightening it further (to fit tables in uint16, say) measurably
// hurts — on variance-ordered VAQ subspaces the crushed mid-tail tables
// stop contributing to partial sums, and deep early-abandons dry up.
const rMaxShift = 12

// lutStride is the table stride of the integer LUT: every subspace's scan
// dictionary holds at most 256 entries (coarsening guarantees it), so the
// tables live at uniform 256-entry offsets. Uniform stride turns the
// per-lookup offset into a shift, and a uint8 code indexing a 256-entry
// slice needs no bounds check — the two together are what make the scalar
// integer kernel competitive.
const lutStride = coarseEntries

// intLUT is the integer quantization of one query's scan tables, with
// per-subspace power-of-two scales (block floating point): subspace s
// quantizes q = round((v - min_s) * 255 / 2^E'_s) and stores the
// PRE-SHIFTED accumulation term q << r_s as uint32, where r_s =
// E'_s - Eref >= 0 and 2^E'_s bounds the subspace's table range. Every
// table keeps ~8 significant bits regardless of how skewed the
// per-subspace ranges are — the failure mode of a single shared scale on
// variance-ordered VAQ subspaces, where the leading tables would saturate
// exactly where early abandoning does its work.
//
// An integer accumulation over subspaces estimates (d - delta) * scale
// with delta = Σ_s min_s and scale = 255 / 2^Eref, so float distances are
// recovered as d ≈ delta + acc * inv (inv = 1/scale) and a float
// threshold t maps into the accumulator domain as (t - delta) * scale.
// scale == 0 flags a degenerate query (all tables constant or non-finite):
// every code quantizes to distance delta and integer abandoning is
// disabled.
type intLUT struct {
	dist  []uint32 // m * lutStride pre-shifted terms; subspace s at [s*lutStride, ...)
	shift []uint8  // per-subspace accumulation shift r_s
	mins  []float32
	exps  []int // quantize scratch: per-subspace range exponent E_s
	delta float32
	scale float32
	inv   float32
	slack uint32 // rounding headroom for thresholds: Σ_s 2^r_s / 2, plus 1
}

// maxIntAccum bounds any abandonable integer partial distance: m * 255 *
// 2^rMaxShift stays below it for every real subspace count (m <= 64), so
// float thresholds at or above it can never abandon anything and are
// clamped there before the float->uint32 conversion (whose out-of-range
// behavior Go leaves implementation-specific).
const maxIntAccum = 1 << 26

// intNoAbandon is the "abandon nothing" threshold sentinel. It must exceed
// every reachable accumulation (bounded by maxIntAccum plus slack) but stay
// BELOW 1<<31: the scan shell's first-boundary triage reads the sign bit of
// the wrapped difference tInt-acc as the abandon flag, which is only valid
// while both operands fit in 31 bits. MaxUint32 would flip that bit for
// every lane and silently abandon the whole scan.
const intNoAbandon = uint32(1)<<31 - 1

// quantize fills il from the float scan tables over all m subspaces. Every
// table must hold at most lutStride entries (the fast store guarantees
// it).
func (il *intLUT) quantize(dist []float32, offsets []int, m int) {
	if cap(il.dist) < m*lutStride {
		il.dist = make([]uint32, m*lutStride)
	}
	il.dist = il.dist[:m*lutStride]
	if cap(il.mins) < m {
		il.mins = make([]float32, m)
		il.shift = make([]uint8, m)
		il.exps = make([]int, m)
	}
	il.mins = il.mins[:m]
	il.shift = il.shift[:m]
	exps := il.exps[:m]
	// Pass 1: per-subspace range, and the exponent E_s with span <= 2^E_s.
	const degenerate = math.MinInt32
	var delta float32
	eMin, eMax := math.MaxInt32, degenerate
	for s := 0; s < m; s++ {
		table := dist[offsets[s]:offsets[s+1]]
		lo, hi := table[0], table[0]
		for _, v := range table[1:] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		il.mins[s] = lo
		delta += lo
		span := float64(hi - lo)
		if span > 0 && !math.IsInf(span, 1) {
			_, e := math.Frexp(span) // span = f * 2^e, f in [0.5, 1)
			exps[s] = e
			if e < eMin {
				eMin = e
			}
			if e > eMax {
				eMax = e
			}
		} else {
			exps[s] = degenerate
		}
	}
	il.delta = delta
	if eMax == degenerate || math.IsNaN(float64(delta)) || math.IsInf(float64(delta), 0) {
		// Degenerate query: everything quantizes to 0, distances collapse
		// to delta, and thresholdInt disables integer abandoning.
		il.scale = 0
		il.inv = 0
		il.slack = 0
		clear(il.dist)
		clear(il.shift)
		return
	}
	// Reference exponent: give every subspace full resolution when the
	// exponent spread allows (Eref = eMin), otherwise sacrifice the
	// smallest-range tables (coarser absolute quanta, never saturation of
	// the big ones — those are scanned first and carry the variance).
	eRef := eMin
	if eMax-rMaxShift > eRef {
		eRef = eMax - rMaxShift
	}
	il.scale = float32(math.Ldexp(255, -eRef))
	il.inv = float32(math.Ldexp(1, eRef) / 255)
	var slackSum uint32
	for s := 0; s < m; s++ {
		lo := il.mins[s]
		src := dist[offsets[s]:offsets[s+1]]
		out := il.dist[s*lutStride : s*lutStride+len(src)]
		if exps[s] == degenerate {
			il.shift[s] = 0
			clear(out)
			continue
		}
		e := exps[s]
		if e < eRef {
			e = eRef
		}
		r := uint8(e - eRef)
		il.shift[s] = r
		slackSum += 1 << r
		qscale := float32(math.Ldexp(255, -e))
		for i, v := range src {
			q := float32((v - lo) * qscale)
			switch {
			case q != q: // NaN table entry: treat as "far"
				out[i] = 255 << r
			case q <= 0:
				out[i] = 0
			case q >= 255:
				out[i] = 255 << r // by construction only reachable via rounding
			default:
				out[i] = uint32(q+0.5) << r
			}
		}
	}
	// Each lookup rounds by at most 1/2 of its 2^r_s quantum; a full
	// accumulation is off by at most half the shift sum (+1 for the
	// threshold's own rounding).
	il.slack = slackSum/2 + 1
}

// thresholdInt maps a float best-so-far distance into the integer
// accumulator domain, plus the per-query rounding headroom so quantization
// error alone cannot abandon a code the float kernel would have kept.
func (il *intLUT) thresholdInt(bsf float32) uint32 {
	if il.scale == 0 {
		return intNoAbandon
	}
	t := (bsf - il.delta) * il.scale
	if !(t > 0) { // non-positive or NaN: only the slack remains
		return il.slack
	}
	if t >= maxIntAccum {
		return intNoAbandon
	}
	return uint32(t) + il.slack
}

// dequantize recovers an approximate float distance from an integer
// accumulation over all subspaces.
func (il *intLUT) dequantize(acc uint32) float32 {
	return il.delta + float32(float32(acc)*il.inv)
}

// accumChunkFast computes integer partial distances over subspaces
// [0, chunk) for every lane of one block, streaming the block's groups
// subspace-major exactly like accumChunk — but over the pre-shifted
// uint32 tables, so each lookup is one byte load, one table load and one
// add. The common case — chunk 4 over a uint8-class prefix, i.e. the
// first EA boundary of the default cadence — fuses the four groups (64
// contiguous bytes) into one pass per lane with no intermediate
// accumulator traffic. The returned mask has bit j set when lane j's
// partial exceeds tInt — the first-boundary triage folded into the same
// pass while the partial is still in a register (both operands stay below
// 1<<31, so the sign bit of the wrapped difference is the abandon flag;
// tInt intNoAbandon yields an empty mask). Padding lanes of a tail block
// accumulate garbage-free zeros (the pad nibbles/bytes are 0) and are
// never pushed by the callers — their mask bits are masked off by the
// caller's lane count.
func (fs *fastStore) accumChunkFast(dist []uint32, blk, chunk int, acc *[blockLanes]uint32, tInt uint32) uint32 {
	off8 := blk * fs.stride8
	var abm uint32
	if chunk == 4 && fs.u8Prefix >= 4 {
		g := fs.data8[off8 : off8+4*blockLanes : off8+4*blockLanes]
		t0 := dist[0*lutStride : 1*lutStride : 1*lutStride]
		t1 := dist[1*lutStride : 2*lutStride : 2*lutStride]
		t2 := dist[2*lutStride : 3*lutStride : 3*lutStride]
		t3 := dist[3*lutStride : 4*lutStride : 4*lutStride]
		for j := 0; j < blockLanes; j++ {
			a := t0[g[j]] + t1[g[blockLanes+j]] + t2[g[2*blockLanes+j]] + t3[g[3*blockLanes+j]]
			acc[j] = a
			abm |= (tInt - a) >> 31 << j
		}
		return abm
	}
	for j := range acc {
		acc[j] = 0
	}
	offP := blk * fs.strideP
	for s := 0; s < chunk; s++ {
		t := dist[s*lutStride : s*lutStride+lutStride : s*lutStride+lutStride]
		if fs.class[s] == classPack4 {
			o := offP + fs.ord[s]*(blockLanes/2)
			g := fs.dataP[o : o+blockLanes/2 : o+blockLanes/2]
			for j, b := range g {
				a0 := t[b&15]
				a1 := t[b>>4]
				acc[2*j] += a0
				acc[2*j+1] += a1
			}
		} else {
			o := off8 + fs.ord[s]*blockLanes
			g := fs.data8[o : o+blockLanes : o+blockLanes]
			for j := 0; j < blockLanes; j += 4 {
				a0 := t[g[j]]
				a1 := t[g[j+1]]
				a2 := t[g[j+2]]
				a3 := t[g[j+3]]
				acc[j] += a0
				acc[j+1] += a1
				acc[j+2] += a2
				acc[j+3] += a3
			}
		}
	}
	for j := 0; j < blockLanes; j++ {
		abm |= (tInt - acc[j]) >> 31 << j
	}
	return abm
}

// codeAt reads one lane's scan code for subspace s of block blk.
func (fs *fastStore) codeAt(blk, lane, s int) int {
	if fs.class[s] == classPack4 {
		b := fs.dataP[blk*fs.strideP+fs.ord[s]*(blockLanes/2)+lane>>1]
		return int((b >> ((lane & 1) * 4)) & 15)
	}
	return int(fs.data8[blk*fs.stride8+fs.ord[s]*blockLanes+lane])
}

// eaResumeLaneFast continues one lane of a block from subspace sI with
// integer partial acc already accumulated, keeping the early-abandon
// cadence of the float kernels but testing against the quantized
// threshold tInt (intNoAbandon while the heap is not yet full, which makes
// every boundary test a no-op). Returns the integer distance, the
// absolute subspace index reached (the lookup count, covering the
// precomputed prefix) and whether the lane was abandoned.
func (fs *fastStore) eaResumeLaneFast(dist []uint32, acc uint32, sI, blk, lane, useSub, check int, tInt uint32) (uint32, int, bool) {
	// Leading uint8-class subspaces (at variance-ordered bench configs
	// that is nearly all of them, and the ones resumes actually reach
	// before abandoning): ord[s] == s there, so the code address and the
	// table offset both advance by constant strides — no class branch, no
	// ordinal load, no multiply per lookup.
	u8End := fs.u8Prefix
	if u8End > useSub {
		u8End = useSub
	}
	p := blk*fs.stride8 + sI*blockLanes + lane
	tOff := sI * lutStride
	for sI+check <= u8End {
		end := sI + check
		for ; sI < end; sI++ {
			acc += dist[tOff+int(fs.data8[p])]
			p += blockLanes
			tOff += lutStride
		}
		if acc > tInt {
			return acc, sI, true
		}
	}
	// Whatever remains — the packed-4-bit tail, plus any interleaved
	// layout's leftovers — goes through the generic per-class reads. The
	// chunk cadence carries over: sI is still a multiple of check here.
	baseP := blk*fs.strideP + lane>>1
	nibble := uint8(lane&1) * 4
	base8 := blk*fs.stride8 + lane
	for sI+check <= useSub {
		end := sI + check
		for ; sI < end; sI++ {
			var code uint32
			if fs.class[sI] == classU8 {
				code = uint32(fs.data8[base8+fs.ord[sI]*blockLanes])
			} else {
				code = uint32((fs.dataP[baseP+fs.ord[sI]*(blockLanes/2)] >> nibble) & 15)
			}
			acc += dist[sI*lutStride+int(code)]
		}
		if acc > tInt {
			return acc, sI, true
		}
	}
	for ; sI < useSub; sI++ {
		var code uint32
		if fs.class[sI] == classU8 {
			code = uint32(fs.data8[base8+fs.ord[sI]*blockLanes])
		} else {
			code = uint32((fs.dataP[baseP+fs.ord[sI]*(blockLanes/2)] >> nibble) & 15)
		}
		acc += dist[sI*lutStride+int(code)]
	}
	return acc, useSub, false
}

// scanHeapFast is the exhaustive integer scan: every block streams
// sequentially through accumChunkFast over all subspaces, and the
// dequantized per-lane totals feed the float top-k heap, whose final
// contents the exact re-rank pass (rerankFast) rescores.
func (s *Searcher) scanHeapFast() {
	fs := s.st.fast
	il := &s.ilut
	dist := il.dist
	useSub := fs.m
	var acc [blockLanes]uint32
	for c := 0; c+1 < len(fs.start); c++ {
		cEnd := int(fs.start[c+1])
		blk := int(fs.blockBase[c])
		for q := int(fs.start[c]); q < cEnd; q, blk = q+blockLanes, blk+1 {
			cnt := cEnd - q
			if cnt > blockLanes {
				cnt = blockLanes
			}
			fs.accumChunkFast(dist, blk, useSub, &acc, intNoAbandon)
			for j := 0; j < cnt; j++ {
				dd := il.dequantize(acc[j])
				if s.topk.Push(int(fs.perm[q+j]), dd) {
					s.pushed = append(s.pushed, pushCand{id: fs.perm[q+j], d: dd})
				}
			}
		}
	}
	s.stats.CodesConsidered = s.st.codes.N
	s.stats.Lookups = s.st.codes.N * useSub
}

// scanTIEAFast is the TI+EA cascade in the integer domain, with the
// triangle bound hoisted from a per-member test to a per-cluster range
// query: cluster ranking and the visit fraction are unchanged (and stay
// in float), and because a cluster's members are stored sorted by their
// distance to its centroid, the members the triangle bound can prune —
// those with |dq - e.dist| >= bsf — form a prefix and a suffix of the
// cluster. Two binary searches on entry delimit the surviving range, and
// only the blocks covering it stream through accumChunkFast, where every
// lane faces the quantized early-abandon threshold at the first chunk
// boundary. The bound is evaluated against the heap state at cluster
// entry rather than per member (it only tightens mid-cluster, so the
// range is at worst slightly wider than the exact kernel's); lanes
// sharing a block with survivors are evaluated rather than skipped,
// since the transposed chunk pass computes all 16 lanes in one sweep
// anyway. CodesSkippedTI counts the members outside the scanned blocks.
// The heap evolves only on accepted pushes, so the integer threshold is
// refreshed at push time; the heap's final contents go to the exact
// re-rank pass.
func (s *Searcher) scanTIEAFast(qz []float32, visitFrac float64) {
	ix := s.ix
	ti := s.st.ti
	fs := s.st.fast
	il := &s.ilut
	dist := il.dist
	useSub := fs.m
	check := ix.cfg.EACheckEvery
	rec := s.rec
	rankStart := rec.Clock()
	visit := s.orderClusters(qz, visitFrac)
	if rec.Active() {
		rec.Add(trace.Span{Name: trace.SpanClusterRank, Start: rankStart, Dur: rec.Clock() - rankStart, Count: visit})
	}
	s.stats.ClustersVisited = visit
	var resumeStart, resumeDur time.Duration
	resumeCnt := 0
	chunk := check
	if chunk > useSub {
		chunk = useSub
	}
	var acc [blockLanes]uint32
	// Heap state, refreshed only on accepted pushes (the only writes).
	// Pruning (not Full) so an injected cross-shard bound arms the
	// integer threshold and the TI range query from the first block.
	full := s.topk.Pruning()
	tInt := intNoAbandon
	if full {
		tInt = il.thresholdInt(s.topk.Threshold())
	}
	depths := s.stats.AbandonDepths
	perm := fs.perm
	for v := 0; v < visit; v++ {
		c := s.clustIdx[v]
		rk := clampRank(v, len(s.stats.TISkipsByRank))
		var spanStart time.Duration
		var before SearchStats
		if rec.Active() {
			spanStart = rec.Clock()
			before = s.stats
		}
		members := ti.clusters[c]
		nMem := len(members)
		// Triangle bound as a range query: members with
		// |dq - e.dist| >= bsf cannot beat the heap, and since members are
		// sorted ascending by e.dist those prunable members are exactly a
		// prefix (e.dist <= dq-bsf) and a suffix (e.dist >= dq+bsf). Two
		// binary searches delimit the survivors; the scan then covers only
		// the blocks that contain them.
		memLo, memHi := 0, nMem
		if full {
			dq := float32(math.Sqrt(float64(s.clustD[c])))
			bsf := float32(math.Sqrt(float64(s.topk.Threshold())))
			cutLo, cutHi := dq-bsf, dq+bsf
			for l, r := 0, nMem; l < r; {
				mid := int(uint(l+r) >> 1)
				if members[mid].dist <= cutLo {
					l = mid + 1
				} else {
					r = mid
				}
				memLo = l
			}
			for l, r := memLo, nMem; l < r; {
				mid := int(uint(l+r) >> 1)
				if members[mid].dist < cutHi {
					l = mid + 1
				} else {
					r = mid
				}
				memHi = l
			}
		}
		// Round the range out to block boundaries: a lane sharing a block
		// with a survivor is evaluated too (the chunk pass computes all 16
		// lanes in one sweep, so skipping it would cost more than scoring
		// it).
		scanLo := memLo &^ (blockLanes - 1)
		scanHi := (memHi + blockLanes - 1) &^ (blockLanes - 1)
		if scanHi > nMem {
			scanHi = nMem
		}
		if memLo >= memHi {
			scanLo, scanHi = 0, 0
		}
		s.stats.CodesConsidered += scanHi - scanLo
		if skipped := nMem - (scanHi - scanLo); skipped > 0 {
			s.stats.CodesSkippedTI += skipped
			if s.stats.TISkipsByRank != nil {
				s.stats.TISkipsByRank[rk] += uint32(skipped)
			}
		}
		if scanLo == scanHi {
			if rec.Active() {
				rec.Add(clusterScanSpan(spanStart, rec.Clock(), c, v, nMem, &before, &s.stats))
			}
			continue
		}
		cStart := int(fs.start[c])
		cEnd := cStart + scanHi
		blk := int(fs.blockBase[c]) + scanLo/blockLanes
		// Pruning counters stay in locals across the cluster walk — one
		// register add per event instead of a read-modify-write into the
		// stats struct — and flush once per cluster, before the cluster
		// span snapshots the stats.
		var nLookups, nAbandoned int
		for q := cStart + scanLo; q < cEnd; q, blk = q+blockLanes, blk+1 {
			cnt := cEnd - q
			if cnt > blockLanes {
				cnt = blockLanes
			}
			// First-boundary triage rides inside the accumulation pass,
			// branch-free: most lanes (~85% at the default config)
			// abandon right at this boundary, and a conditional branch at
			// that bias still mispredicts often enough to dominate the
			// per-lane cost — so accumChunkFast folds each lane's
			// threshold test into a sign-bit mask while the partial is
			// still in a register, and only the survivor bits are walked
			// below. Threshold pushes inside the survivor walk tighten
			// tInt for the NEXT block's triage (and for the resume calls
			// below), not for survivors already in the mask — each of
			// those re-faces the tightened threshold at its next chunk
			// boundary anyway.
			mask := ^fs.accumChunkFast(dist, blk, chunk, &acc, tInt) & (1<<cnt - 1)
			nLookups += cnt * chunk
			nAb := cnt - bits.OnesCount32(mask)
			nAbandoned += nAb
			if depths != nil {
				depths[chunk] += uint32(nAb)
			}
			for ; mask != 0; mask &= mask - 1 {
				j := bits.TrailingZeros32(mask)
				d := acc[j]
				var t0 time.Duration
				if rec.Active() {
					t0 = rec.Clock()
				}
				d, lookups, abandoned := fs.eaResumeLaneFast(dist, d, chunk, blk, j, useSub, check, tInt)
				if rec.Active() {
					if resumeCnt == 0 {
						resumeStart = t0
					}
					resumeDur += rec.Clock() - t0
					resumeCnt++
				}
				nLookups += lookups - chunk
				if abandoned {
					nAbandoned++
					if depths != nil {
						depths[lookups]++
					}
				} else {
					dd := il.dequantize(d)
					if s.topk.Push(int(perm[q+j]), dd) {
						s.pushed = append(s.pushed, pushCand{id: perm[q+j], d: dd})
						if s.topk.Pruning() {
							full = true
							tInt = il.thresholdInt(s.topk.Threshold())
						}
					}
				}
			}
		}
		s.stats.CodesAbandonedEA += nAbandoned
		s.stats.Lookups += nLookups
		if rec.Active() {
			rec.Add(clusterScanSpan(spanStart, rec.Clock(), c, v, nMem, &before, &s.stats))
		}
	}
	if resumeCnt > 0 {
		rec.Add(trace.Span{Name: trace.SpanEAResume, Start: resumeStart, Dur: resumeDur, Count: resumeCnt})
	}
}

// pushCand is one accepted integer-scan push: the candidate id and the
// dequantized distance it entered the heap with, kept so rerankFast can
// prune candidates the quantization error bound already excludes.
type pushCand struct {
	id int32
	d  float32
}

// rerankFast rebuilds the top-k heap with exact float distances for the
// candidates the integer scan retained. The per-subspace arithmetic
// matches FillTable (SquaredL2 association, every product rounded before
// it is added — the 4-dimensional case is inlined in that exact operation
// order) and the subspace-order summation of the scan kernels, so the
// reported candidates carry bit-identical distances to the exact
// kernels — only the candidate SET is decided by the integer metric, and
// within it the exact distances decide the final order.
//
// Most pushes are stale: they entered while the heap was filling or
// before the threshold tightened, and sit far above the final bar. When
// no subspace is coarsened the float scan tables equal the re-rank
// terms, so |dequantized - exact| <= slack*inv for every candidate; with
// T the final heap threshold (a dequantized value), the exact top-k
// cutoff is at most T + slack*inv, and any push whose stored distance
// exceeds T + 2*slack*inv is provably outside it. The filter uses twice
// that margin — strictly looser, so a dropped candidate is strictly
// worse than the cutoff and even exact-distance ties at the boundary
// keep their id-ordered winners. Coarsened stores (scan dictionary !=
// re-rank codebook, bound doesn't hold) and degenerate quantizations
// (inv == 0) re-rank everything, as does a non-full heap (threshold
// +Inf-like keeps every candidate). NaN estimates never satisfy the
// drop comparison and are rescored.
func (s *Searcher) rerankFast(qz []float32) {
	ix := s.ix
	fs := s.st.fast
	codes := s.st.codes
	m := fs.m
	flat := fs.rerFlat
	base := fs.rerBase
	il := &s.ilut
	cut := float32(math.MaxFloat32)
	if il.inv > 0 && fs.coarsenedSubspaces() == 0 {
		cut = s.topk.Threshold() + float32(4*float32(il.slack)*il.inv)
	}
	s.topk.Reset()
	if fs.rerDim4 {
		// Uniform 4-dimensional subspaces (the paper's bench geometry):
		// one flat array walk per candidate, SquaredL2's operation order at
		// d=4 (the float32 conversions stop fused multiply-adds).
		// Two subspaces per step: the pair shares one query-slice load and
		// halves the per-subspace slice/bounds bookkeeping, while the two
		// 4-term reductions are mutually independent and overlap in
		// flight. The running sum still folds them in strict subspace
		// order (d += a; d += b) — bit-identical distances to the exact
		// kernels are a tested invariant, and left-to-right summation is
		// part of it.
		for _, pc := range s.pushed {
			if pc.d > cut {
				continue
			}
			id := int(pc.id)
			row := codes.Data[id*m : id*m+m]
			var d float32
			sI := 0
			for ; sI+2 <= m; sI += 2 {
				pa := int(base[sI]) + int(row[sI])*4
				pb := int(base[sI+1]) + int(row[sI+1])*4
				ra := flat[pa : pa+4 : pa+4]
				rb := flat[pb : pb+4 : pb+4]
				q := qz[sI*4 : sI*4+8 : sI*4+8]
				a0 := q[0] - ra[0]
				a1 := q[1] - ra[1]
				a2 := q[2] - ra[2]
				a3 := q[3] - ra[3]
				b0 := q[4] - rb[0]
				b1 := q[5] - rb[1]
				b2 := q[6] - rb[2]
				b3 := q[7] - rb[3]
				d += float32(a0*a0) + float32(a1*a1) + float32(a2*a2) + float32(a3*a3)
				d += float32(b0*b0) + float32(b1*b1) + float32(b2*b2) + float32(b3*b3)
			}
			if sI < m {
				p := int(base[sI]) + int(row[sI])*4
				r := flat[p : p+4 : p+4]
				q := qz[sI*4 : sI*4+4 : sI*4+4]
				t0 := q[0] - r[0]
				t1 := q[1] - r[1]
				t2 := q[2] - r[2]
				t3 := q[3] - r[3]
				d += float32(t0*t0) + float32(t1*t1) + float32(t2*t2) + float32(t3*t3)
			}
			s.topk.Push(id, d)
		}
		return
	}
	sub := ix.cb.Sub
	for _, pc := range s.pushed {
		if pc.d > cut {
			continue
		}
		id := int(pc.id)
		row := codes.Data[id*m : id*m+m]
		var d float32
		for sI, c := range row {
			off, ln := sub.Offsets[sI], sub.Lengths[sI]
			p := int(base[sI]) + int(c)*ln
			d += vec.SquaredL2(qz[off:off+ln], flat[p:p+ln])
		}
		s.topk.Push(id, d)
	}
}
