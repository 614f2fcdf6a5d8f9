package quantizer

import (
	"vaq/internal/vec"
)

// LUT caches, for one query, the squared Euclidean distances between each
// query subvector and every dictionary item of that subspace — the
// asymmetric distance computation tables of paper Figure 2 step 3 and
// Algorithm 4 lines 5-13. Tables for different subspaces may have
// different sizes, so they are stored flattened with per-subspace offsets.
type LUT struct {
	M       int
	Offsets []int
	Dist    []float32
}

// BuildLUT computes the ADC lookup table for query q.
func (cb *Codebooks) BuildLUT(q []float32) *LUT {
	m := cb.Sub.M()
	offsets := make([]int, m+1)
	total := 0
	for s := 0; s < m; s++ {
		offsets[s] = total
		total += cb.Books[s].Rows
	}
	offsets[m] = total
	lut := &LUT{M: m, Offsets: offsets, Dist: make([]float32, total)}
	cb.FillLUT(q, lut)
	return lut
}

// FillLUT recomputes an existing table in place for a new query, avoiding
// per-query allocation on the batch path. Table construction is on the
// per-query critical path (Algorithm 4 lines 5-13); each subspace's table
// is one vec.SquaredL2Rows call, which keeps SquaredL2's exact float
// association, so every entry has the bits of a per-entry SquaredL2.
func (cb *Codebooks) FillLUT(q []float32, lut *LUT) {
	for s := 0; s < cb.Sub.M(); s++ {
		FillTable(cb.Sub.Of(q, s), cb.Books[s], lut.Dist[lut.Offsets[s]:lut.Offsets[s+1]])
	}
}

// FillTable computes one subspace's distance table for query subvector qs
// against an arbitrary dictionary matrix — the single-subspace core of
// FillLUT, exported so derived scan stores (coarsened dictionaries) can
// build their own tables with the same float association.
func FillTable(qs []float32, book *vec.Matrix, out []float32) {
	vec.SquaredL2Rows(qs, book.Data, out[:book.Rows])
}

// Table returns the table slice of subspace s.
func (l *LUT) Table(s int) []float32 { return l.Dist[l.Offsets[s]:l.Offsets[s+1]] }

// Distance accumulates the full approximate squared distance of code word
// c against the table.
func (l *LUT) Distance(code []uint16) float32 {
	var d float32
	for s, c := range code {
		d += l.Dist[l.Offsets[s]+int(c)]
	}
	return d
}

// ScanADC performs the exhaustive asymmetric-distance scan over all codes,
// returning the k nearest neighbors by approximate squared distance. This
// is the query path of plain PQ/OPQ (paper Figure 2 step 3-4).
func ScanADC(codes *Codes, lut *LUT, k int) []vec.Neighbor {
	tk := vec.NewTopK(k)
	m := codes.M
	for i := 0; i < codes.N; i++ {
		row := codes.Data[i*m : (i+1)*m]
		var d float32
		for s := 0; s < m; s++ {
			d += lut.Dist[lut.Offsets[s]+int(row[s])]
		}
		tk.Push(i, d)
	}
	return tk.Results()
}
