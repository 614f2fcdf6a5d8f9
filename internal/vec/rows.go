package vec

// SquaredL2Rows sets out[c] = SquaredL2(q, rows[c*d:(c+1)*d]) for every c in
// [0, len(out)), where d = len(q): the distances from one query to a
// row-major matrix of len(out) rows. Every entry carries SquaredL2's bits —
// four lane sums over dims j, j+4, …, folded as ((d0+d1)+d2)+d3, then the
// d%4 tail added in order, each product rounded before it is added — so a
// table filled here is interchangeable with per-row SquaredL2 calls. It
// serves the per-query LUT fill (quantizer.FillTable) and TI cluster
// ranking. rows must hold at least len(out)*d values.
func SquaredL2Rows(q, rows, out []float32) {
	squaredL2Rows(q, rows[:len(out)*len(q)], out)
}

// squaredL2RowsGo is the portable SquaredL2Rows and the test oracle for the
// assembly kernel. The 4- and 8-dimensional cases walk the row storage
// directly instead of paying a slice and call round trip per row.
func squaredL2RowsGo(q, rows, out []float32) {
	switch len(q) {
	case 4:
		squaredL2Rows4Go(q, rows, out)
	case 8:
		squaredL2Rows8Go(q, rows, out)
	default:
		d := len(q)
		for c := range out {
			out[c] = SquaredL2(q, rows[c*d:(c+1)*d])
		}
	}
}

// squaredL2Rows4Go is SquaredL2 at d=4: four independent products summed
// left to right.
func squaredL2Rows4Go(q, rows, out []float32) {
	q0, q1, q2, q3 := q[0], q[1], q[2], q[3]
	for c := range out {
		r := rows[c*4 : c*4+4 : c*4+4]
		t0 := q0 - r[0]
		t1 := q1 - r[1]
		t2 := q2 - r[2]
		t3 := q3 - r[3]
		out[c] = float32(t0*t0) + float32(t1*t1) + float32(t2*t2) + float32(t3*t3)
	}
}

// squaredL2Rows8Go is SquaredL2 at d=8: per-lane partial sums over two
// 4-wide rounds, then d0+d1+d2+d3.
func squaredL2Rows8Go(q, rows, out []float32) {
	for c := range out {
		r := rows[c*8 : c*8+8 : c*8+8]
		t0 := q[0] - r[0]
		t1 := q[1] - r[1]
		t2 := q[2] - r[2]
		t3 := q[3] - r[3]
		d0 := float32(t0 * t0)
		d1 := float32(t1 * t1)
		d2 := float32(t2 * t2)
		d3 := float32(t3 * t3)
		t0 = q[4] - r[4]
		t1 = q[5] - r[5]
		t2 = q[6] - r[6]
		t3 = q[7] - r[7]
		d0 += float32(t0 * t0)
		d1 += float32(t1 * t1)
		d2 += float32(t2 * t2)
		d3 += float32(t3 * t3)
		out[c] = d0 + d1 + d2 + d3
	}
}
