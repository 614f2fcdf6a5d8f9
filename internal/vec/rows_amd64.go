package vec

// squaredL2Rows4 computes, for each group of four rows, the lane sums of
// the first len(q)&^3 dimensions and folds them into out with SSE2 (see
// rows_amd64.s). It requires len(q) >= 4, len(out) a multiple of 4 and
// len(rows) >= len(out)*len(q).
//
//go:noescape
func squaredL2Rows4(q, rows, out []float32)

func squaredL2Rows(q, rows, out []float32) {
	d := len(q)
	n4 := len(out) &^ 3
	if d < 4 || n4 == 0 {
		squaredL2RowsGo(q, rows, out)
		return
	}
	squaredL2Rows4(q, rows, out[:n4])
	if d4 := d &^ 3; d4 < d {
		for c := 0; c < n4; c++ {
			r := rows[c*d : (c+1)*d : (c+1)*d]
			acc := out[c]
			for i := d4; i < d; i++ {
				t := q[i] - r[i]
				acc += float32(t * t)
			}
			out[c] = acc
		}
	}
	for c := n4; c < len(out); c++ {
		out[c] = SquaredL2(q, rows[c*d:(c+1)*d])
	}
}
