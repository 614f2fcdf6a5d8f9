//go:build !amd64

package vec

func squaredL2Rows(q, rows, out []float32) { squaredL2RowsGo(q, rows, out) }
