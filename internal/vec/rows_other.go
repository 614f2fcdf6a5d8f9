//go:build !amd64

package vec

func squaredL2Rows(q, rows, out []float32) { squaredL2RowsGo(q, rows, out) }

// HasAVX512 reports whether this process runs the AVX-512 kernel bodies;
// they exist on amd64 only.
func HasAVX512() bool { return false }
