//go:build !amd64

package pca

// projectAVX512 exists on amd64 only; useAVX512 is false elsewhere.
func projectAVX512(src []float32, mean, v []float64, dst []float32) {
	panic("pca: AVX-512 projection on a non-amd64 build")
}
