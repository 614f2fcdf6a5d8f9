package pca

// projectAVX512 sets dst[j] = float32(Σ_k (src[k]-mean[k])·v[k*d+j]) for
// j < len(dst), d = len(src), with the association of projectInto's Go
// loop (see project_amd64.s). It requires len(dst) a multiple of 32 and
// at most d, len(v) >= d*d, and mean empty or of length d.
//
//go:noescape
func projectAVX512(src []float32, mean, v []float64, dst []float32)
