package linalg

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// EigMethod selects the symmetric eigendecomposition algorithm.
type EigMethod int

const (
	// EigAuto picks Jacobi for small matrices (d <= 64) and
	// Householder+QL otherwise.
	EigAuto EigMethod = iota
	// EigJacobi runs the cyclic Jacobi rotation method: very robust,
	// O(d^3) per sweep, best for small d.
	EigJacobi
	// EigQL runs Householder tridiagonalization followed by the implicit
	// shift QL algorithm: the standard O(d^3) dense symmetric solver.
	EigQL
)

// EigResult holds a symmetric eigendecomposition A = V diag(values) Vᵀ with
// eigenvalues sorted in descending order and Vectors holding the matching
// eigenvectors as columns (Vectors.Col(i) pairs with Values[i]).
type EigResult struct {
	Values  []float64
	Vectors *Dense
}

// SymEig computes the eigendecomposition of the symmetric matrix a.
// The input is not modified. Symmetry is enforced by averaging a with its
// transpose, so tiny asymmetries from accumulated rounding are tolerated.
func SymEig(a *Dense, method EigMethod) (*EigResult, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: SymEig needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if n == 0 {
		return &EigResult{Values: nil, Vectors: NewDense(0, 0)}, nil
	}
	w := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			w.Set(i, j, 0.5*(a.At(i, j)+a.At(j, i)))
		}
	}
	m := method
	if m == EigAuto {
		if n <= 64 {
			m = EigJacobi
		} else {
			m = EigQL
		}
	}
	var res *EigResult
	var err error
	switch m {
	case EigJacobi:
		res, err = jacobiEig(w)
	case EigQL:
		res, err = qlEig(w)
	default:
		return nil, fmt.Errorf("linalg: unknown eigen method %d", method)
	}
	if err != nil {
		return nil, err
	}
	sortEigDescending(res)
	return res, nil
}

func sortEigDescending(r *EigResult) {
	n := len(r.Values)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return r.Values[idx[a]] > r.Values[idx[b]] })
	vals := make([]float64, n)
	vecs := NewDense(n, n)
	for newCol, oldCol := range idx {
		vals[newCol] = r.Values[oldCol]
		for row := 0; row < n; row++ {
			vecs.Set(row, newCol, r.Vectors.At(row, oldCol))
		}
	}
	r.Values = vals
	r.Vectors = vecs
}

// jacobiEig implements the cyclic Jacobi method. w is destroyed.
func jacobiEig(w *Dense) (*EigResult, error) {
	n := w.Rows
	v := Identity(n)
	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				off += float64(w.At(p, q) * w.At(p, q))
			}
		}
		if off < 1e-28*float64(n*n) {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = w.At(i, i)
			}
			return &EigResult{Values: vals, Vectors: v}, nil
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if apq == 0 {
					continue
				}
				app := w.At(p, p)
				aqq := w.At(q, q)
				// Skip rotations that cannot change anything at
				// double precision.
				if math.Abs(apq) < 1e-300 ||
					math.Abs(apq) <= 1e-17*(math.Abs(app)+math.Abs(aqq)) {
					w.Set(p, q, 0)
					w.Set(q, p, 0)
					continue
				}
				theta := (aqq - app) / (2 * apq)
				var t float64
				if math.Abs(theta) > 1e150 {
					t = 1 / (2 * theta)
				} else {
					t = math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(float64(theta*theta)+1))
				}
				c := 1 / math.Sqrt(float64(t*t)+1)
				s := t * c
				tau := s / (1 + c)
				// Apply rotation J(p,q,theta) on both sides of w.
				w.Set(p, p, app-float64(t*apq))
				w.Set(q, q, aqq+float64(t*apq))
				w.Set(p, q, 0)
				w.Set(q, p, 0)
				for i := 0; i < n; i++ {
					if i == p || i == q {
						continue
					}
					aip := w.At(i, p)
					aiq := w.At(i, q)
					w.Set(i, p, aip-float64(s*(aiq+float64(tau*aip))))
					w.Set(p, i, w.At(i, p))
					w.Set(i, q, aiq+float64(s*(aip-float64(tau*aiq))))
					w.Set(q, i, w.At(i, q))
				}
				for i := 0; i < n; i++ {
					vip := v.At(i, p)
					viq := v.At(i, q)
					v.Set(i, p, vip-float64(s*(viq+float64(tau*vip))))
					v.Set(i, q, viq+float64(s*(vip-float64(tau*viq))))
				}
			}
		}
	}
	return nil, errors.New("linalg: Jacobi eigensolver did not converge")
}

// qlEig implements Householder tridiagonalization followed by the implicit
// shift QL algorithm (Numerical Recipes tred2/tqli structure, rewritten).
// w is destroyed and becomes the accumulated orthogonal transform.
func qlEig(w *Dense) (*EigResult, error) {
	n := w.Rows
	d := make([]float64, n) // diagonal
	e := make([]float64, n) // subdiagonal
	tred2(w, d, e)
	if err := tqli(d, e, w); err != nil {
		return nil, err
	}
	return &EigResult{Values: d, Vectors: w}, nil
}

// tred2 reduces the symmetric matrix a to tridiagonal form, accumulating the
// orthogonal transform in a itself.
func tred2(a *Dense, d, e []float64) {
	n := a.Rows
	for i := n - 1; i >= 1; i-- {
		l := i - 1
		var h, scale float64
		if l > 0 {
			for k := 0; k <= l; k++ {
				scale += math.Abs(a.At(i, k))
			}
			if scale == 0 {
				e[i] = a.At(i, l)
			} else {
				for k := 0; k <= l; k++ {
					a.Set(i, k, a.At(i, k)/scale)
					h += float64(a.At(i, k) * a.At(i, k))
				}
				f := a.At(i, l)
				g := math.Sqrt(h)
				if f >= 0 {
					g = -g
				}
				e[i] = scale * g
				h -= float64(f * g)
				a.Set(i, l, f-g)
				f = 0
				for j := 0; j <= l; j++ {
					a.Set(j, i, a.At(i, j)/h)
					g = 0
					for k := 0; k <= j; k++ {
						g += float64(a.At(j, k) * a.At(i, k))
					}
					for k := j + 1; k <= l; k++ {
						g += float64(a.At(k, j) * a.At(i, k))
					}
					e[j] = g / h
					f += float64(e[j] * a.At(i, j))
				}
				hh := f / (h + h)
				for j := 0; j <= l; j++ {
					f = a.At(i, j)
					g = e[j] - float64(hh*f)
					e[j] = g
					for k := 0; k <= j; k++ {
						a.Set(j, k, a.At(j, k)-float64(f*e[k])-float64(g*a.At(i, k)))
					}
				}
			}
		} else {
			e[i] = a.At(i, l)
		}
		d[i] = h
	}
	d[0] = 0
	e[0] = 0
	for i := 0; i < n; i++ {
		l := i - 1
		if d[i] != 0 {
			for j := 0; j <= l; j++ {
				var g float64
				for k := 0; k <= l; k++ {
					g += float64(a.At(i, k) * a.At(k, j))
				}
				for k := 0; k <= l; k++ {
					a.Set(k, j, a.At(k, j)-float64(g*a.At(k, i)))
				}
			}
		}
		d[i] = a.At(i, i)
		a.Set(i, i, 1)
		for j := 0; j <= l; j++ {
			a.Set(j, i, 0)
			a.Set(i, j, 0)
		}
	}
}

// tqli diagonalizes a tridiagonal matrix (diagonal d, subdiagonal e) with
// implicit QL shifts, rotating the eigenvector matrix z along.
func tqli(d, e []float64, z *Dense) error {
	n := len(d)
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			if iter >= 64 {
				return errors.New("linalg: QL eigensolver did not converge")
			}
			var m int
			for m = l; m < n-1; m++ {
				dd := math.Abs(d[m]) + math.Abs(d[m+1])
				if math.Abs(e[m]) <= 1e-300 || math.Abs(e[m]) <= 2.3e-16*dd {
					break
				}
			}
			if m == l {
				break
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * e[i]
				b := float64(c * e[i])
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 {
					d[i+1] -= p
					e[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = d[i+1] - p
				r = float64((d[i]-g)*s) + float64(2*c*b)
				p = float64(s * r)
				d[i+1] = g + p
				g = float64(c*r) - b
				for k := 0; k < z.Rows; k++ {
					f := z.At(k, i+1)
					z.Set(k, i+1, float64(s*z.At(k, i))+float64(c*f))
					z.Set(k, i, float64(c*z.At(k, i))-float64(s*f))
				}
			}
			if r == 0 && m-1 >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}
