// Package milp provides a small, exact mixed-integer linear programming
// solver: a two-phase primal simplex for the LP relaxation and depth-first
// branch & bound for integrality. The VAQ paper (§III-C) formulates
// subspace bit allocation as "maximize Wᵀ·y subject to A·y ≤ b, y ≥ 0,
// y ∈ Zᵈ" and notes that "standard solvers with branch and bound
// optimization can solve it efficiently"; this package is that solver.
//
// Problems in this repository are tiny (≤ 64 integer variables, a few
// hundred constraints), so the implementation favours robustness: a dense
// tableau and Bland's anti-cycling pivot rule.
package milp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is the direction of a linear constraint.
type Sense int

const (
	LE Sense = iota // Σ aᵢxᵢ <= b
	GE              // Σ aᵢxᵢ >= b
	EQ              // Σ aᵢxᵢ == b
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return "?"
}

// Constraint is one row of the constraint system. Coeffs must have exactly
// one entry per problem variable.
type Constraint struct {
	Coeffs []float64
	Sense  Sense
	RHS    float64
}

// Problem is a linear (or mixed-integer) program in maximization form.
// All variables are implicitly >= 0; use Lower/Upper for tighter bounds.
type Problem struct {
	// Objective coefficients; the solver maximizes Objective · x.
	Objective []float64
	// Constraints to satisfy.
	Constraints []Constraint
	// Integer marks which variables must take integral values
	// (ignored by SolveLP; nil means all-continuous).
	Integer []bool
	// Lower holds per-variable lower bounds (nil = all zero).
	Lower []float64
	// Upper holds per-variable upper bounds (nil or +Inf entries = unbounded).
	Upper []float64
}

// Solution holds an optimal assignment.
type Solution struct {
	X         []float64
	Objective float64
}

// ErrInfeasible is returned when no assignment satisfies the constraints.
var ErrInfeasible = errors.New("milp: infeasible")

// ErrUnbounded is returned when the objective can grow without limit.
var ErrUnbounded = errors.New("milp: unbounded")

func (p *Problem) validate() (int, error) {
	n := len(p.Objective)
	if n == 0 {
		return 0, errors.New("milp: empty objective")
	}
	for i, c := range p.Constraints {
		if len(c.Coeffs) != n {
			return 0, fmt.Errorf("milp: constraint %d has %d coefficients, want %d", i, len(c.Coeffs), n)
		}
	}
	if p.Integer != nil && len(p.Integer) != n {
		return 0, fmt.Errorf("milp: Integer length %d, want %d", len(p.Integer), n)
	}
	if p.Lower != nil && len(p.Lower) != n {
		return 0, fmt.Errorf("milp: Lower length %d, want %d", len(p.Lower), n)
	}
	if p.Upper != nil && len(p.Upper) != n {
		return 0, fmt.Errorf("milp: Upper length %d, want %d", len(p.Upper), n)
	}
	return n, nil
}

// expandedConstraints returns the constraint rows including bound rows.
func (p *Problem) expandedConstraints(n int) []Constraint {
	rows := make([]Constraint, 0, len(p.Constraints)+2*n)
	rows = append(rows, p.Constraints...)
	for j := 0; j < n; j++ {
		if p.Lower != nil && p.Lower[j] > 0 {
			c := Constraint{Coeffs: make([]float64, n), Sense: GE, RHS: p.Lower[j]}
			c.Coeffs[j] = 1
			rows = append(rows, c)
		}
		if p.Upper != nil && !math.IsInf(p.Upper[j], 1) {
			c := Constraint{Coeffs: make([]float64, n), Sense: LE, RHS: p.Upper[j]}
			c.Coeffs[j] = 1
			rows = append(rows, c)
		}
	}
	return rows
}

// SolveLP solves the continuous relaxation (integrality ignored).
func SolveLP(p *Problem) (*Solution, error) {
	n, err := p.validate()
	if err != nil {
		return nil, err
	}
	rows := p.expandedConstraints(n)
	return simplex(p.Objective, rows)
}

const eps = 1e-9

// simplex runs the two-phase primal simplex method with Bland's rule.
func simplex(objective []float64, rows []Constraint) (*Solution, error) {
	n := len(objective)
	m := len(rows)
	// Count auxiliary columns.
	nSlack := 0
	nArt := 0
	for _, r := range rows {
		switch r.Sense {
		case LE, GE:
			nSlack++
		}
	}
	// Artificial variables: needed for GE and EQ rows (and LE rows with
	// negative RHS, which normalize to GE-like rows). Normalize first.
	norm := make([]Constraint, m)
	for i, r := range rows {
		c := Constraint{Coeffs: append([]float64(nil), r.Coeffs...), Sense: r.Sense, RHS: r.RHS}
		if c.RHS < 0 {
			for j := range c.Coeffs {
				c.Coeffs[j] = -c.Coeffs[j]
			}
			c.RHS = -c.RHS
			switch c.Sense {
			case LE:
				c.Sense = GE
			case GE:
				c.Sense = LE
			}
		}
		norm[i] = c
	}
	nSlack = 0
	for _, r := range norm {
		if r.Sense != EQ {
			nSlack++
		}
		if r.Sense != LE {
			nArt++
		}
	}
	total := n + nSlack + nArt
	// Tableau: m rows x (total + 1); last column is RHS.
	t := make([][]float64, m)
	basis := make([]int, m)
	slackCol := n
	artCol := n + nSlack
	artStart := artCol
	for i, r := range norm {
		row := make([]float64, total+1)
		copy(row, r.Coeffs)
		row[total] = r.RHS
		switch r.Sense {
		case LE:
			row[slackCol] = 1
			basis[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			basis[i] = artCol
			artCol++
		case EQ:
			row[artCol] = 1
			basis[i] = artCol
			artCol++
		}
		t[i] = row
	}

	pivot := func(pr, pc int) {
		pv := t[pr][pc]
		inv := 1 / pv
		for j := 0; j <= total; j++ {
			t[pr][j] *= inv
		}
		for i := 0; i < m; i++ {
			if i == pr {
				continue
			}
			f := t[i][pc]
			if f == 0 {
				continue
			}
			for j := 0; j <= total; j++ {
				t[i][j] -= float64(f * t[pr][j])
			}
		}
		basis[pr] = pc
	}

	// run optimizes the objective vector obj (maximization) over the
	// current tableau. allowed limits candidate entering columns.
	run := func(obj []float64, limit int) error {
		// Reduced costs: z_j - c_j computed from scratch each iteration
		// (m and n are tiny; clarity over speed).
		for iter := 0; iter < 10000; iter++ {
			// reduced[j] = obj[j] - sum_i obj[basis[i]] * t[i][j]
			entering := -1
			var bestRed float64
			for j := 0; j < limit; j++ {
				red := obj[j]
				for i := 0; i < m; i++ {
					if basis[i] < len(obj) && obj[basis[i]] != 0 {
						red -= float64(obj[basis[i]] * t[i][j])
					}
				}
				if red > eps {
					// Bland's rule: choose the lowest-index improving
					// column. (bestRed kept for clarity/debugging.)
					entering = j
					bestRed = red
					break
				}
			}
			_ = bestRed
			if entering == -1 {
				return nil // optimal
			}
			// Ratio test (Bland: smallest index on ties).
			leave := -1
			var bestRatio float64
			for i := 0; i < m; i++ {
				if t[i][entering] > eps {
					ratio := t[i][total] / t[i][entering]
					if leave == -1 || ratio < bestRatio-eps ||
						(math.Abs(ratio-bestRatio) <= eps && basis[i] < basis[leave]) {
						leave = i
						bestRatio = ratio
					}
				}
			}
			if leave == -1 {
				return ErrUnbounded
			}
			pivot(leave, entering)
		}
		return errors.New("milp: simplex iteration limit exceeded")
	}

	// Phase 1: maximize -(sum of artificials).
	if nArt > 0 {
		obj1 := make([]float64, total)
		for j := artStart; j < artStart+nArt; j++ {
			obj1[j] = -1
		}
		if err := run(obj1, total); err != nil {
			return nil, err
		}
		// Check artificial sum ~ 0.
		var artSum float64
		for i := 0; i < m; i++ {
			if basis[i] >= artStart {
				artSum += t[i][total]
			}
		}
		if artSum > 1e-6 {
			return nil, ErrInfeasible
		}
		// Drive remaining artificials out of the basis when possible.
		for i := 0; i < m; i++ {
			if basis[i] >= artStart {
				done := false
				for j := 0; j < artStart && !done; j++ {
					if math.Abs(t[i][j]) > eps {
						pivot(i, j)
						done = true
					}
				}
				// If the row is all zeros over structural+slack columns it
				// is redundant; leaving the artificial basic at value 0 is
				// harmless as long as phase 2 never lets it grow — ensured
				// by restricting entering columns to < artStart below.
			}
		}
	}

	// Phase 2: maximize the real objective over structural + slack columns.
	obj2 := make([]float64, total)
	copy(obj2, objective)
	if err := run(obj2, artStart); err != nil {
		return nil, err
	}
	x := make([]float64, n)
	for i := 0; i < m; i++ {
		if basis[i] < n {
			x[basis[i]] = t[i][total]
		}
	}
	var objVal float64
	for j := 0; j < n; j++ {
		if x[j] < 0 && x[j] > -1e-9 {
			x[j] = 0
		}
		objVal += float64(objective[j] * x[j])
	}
	return &Solution{X: x, Objective: objVal}, nil
}
