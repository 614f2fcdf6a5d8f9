package milp

import (
	"fmt"
	"math"
)

// SolveMILP solves the problem with its integrality requirements using
// LP-relaxation branch & bound. Branching adds bound rows (x_j <= floor,
// x_j >= ceil) on the most fractional integer variable; nodes whose LP
// bound cannot beat the incumbent are pruned.
func SolveMILP(p *Problem) (*Solution, error) {
	n, err := p.validate()
	if err != nil {
		return nil, err
	}
	anyInt := false
	if p.Integer != nil {
		for _, b := range p.Integer {
			if b {
				anyInt = true
				break
			}
		}
	}
	if !anyInt {
		return SolveLP(p)
	}

	type node struct {
		lower []float64
		upper []float64
	}
	baseLower := make([]float64, n)
	baseUpper := make([]float64, n)
	for j := 0; j < n; j++ {
		if p.Lower != nil {
			baseLower[j] = p.Lower[j]
		}
		if p.Upper != nil {
			baseUpper[j] = p.Upper[j]
		} else {
			baseUpper[j] = math.Inf(1)
		}
	}

	var incumbent *Solution
	stack := []node{{lower: baseLower, upper: baseUpper}}
	const maxNodes = 200000
	nodes := 0
	for len(stack) > 0 {
		nodes++
		if nodes > maxNodes {
			return nil, fmt.Errorf("milp: branch & bound node limit (%d) exceeded", maxNodes)
		}
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		sub := &Problem{
			Objective:   p.Objective,
			Constraints: p.Constraints,
			Lower:       nd.lower,
			Upper:       nd.upper,
		}
		sol, err := SolveLP(sub)
		if err == ErrInfeasible {
			continue
		}
		if err != nil {
			return nil, err
		}
		if incumbent != nil && sol.Objective <= incumbent.Objective+1e-9 {
			continue // bound: cannot beat incumbent
		}
		// Find the most fractional integer variable.
		branchVar := -1
		worstFrac := 1e-6
		for j := 0; j < n; j++ {
			if !p.Integer[j] {
				continue
			}
			f := sol.X[j] - math.Floor(sol.X[j])
			frac := math.Min(f, 1-f)
			if frac > worstFrac {
				worstFrac = frac
				branchVar = j
			}
		}
		if branchVar == -1 {
			// Integral: round to kill float dust and accept as incumbent.
			x := make([]float64, n)
			var obj float64
			for j := 0; j < n; j++ {
				if p.Integer[j] {
					x[j] = math.Round(sol.X[j])
				} else {
					x[j] = sol.X[j]
				}
				obj += float64(p.Objective[j] * x[j])
			}
			if incumbent == nil || obj > incumbent.Objective {
				incumbent = &Solution{X: x, Objective: obj}
			}
			continue
		}
		v := sol.X[branchVar]
		// Down branch: x_j <= floor(v)
		down := node{
			lower: append([]float64(nil), nd.lower...),
			upper: append([]float64(nil), nd.upper...),
		}
		down.upper[branchVar] = math.Min(down.upper[branchVar], math.Floor(v))
		// Up branch: x_j >= ceil(v)
		up := node{
			lower: append([]float64(nil), nd.lower...),
			upper: append([]float64(nil), nd.upper...),
		}
		up.lower[branchVar] = math.Max(up.lower[branchVar], math.Ceil(v))
		if down.upper[branchVar] >= down.lower[branchVar]-1e-9 {
			stack = append(stack, down)
		}
		if math.IsInf(up.upper[branchVar], 1) || up.upper[branchVar] >= up.lower[branchVar]-1e-9 {
			stack = append(stack, up)
		}
	}
	if incumbent == nil {
		return nil, ErrInfeasible
	}
	return incumbent, nil
}
