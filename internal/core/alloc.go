package core

import (
	"fmt"
	"math"

	"vaq/internal/milp"
)

// AllocStrategy selects how the bit budget is distributed over subspaces.
type AllocStrategy int

const (
	// AllocMILP is the paper's constrained-optimization allocation
	// (§III-C): maximize Σ wᵢ·yᵢ subject to C1-C4, solved by branch &
	// bound over the LP relaxation.
	AllocMILP AllocStrategy = iota
	// AllocTransformCoding is the classic closed-form reverse-water-filling
	// rule from transform coding: bᵢ = b̄ + ½·log2(λᵢ / geomean λ),
	// clamped and integer-repaired. Provided as an ablation alternative.
	AllocTransformCoding
	// AllocUniform gives every subspace Budget/m bits (PQ/OPQ behaviour),
	// the ablation baseline of Figure 9.
	AllocUniform
)

func (s AllocStrategy) String() string {
	switch s {
	case AllocMILP:
		return "milp"
	case AllocTransformCoding:
		return "transform-coding"
	case AllocUniform:
		return "uniform"
	}
	return "unknown"
}

// BitConstraint is a user-supplied linear constraint over the per-subspace
// bit variables y (one coefficient per subspace): Σ Coeffs[i]·yᵢ  Sense  RHS.
// The paper (§III-C) motivates the MILP formulation precisely because new
// application constraints — workload-aware storage or latency service
// agreements, supervision weights — should compose with C1-C4 without a new
// solver; this hook is that extension point.
type BitConstraint struct {
	Coeffs []float64
	Sense  milp.Sense
	RHS    float64
}

// allocParams bundles the allocation inputs.
type allocParams struct {
	Weights        []float64 // per-subspace variance share, descending
	Budget         int
	MinBits        int
	MaxBits        int
	TargetVariance float64 // C1 threshold (0 < τ <= 1)
	// Extra user constraints over all subspaces (MILP strategy only).
	Extra []BitConstraint
}

func (p *allocParams) validate() error {
	m := len(p.Weights)
	if m == 0 {
		return fmt.Errorf("core: no subspaces to allocate")
	}
	if p.MinBits < 1 {
		return fmt.Errorf("core: MinBits must be >= 1, got %d", p.MinBits)
	}
	if p.MaxBits < p.MinBits || p.MaxBits > 16 {
		return fmt.Errorf("core: MaxBits=%d out of range [MinBits=%d, 16]", p.MaxBits, p.MinBits)
	}
	if p.Budget < m*p.MinBits {
		return fmt.Errorf("core: budget %d below minimum %d (= %d subspaces x %d bits)",
			p.Budget, m*p.MinBits, m, p.MinBits)
	}
	if p.Budget > m*p.MaxBits {
		return fmt.Errorf("core: budget %d above maximum %d (= %d subspaces x %d bits)",
			p.Budget, m*p.MaxBits, m, p.MaxBits)
	}
	if p.TargetVariance <= 0 || p.TargetVariance > 1 {
		return fmt.Errorf("core: TargetVariance %v out of (0, 1]", p.TargetVariance)
	}
	return nil
}

// allocateBits dispatches to the selected strategy. The returned slice has
// one bit count per subspace, summing exactly to the budget, each within
// [MinBits, MaxBits], and non-increasing in subspace importance.
func allocateBits(strategy AllocStrategy, p allocParams) ([]int, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	switch strategy {
	case AllocMILP:
		return allocateMILP(p)
	case AllocTransformCoding:
		return allocateTransformCoding(p)
	case AllocUniform:
		return allocateUniform(p)
	}
	return nil, fmt.Errorf("core: unknown allocation strategy %d", strategy)
}

// allocateMILP implements Algorithm 2's constraint set:
//
//	C1 — cover the target variance: only the leading H subspaces whose
//	     cumulative variance reaches TargetVariance participate in the
//	     optimization; trailing subspaces receive MinBits.
//	C2 — MinBits <= yᵢ <= MaxBits.
//	C3 — Σ yᵢ equals the budget exactly.
//	C4 — proportionality: allocation is non-increasing in importance
//	     (yᵢ >= yᵢ₊₁) and capped near each subspace's proportional share,
//	     so no subspace can absorb the budget.
//
// If the proportional caps make the program infeasible (possible when
// MaxBits binds), the caps are relaxed and the monotone program is
// re-solved; the monotone program is always feasible given a valid budget.
func allocateMILP(p allocParams) ([]int, error) {
	m := len(p.Weights)
	for i, c := range p.Extra {
		if len(c.Coeffs) != m {
			return nil, fmt.Errorf("core: extra constraint %d has %d coefficients, want %d",
				i, len(c.Coeffs), m)
		}
	}
	// C1: find H, the smallest prefix covering TargetVariance.
	var wTotal float64
	for _, w := range p.Weights {
		wTotal += w
	}
	h := m
	if wTotal > 0 {
		var cum float64
		for i, w := range p.Weights {
			cum += w
			if cum >= float64(p.TargetVariance*wTotal)-1e-12 {
				h = i + 1
				break
			}
		}
	}
	// Trailing subspaces get MinBits; ensure the head can still absorb the
	// remaining budget under MaxBits (grow H if not).
	for h < m && p.Budget-(m-h)*p.MinBits > h*p.MaxBits {
		h++
	}
	headBudget := p.Budget - (m-h)*p.MinBits

	bits := make([]int, m)
	for i := h; i < m; i++ {
		bits[i] = p.MinBits
	}
	// Project user constraints onto the head variables: tail variables are
	// fixed at MinBits, so their contribution moves to the RHS.
	extra := make([]milp.Constraint, 0, len(p.Extra))
	for _, c := range p.Extra {
		rhs := c.RHS
		for i := h; i < m; i++ {
			rhs -= float64(c.Coeffs[i] * float64(p.MinBits))
		}
		extra = append(extra, milp.Constraint{
			Coeffs: append([]float64(nil), c.Coeffs[:h]...),
			Sense:  c.Sense,
			RHS:    rhs,
		})
	}
	head, err := solveHeadMILP(p.Weights[:h], headBudget, p.MinBits, p.MaxBits, true, extra)
	if err == milp.ErrInfeasible {
		head, err = solveHeadMILP(p.Weights[:h], headBudget, p.MinBits, p.MaxBits, false, extra)
	}
	if err == milp.ErrInfeasible && h < m {
		// User constraints can make the C1 head split infeasible (e.g. a
		// cap on a leading subspace that pushes budget into the tail).
		// Relax C1: optimize over all subspaces.
		fullExtra := make([]milp.Constraint, len(p.Extra))
		for i, c := range p.Extra {
			fullExtra[i] = milp.Constraint{
				Coeffs: append([]float64(nil), c.Coeffs...),
				Sense:  c.Sense,
				RHS:    c.RHS,
			}
		}
		h = m
		head, err = solveHeadMILP(p.Weights, p.Budget, p.MinBits, p.MaxBits, true, fullExtra)
		if err == milp.ErrInfeasible {
			head, err = solveHeadMILP(p.Weights, p.Budget, p.MinBits, p.MaxBits, false, fullExtra)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("core: bit allocation MILP: %w", err)
	}
	copy(bits, head)
	return bits, nil
}

// proportionalTargets computes the real-valued allocation that gives each
// subspace lo bits plus a share of the remaining budget proportional to
// its weight, redistributing overflow whenever a share would exceed
// MaxBits (iterative clamping — the bounded version of a proportional
// split). The result sums to the budget and is non-increasing for
// descending weights.
func proportionalTargets(w []float64, budget, lo, hi int) []float64 {
	m := len(w)
	targets := make([]float64, m)
	for i := range targets {
		targets[i] = float64(lo)
	}
	clamped := make([]bool, m)
	remaining := float64(budget - m*lo)
	maxExtra := float64(hi - lo)
	for round := 0; round <= m && remaining > 1e-9; round++ {
		var wSum float64
		free := 0
		for i := range w {
			if !clamped[i] {
				wSum += w[i]
				free++
			}
		}
		if free == 0 {
			break
		}
		overflow := false
		for i := range w {
			if clamped[i] {
				continue
			}
			var share float64
			if wSum > 0 {
				share = remaining * w[i] / wSum
			} else {
				share = remaining / float64(free)
			}
			if share >= maxExtra {
				targets[i] = float64(hi)
				clamped[i] = true
				remaining -= maxExtra
				overflow = true
			}
		}
		if overflow {
			continue
		}
		// No clamping needed: assign final shares.
		for i := range w {
			if clamped[i] {
				continue
			}
			if wSum > 0 {
				targets[i] += remaining * w[i] / wSum
			} else {
				targets[i] += remaining / float64(free)
			}
		}
		remaining = 0
	}
	return targets
}

// solveHeadMILP builds and solves the integer program for the leading h
// subspaces. withCaps enables the proportional C4 bounds: each yᵢ must lie
// within about one bit of its clamped-proportional target, and the linear
// objective Σ wᵢ·yᵢ chooses the best integer rounding inside that band.
func solveHeadMILP(w []float64, budget, lo, hi int, withCaps bool, extra []milp.Constraint) ([]int, error) {
	h := len(w)
	obj := append([]float64(nil), w...)
	cons := make([]milp.Constraint, 0, h+1+len(extra))
	cons = append(cons, extra...)
	// C3: Σ y = budget.
	ones := make([]float64, h)
	for i := range ones {
		ones[i] = 1
	}
	cons = append(cons, milp.Constraint{Coeffs: ones, Sense: milp.EQ, RHS: float64(budget)})
	// C4 (ordering): yᵢ - yᵢ₊₁ >= 0.
	for i := 0; i+1 < h; i++ {
		row := make([]float64, h)
		row[i] = 1
		row[i+1] = -1
		cons = append(cons, milp.Constraint{Coeffs: row, Sense: milp.GE, RHS: 0})
	}
	lower := make([]float64, h)
	upper := make([]float64, h)
	targets := proportionalTargets(w, budget, lo, hi)
	for i := 0; i < h; i++ {
		lower[i] = float64(lo)
		upper[i] = float64(hi)
		if withCaps {
			// C4 (proportionality band around the clamped target).
			if c := math.Ceil(targets[i]) + 1; c < upper[i] {
				upper[i] = c
			}
			if f := math.Floor(targets[i]) - 1; f > lower[i] {
				lower[i] = f
			}
		}
	}
	integer := make([]bool, h)
	for i := range integer {
		integer[i] = true
	}
	sol, err := milp.SolveMILP(&milp.Problem{
		Objective:   obj,
		Constraints: cons,
		Integer:     integer,
		Lower:       lower,
		Upper:       upper,
	})
	if err != nil {
		return nil, err
	}
	bits := make([]int, h)
	for i, v := range sol.X {
		bits[i] = int(math.Round(v))
	}
	return bits, nil
}

// allocateTransformCoding applies the reverse-water-filling rule and then
// repairs the result to an exact-integer, in-bounds, monotone allocation.
func allocateTransformCoding(p allocParams) ([]int, error) {
	m := len(p.Weights)
	mean := float64(p.Budget) / float64(m)
	// Geometric mean over positive weights; zero weights are floored so the
	// log stays finite (they will end up at MinBits anyway).
	logs := make([]float64, m)
	var logSum float64
	for i, w := range p.Weights {
		if w < 1e-12 {
			w = 1e-12
		}
		logs[i] = math.Log2(w)
		logSum += logs[i]
	}
	logMean := logSum / float64(m)
	raw := make([]float64, m)
	for i := range raw {
		raw[i] = mean + float64(0.5*(logs[i]-logMean))
	}
	bits := make([]int, m)
	for i, r := range raw {
		b := int(math.Round(r))
		if b < p.MinBits {
			b = p.MinBits
		}
		if b > p.MaxBits {
			b = p.MaxBits
		}
		bits[i] = b
	}
	repairBudget(bits, p)
	enforceMonotone(bits, p)
	return bits, nil
}

// allocateUniform spreads the budget evenly, giving leading subspaces the
// remainder.
func allocateUniform(p allocParams) ([]int, error) {
	m := len(p.Weights)
	base := p.Budget / m
	rem := p.Budget % m
	if base < p.MinBits || base+1 > p.MaxBits && rem > 0 || base > p.MaxBits {
		return nil, fmt.Errorf("core: uniform allocation of %d bits over %d subspaces violates [%d,%d]",
			p.Budget, m, p.MinBits, p.MaxBits)
	}
	bits := make([]int, m)
	for i := range bits {
		bits[i] = base
		if i < rem {
			bits[i]++
		}
	}
	return bits, nil
}

// repairBudget adjusts bits so they sum exactly to the budget, preferring
// to add to the most important subspaces and remove from the least.
func repairBudget(bits []int, p allocParams) {
	sum := 0
	for _, b := range bits {
		sum += b
	}
	for sum < p.Budget {
		done := false
		for i := 0; i < len(bits); i++ { // most important first
			if bits[i] < p.MaxBits {
				bits[i]++
				sum++
				done = true
				break
			}
		}
		if !done {
			return // cannot repair (validated budgets make this unreachable)
		}
	}
	for sum > p.Budget {
		done := false
		for i := len(bits) - 1; i >= 0; i-- { // least important first
			if bits[i] > p.MinBits {
				bits[i]--
				sum--
				done = true
				break
			}
		}
		if !done {
			return
		}
	}
}

// enforceMonotone makes the allocation non-increasing without changing its
// sum: any inversion is fixed by swapping values (a permutation of the
// multiset keeps C3 intact, and sorting descending is optimal for
// descending weights).
func enforceMonotone(bits []int, p allocParams) {
	// Simple descending insertion sort; m <= 64.
	for i := 1; i < len(bits); i++ {
		for j := i; j > 0 && bits[j] > bits[j-1]; j-- {
			bits[j], bits[j-1] = bits[j-1], bits[j]
		}
	}
}
