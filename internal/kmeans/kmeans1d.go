package kmeans

import (
	"errors"
	"fmt"
	"math"
)

// Segment1D clusters a slice of values that is sorted in DESCENDING order
// into k contiguous segments, minimizing the within-segment sum of squared
// deviations. This is exactly 1-D k-means on sorted data (where optimal
// clusters are always contiguous), solved exactly by dynamic programming.
//
// VAQ uses it to group dimensions with similar explained variance into
// non-uniform subspaces (paper §III-B, "Clustering of Dimensions"). The
// returned slice holds the segment lengths, summing to len(values); every
// segment is non-empty.
func Segment1D(values []float64, k int) ([]int, error) {
	n := len(values)
	if k < 1 {
		return nil, fmt.Errorf("kmeans: Segment1D needs k >= 1, got %d", k)
	}
	if n == 0 {
		return nil, errors.New("kmeans: Segment1D needs a non-empty input")
	}
	if k > n {
		return nil, fmt.Errorf("kmeans: Segment1D k=%d exceeds %d values", k, n)
	}
	for i := 1; i < n; i++ {
		if values[i] > values[i-1]+1e-12 {
			return nil, fmt.Errorf("kmeans: Segment1D input not sorted descending at %d", i)
		}
	}
	// Prefix sums for O(1) segment cost: cost(i, j) = sum of squared
	// deviations of values[i:j] from their mean.
	pre := make([]float64, n+1)
	pre2 := make([]float64, n+1)
	for i, v := range values {
		pre[i+1] = pre[i] + v
		pre2[i+1] = pre2[i] + float64(v*v)
	}
	cost := func(i, j int) float64 { // [i, j)
		cnt := float64(j - i)
		s := pre[j] - pre[i]
		s2 := pre2[j] - pre2[i]
		c := s2 - s*s/cnt
		if c < 0 {
			return 0
		}
		return c
	}
	const inf = math.MaxFloat64
	// dp[c][j]: minimal cost to split values[0:j] into c segments.
	dp := make([][]float64, k+1)
	cut := make([][]int, k+1)
	for c := range dp {
		dp[c] = make([]float64, n+1)
		cut[c] = make([]int, n+1)
		for j := range dp[c] {
			dp[c][j] = inf
		}
	}
	dp[0][0] = 0
	for c := 1; c <= k; c++ {
		for j := c; j <= n; j++ {
			// Last segment starts at i; every earlier segment must be
			// non-empty, so i >= c-1.
			for i := c - 1; i < j; i++ {
				if dp[c-1][i] == inf {
					continue
				}
				v := dp[c-1][i] + cost(i, j)
				if v < dp[c][j] {
					dp[c][j] = v
					cut[c][j] = i
				}
			}
		}
	}
	lengths := make([]int, k)
	j := n
	for c := k; c >= 1; c-- {
		i := cut[c][j]
		lengths[c-1] = j - i
		j = i
	}
	return lengths, nil
}
