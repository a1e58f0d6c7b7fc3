// Package stats provides the statistical substrate of the VisDB
// reproduction: empirical quantiles (the α-quantile of section 5.1 of the
// paper), histograms, correlation measures and seeded random
// distributions used by the synthetic workload generators.
//
// All functions are deterministic given their inputs; random sources are
// always passed explicitly so experiments are reproducible.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// QuantileSorted returns the empirical α-quantile of sorted, a sample in
// ascending order: the lowest value ξ such that the fraction of samples
// ≤ ξ is at least α. This is the definition used in section 5.1 of the
// paper (F(ξα) ≥ α with the empirical CDF). α is clamped to [0, 1].
func QuantileSorted(sorted []float64, alpha float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, ErrEmpty
	}
	if alpha <= 0 {
		return sorted[0], nil
	}
	if alpha >= 1 {
		return sorted[n-1], nil
	}
	// Lowest index i such that (i+1)/n >= alpha.
	i := int(math.Ceil(alpha*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i], nil
}

// QuantileIndex returns the number of items of the sorted sample that lie
// in the lower α fraction, i.e. the count k such that sorted[:k] is the
// [0, α-quantile] prefix. It is the item-count form of QuantileSorted used
// by the display-reduction heuristics.
func QuantileIndex(n int, alpha float64) int {
	if n == 0 {
		return 0
	}
	if alpha <= 0 {
		return 0
	}
	if alpha >= 1 {
		return n
	}
	k := int(math.Ceil(alpha * float64(n)))
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	return k
}

// ZeroQuantileAlpha returns α₀ such that the α₀-quantile of the sorted
// sample equals zero, i.e. the fraction of samples that are ≤ 0. It is
// used for the signed-distance display range of section 5.1:
// [α₀·(1−p)-quantile, (α₀·(1−p)+p)-quantile].
func ZeroQuantileAlpha(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(sorted, math.Nextafter(0, math.Inf(1)))
	return float64(idx) / float64(len(sorted))
}
