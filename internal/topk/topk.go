// Package topk provides selection-based partial ranking of distance
// vectors. The paper observes that "query processing time is dominated
// by the time needed for sorting", yet only GridW×GridH·(numPreds+1)
// distance values are ever displayed — so the engine does not need the
// full O(n log n) sort of the relevance ranking, only the k smallest
// values in order. This package supplies that with an expected-O(n)
// quickselect followed by an O(k log k) sort of the selected prefix.
//
// All functions use the same total order as reduce.SortWithIndex:
// ascending by value with -Inf smallest and +Inf largest, NaN
// (uncolorable) entries after every real value, and ties between equal
// values broken by the original index. Under that order the first k
// entries of a selection are bit-identical to the first k entries of
// the full stable sort, which the property tests in this package
// assert.
package topk

import (
	"math"
	"sort"
)

// less is the package's total order over entries of d: by value
// ascending with NaNs last, ties broken by index. It matches the
// ordering of reduce.SortWithIndex (a stable sort on values with NaNs
// pushed last orders equal values — and NaNs — by original index).
func less(d []float64, a, b int) bool {
	da, db := d[a], d[b]
	aNaN, bNaN := math.IsNaN(da), math.IsNaN(db)
	switch {
	case aNaN && bNaN:
		return a < b
	case aNaN:
		return false
	case bNaN:
		return true
	case da != db:
		return da < db
	default:
		return a < b
	}
}

// SelectKWithIndex returns a permutation idx of [0, len(dists)) and the
// permuted values vals (vals[i] = dists[idx[i]]) such that the first
// min(k, n) entries are exactly the first entries of the full
// reduce.SortWithIndex ranking: the k smallest values in ascending
// order, NaNs last, ties by original index. The remaining entries are a
// permutation of the rest in unspecified (but deterministic) order.
// dists is not modified.
func SelectKWithIndex(dists []float64, k int) (vals []float64, idx []int) {
	n := len(dists)
	vals, idx = make([]float64, n), make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if k > n {
		k = n
	}
	if k > 0 {
		partitionK(dists, idx, k)
		prefix := idx[:k]
		sort.Slice(prefix, func(a, b int) bool { return less(dists, prefix[a], prefix[b]) })
	}
	for i, j := range idx {
		vals[i] = dists[j]
	}
	return vals, idx
}

// SelectK returns the min(k, len(dists)) smallest values of dists in
// ascending order (NaNs last, as in SortWithIndex). dists is not
// modified.
func SelectK(dists []float64, k int) []float64 {
	n := len(dists)
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	vals, _ := SelectKWithIndex(dists, k)
	return vals[:k:k]
}

// Threshold returns the k-th smallest value of xs (1-based) under the
// package ordering — the value a full ascending NaN-last sort would
// place at index k-1. It runs in expected O(n) time by partially
// reordering xs in place; pass a copy if the input ordering matters.
// k is clamped to [1, len(xs)]; an empty xs yields NaN.
func Threshold(xs []float64, k int) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	// Move NaNs to the tail so the numeric quickselect below sees only
	// comparable values.
	m := n
	for i := 0; i < m; {
		if math.IsNaN(xs[i]) {
			m--
			xs[i], xs[m] = xs[m], xs[i]
		} else {
			i++
		}
	}
	if k > m {
		return math.NaN() // the k-th entry falls in the NaN tail
	}
	return floatSelect(xs[:m], k)
}

// floatSelect returns the k-th smallest (1-based) of a, which must be
// NaN-free. It reorders a in place with a three-way-partition
// quickselect, so duplicate-heavy inputs stay linear.
func floatSelect(a []float64, k int) float64 {
	lo, hi := 0, len(a)
	for {
		if hi-lo <= 16 {
			sub := a[lo:hi]
			sort.Float64s(sub)
			return a[k-1]
		}
		p := medianOfThree(a[lo], a[lo+(hi-lo)/2], a[hi-1])
		// Dutch-flag partition of a[lo:hi) around p:
		// a[lo:lt) < p, a[lt:gt) == p, a[gt:hi) > p.
		lt, gt, i := lo, hi, lo
		for i < gt {
			switch {
			case a[i] < p:
				a[i], a[lt] = a[lt], a[i]
				lt++
				i++
			case a[i] > p:
				gt--
				a[i], a[gt] = a[gt], a[i]
			default:
				i++
			}
		}
		switch {
		case k-1 < lt:
			hi = lt
		case k-1 >= gt:
			lo = gt
		default:
			return p
		}
	}
}

func medianOfThree(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// partitionK reorders idx so its first k entries are the k smallest
// under less, in arbitrary order. Classic quickselect with
// median-of-three pivots; the index tiebreak makes every key distinct,
// so a binary (Lomuto) partition cannot degenerate on duplicates.
func partitionK(d []float64, idx []int, k int) {
	lo, hi := 0, len(idx)
	for hi-lo > 16 {
		if k <= lo || k >= hi {
			return
		}
		p := partitionIdx(d, idx, lo, hi)
		switch {
		case p < k:
			lo = p + 1
		case p > k:
			hi = p
		default:
			return
		}
	}
	insertionSortIdx(d, idx, lo, hi)
}

// partitionIdx partitions idx[lo:hi) around a median-of-three pivot and
// returns the pivot's final position.
func partitionIdx(d []float64, idx []int, lo, hi int) int {
	mid := lo + (hi-lo)/2
	if less(d, idx[mid], idx[lo]) {
		idx[mid], idx[lo] = idx[lo], idx[mid]
	}
	if less(d, idx[hi-1], idx[mid]) {
		idx[hi-1], idx[mid] = idx[mid], idx[hi-1]
		if less(d, idx[mid], idx[lo]) {
			idx[mid], idx[lo] = idx[lo], idx[mid]
		}
	}
	// idx[mid] is the median of the three; park it at hi-1 and sweep.
	idx[mid], idx[hi-1] = idx[hi-1], idx[mid]
	pv := idx[hi-1]
	store := lo
	for i := lo; i < hi-1; i++ {
		if less(d, idx[i], pv) {
			idx[i], idx[store] = idx[store], idx[i]
			store++
		}
	}
	idx[store], idx[hi-1] = idx[hi-1], idx[store]
	return store
}

func insertionSortIdx(d []float64, idx []int, lo, hi int) {
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && less(d, idx[j], idx[j-1]); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}
