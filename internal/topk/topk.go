// Package topk provides selection-based partial ranking of distance
// vectors. The paper observes that "query processing time is dominated
// by the time needed for sorting", yet only GridW×GridH·(numPreds+1)
// distance values are ever displayed — so the engine does not need the
// full O(n log n) sort of the relevance ranking, only the k smallest
// values in order. This package supplies that with one streaming
// selection (StreamSelector: O(n) over the vector in O(k) space)
// followed by an O(k log k) sort of the selected candidates; Threshold
// is a quickselect over plain floats.
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
	"slices"
	"sort"
)

// SelectKWithIndex returns the first min(k, len(dists)) entries of the
// reduce.SortWithIndex ranking of dists: the item indices idx and their
// values vals (vals[i] = dists[idx[i]]) — the k smallest values in
// ascending order, ties by index, NaNs last by index. It is the
// StreamSelector over the whole vector; dists is not modified.
func SelectKWithIndex(dists []float64, k int) (vals []float64, idx []int) {
	vals, idx, _ = SelectKInto(dists, k, nil, nil)
	return vals, idx
}

// SelectKInto is SelectKWithIndex into the buffers vals and idx, which
// back the returned slices when they have room for min(k, len(dists))
// entries (fresh ones back them otherwise), and it counts the NaN values
// of dists, which the selection reads anyway.
func SelectKInto(dists []float64, k int, vals []float64, idx []int) (sorted []float64, order []int, nNaN int) {
	k = min(max(k, 0), len(dists))
	if cap(vals) < k || cap(idx) < k {
		vals, idx = make([]float64, 0, k), make([]int, 0, k)
	}
	vals, idx = vals[:0], idx[:0]
	if k == 0 {
		for _, v := range dists {
			nNaN += b2i(v != v)
		}
		return vals, idx, nNaN
	}
	sel := NewStreamSelector(k, nil)
	sel.OfferSlice(dists, 0)
	cands, _, _ := sel.Finish()
	slices.SortFunc(cands, compareCand)
	for _, c := range cands {
		vals, idx = append(vals, c.V), append(idx, c.I)
	}
	// Fewer than k comparable values: the NaNs the selector ignored fill
	// the rest, and there are at least that many of them.
	for i := 0; len(idx) < k; i++ {
		if math.IsNaN(dists[i]) {
			vals, idx = append(vals, dists[i]), append(idx, i)
		}
	}
	return vals, idx, sel.nan
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
