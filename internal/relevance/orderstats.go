package relevance

import (
	"math"
	"sort"

	"repro/internal/topk"
)

// Exact, linear-time order statistics over a vector's finite values —
// a leaf's distances or an interior node's raw combined vector. One
// monotone equal-width bucket function — values in a lower bucket are
// strictly smaller, equal values share a bucket — lets per-bucket counts
// localize any rank to one bucket (kthFinite) and a scatter into bucket
// order leave only the inside of each bucket to sort (sortFinite).
// Bucketing decides what an answer costs, never its value.

// buckets maps the values of [lo, hi] onto n equal-width buckets.
type buckets struct {
	lo, scale float64
	n         int
}

// newBuckets reports ok = false for a span it cannot divide: zero,
// overflowing (extremes near ±MaxFloat64), or so small the scale does.
func newBuckets(lo, hi float64, n int) (buckets, bool) {
	scale := float64(n) / (hi - lo)
	return buckets{lo, scale, n}, scale > 0 && scale <= math.MaxFloat64
}

// of returns the bucket of v, lo <= v <= hi. Monotone: every IEEE
// operation here rounds monotonically and truncation preserves order.
func (b buckets) of(v float64) int { return min(int((v-b.lo)*b.scale), b.n-1) }

const (
	selectBuckets = 4096 // kthFinite's counts stay in L1; ~50 values per bucket of a smooth 200k leaf
	bucketFill    = 8    // sortFinite's mean values per bucket
	insertionMax  = 32   // largest bucket that insertion sort finishes
	kernelMin     = 1024 // shorter vectors go straight to the comparison-based selection
	kernelDepth   = 3    // re-bucketing levels before adversarial spacing gets the same
)

// kthFinite returns the k-th smallest (1-based, k < st.nFinite) finite
// value of dists, which st scanned. dists is not modified.
func kthFinite(st rangeScan, dists []float64, k int) float64 {
	vals, lo, hi, depth := dists, st.minFinite, st.maxFinite, 0
	for ; depth < kernelDepth && len(vals) >= kernelMin; depth++ {
		bk, ok := newBuckets(lo, hi, selectBuckets)
		if !ok {
			break
		}
		// lo <= v <= hi holds exactly for the finite values. Ties of the
		// minimum (a range predicate's spike of exact zeros) answer every
		// rank inside them from this one pass.
		var counts [selectBuckets]int32
		ties := 0
		for _, v := range vals {
			if v >= lo && v <= hi {
				counts[bk.of(v)]++
				if v == lo {
					ties++
				}
			}
		}
		if k <= ties {
			return lo
		}
		beta := 0
		for ; k > int(counts[beta]); beta++ {
			k -= int(counts[beta])
		}
		// Narrow to the crossing bucket and its own extremes: an outlier
		// stretching the span costs one more level, not a large selection.
		cands, mn, mx := make([]float64, 0, counts[beta]), hi, lo
		for _, v := range vals {
			if v >= lo && v <= hi && bk.of(v) == beta {
				cands = append(cands, v)
				mn, mx = min(mn, v), max(mx, v)
			}
		}
		vals, lo, hi = cands, mn, mx
	}
	if depth == 0 {
		// Threshold orders -Inf first and NaN/+Inf past the finite values:
		// rank k + #(-Inf) of an unfiltered copy.
		vals, k = append([]float64(nil), dists...), k+st.nNegInf
	}
	return topk.Threshold(vals, k)
}

// sortFinite writes the len(dst) values of src within [lo, hi] — hi
// their exact finite maximum, lo a finite lower bound — into dst in
// ascending order: count, scatter into bucket order, sort each bucket.
func sortFinite(dst, src []float64, lo, hi float64, depth int) {
	nb := len(dst) / bucketFill
	bk, ok := newBuckets(lo, hi, nb)
	if !ok || depth == kernelDepth {
		dst = dst[:0]
		for _, v := range src {
			if v >= lo && v <= hi {
				dst = append(dst, v)
			}
		}
		sort.Float64s(dst)
		return
	}
	// ends[b+2] counts bucket b; the prefix sum makes ends[b+1] its start
	// and the scatter its end, which leaves bucket b at ends[b]:ends[b+1].
	ends := make([]int32, nb+2)
	for _, v := range src {
		if v >= lo && v <= hi {
			ends[bk.of(v)+2]++
		}
	}
	for b := 2; b <= nb; b++ {
		ends[b+1] += ends[b]
	}
	for _, v := range src {
		if v >= lo && v <= hi {
			b := bk.of(v) + 1
			dst[ends[b]] = v
			ends[b]++
		}
	}
	var tmp []float64
	for b := 0; b < nb; b++ {
		a := dst[ends[b]:ends[b+1]]
		if len(a) <= insertionMax {
			for i := 1; i < len(a); i++ {
				v, j := a[i], i
				for ; j > 0 && a[j-1] > v; j-- {
					a[j] = a[j-1]
				}
				a[j] = v
			}
			continue
		}
		// Oversized: again over its own extremes, past the ties of its
		// minimum (a spike of equal values would fill bucket 0 every time).
		mn, mx, ties := a[0], a[0], 0
		for _, v := range a {
			if v < mn {
				mn = v
			} else if v > mx {
				mx = v
			}
		}
		for i, v := range a {
			if v == mn {
				a[i], a[ties] = a[ties], a[i]
				ties++
			}
		}
		if a = a[ties:]; len(a) > 0 {
			tmp = append(tmp[:0], a...)
			sortFinite(a, tmp, mn, mx, depth+1)
		}
	}
}
