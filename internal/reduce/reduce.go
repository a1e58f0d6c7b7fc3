// Package reduce implements the display-reduction heuristics of
// section 5.1 of the paper: since the number of data items that can be
// displayed is limited by the number of pixels, the engine picks which
// distances to show using either the α-quantile (the exact way) or, for
// multi-peak distance densities, a gap heuristic that cuts between the
// groups so "the graduate differences within this group are better
// enhanced by different colors".
package reduce

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// DisplayFraction returns p = r / (n·(#sp+1)): the fraction of the n
// data items whose distances fit on a screen with r usable distance
// pixels, when the visualization shows one overall window plus one
// window per selection predicate (#sp windows), every item appearing in
// each window. The result is clamped to [0, 1].
func DisplayFraction(r, n, numPredicates int) float64 {
	if n <= 0 || r <= 0 {
		return 0
	}
	if numPredicates < 0 {
		numPredicates = 0
	}
	p := float64(r) / (float64(n) * float64(numPredicates+1))
	if p > 1 {
		return 1
	}
	return p
}

// PixelBudget converts a pixel count into a distance-value budget when
// each item occupies pixelsPerItem pixels (1, 4 or 16 per section 4.2):
// "the number of presentable data items needs to be divided by the
// corresponding factor".
func PixelBudget(pixels, pixelsPerItem int) int {
	if pixelsPerItem < 1 {
		pixelsPerItem = 1
	}
	return pixels / pixelsPerItem
}

// QuantileCut returns how many of the n sorted distance values to
// display for fraction p: the items within [0, p-quantile]. It is the
// item-count form of the α-quantile selection.
func QuantileCut(n int, p float64) int {
	return stats.QuantileIndex(n, p)
}

// SignedQuantileCut returns the half-open index range [lo, hi) of sorted
// signed distances to display for fraction p, per the paper's signed
// rule: values within [α₀·(1−p)-quantile, (α₀·(1−p)+p)-quantile] where
// the α₀-quantile is zero. This centers the displayed band on the sign
// change so both directions stay represented.
func SignedQuantileCut(sorted []float64, p float64) (lo, hi int) {
	n := len(sorted)
	if n == 0 || p <= 0 {
		return 0, 0
	}
	if p >= 1 {
		return 0, n
	}
	alpha0 := stats.ZeroQuantileAlpha(sorted)
	loAlpha := alpha0 * (1 - p)
	hiAlpha := loAlpha + p
	lo = stats.QuantileIndex(n, loAlpha)
	hi = stats.QuantileIndex(n, hiAlpha)
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// Items2D implements the paper's special case for the 2D arrangement:
// "In the special case of two attributes assigned to the two axis,
// correspondingly the combined α-quantiles for two dimensions may be
// used." It selects the items whose signed distances lie within the
// per-dimension signed quantile bands, growing the per-dimension
// fraction from √p by 1.25 per try (at most 32 tries, capped at 1) until
// the intersection reaches the target count ⌈p·n⌉ or the bands cover
// everything. A positive p is at least one item's share, 1/n. sortedX
// and sortedY are the non-NaN values of dx and dy in ascending order,
// ±Inf included (relevance.SortedValues). The returned indices
// preserve input order.
//
// A wider fraction widens both ends of a band, so the bands are nested
// in the try index: an item is in every band from its first admitting
// try on. One pass finds each item's first try and counts them, the
// counts give the try the growth stops at, and the selection is every
// item admitted by then.
func Items2D(dx, dy, sortedX, sortedY []float64, p float64) []int {
	n := len(dx)
	if n == 0 || len(dy) != n || p <= 0 || len(sortedX) == 0 || len(sortedY) == 0 {
		return nil
	}
	p = min(max(p, 1/float64(n)), 1)
	target := int(math.Ceil(p * float64(n)))
	var x, y bands
	for f := math.Sqrt(p); ; f = math.Min(1, f*1.25) {
		x.add(sortedX, f)
		y.add(sortedY, f)
		if f >= 1 || len(x.lo) == 32 {
			break
		}
	}
	// first[i] is item i's first admitting try; the try count for none.
	tries := len(x.lo)
	first := make([]uint8, n)
	counts := make([]int, tries+1)
	for i := range dx {
		t := max(x.first(dx[i]), y.first(dy[i]))
		first[i] = uint8(t)
		counts[t]++
	}
	stop, admitted := tries-1, 0
	for t := range tries {
		if admitted += counts[t]; admitted >= target {
			stop = t
			break
		}
	}
	var selected []int
	for i, t := range first {
		if int(t) <= stop {
			selected = append(selected, i)
		}
	}
	return selected
}

// bands are one axis's signed quantile bands, the inclusive value range
// [lo[t], hi[t]] of try t.
type bands struct{ lo, hi []float64 }

// add appends the band of fraction f over the axis's sorted sample; an
// empty cut is [+Inf, -Inf], which holds nothing.
func (b *bands) add(sorted []float64, f float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	if i, j := SignedQuantileCut(sorted, f); i < j {
		lo, hi = sorted[i], sorted[j-1]
	}
	b.lo, b.hi = append(b.lo, lo), append(b.hi, hi)
}

// first returns the first try whose band holds v, or the try count when
// none does (a NaN never is). The bands are nested, so lo is
// non-increasing and hi non-decreasing: the first try past lo's is the
// first at or after it whose hi reaches v.
func (b *bands) first(v float64) int {
	i, j := 0, len(b.lo)
	for i < j {
		if m := (i + j) / 2; b.lo[m] <= v {
			j = m
		} else {
			i = m + 1
		}
	}
	for j = len(b.hi); i < j; {
		if m := (i + j) / 2; b.hi[m] >= v {
			j = m
		} else {
			i = m + 1
		}
	}
	return i
}

// GapOptions tunes GapCut. Z is the window half-width z of the paper's
// sᵢ = Σ_{j=i−z..i+z}(dᵢ−dⱼ) statistic, with 2 < z ≪ rmax−rmin; when
// zero, a data-dependent default of max(3, (RMax−RMin)/16) is used.
type GapOptions struct {
	RMin int // fewest distances the user wants displayed
	RMax int // most distances the user wants displayed
	Z    int
}

// GapCut implements the multi-peak heuristic of section 5.1: with the
// distances sorted ascending, it computes sᵢ = Σ_{j=i−z..i+z} (dᵢ−dⱼ)
// for each candidate cut i ∈ [RMin, RMax] and cuts where sᵢ is maximal.
// sᵢ spikes on the first item after a density gap (its window still
// contains the far-below lower group), so displaying the items before
// the argmax shows exactly the lower group. The paper's "choose the
// data item with the highest sᵢ to be the last data item that is
// displayed" places the boundary at the same gap; we return the count
// of displayed items, i.e. the argmax index itself.
//
// The sums are computed incrementally — sᵢ₊₁ reuses the window sum of
// sᵢ — giving the O(z + rmax − rmin) complexity the paper notes instead
// of the naive O(z·(rmax−rmin)).
func GapCut(sorted []float64, opt GapOptions) int {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rmin, rmax := opt.RMin, opt.RMax
	if rmin < 1 {
		rmin = 1
	}
	if rmax <= 0 || rmax > n {
		rmax = n
	}
	if rmin > rmax {
		rmin = rmax
	}
	if rmin == rmax {
		return rmin
	}
	z := opt.Z
	if z <= 0 {
		z = (rmax - rmin) / 16
		if z < 3 {
			z = 3
		}
	}
	// Sliding window [max(0,i−z), min(n−1,i+z)] sum, advanced one item
	// per candidate.
	winLo := max(0, rmin-z)
	winHi := min(n-1, rmin+z)
	var winSum float64
	for j := winLo; j <= winHi; j++ {
		winSum += sorted[j]
	}
	bestI, bestS := rmin, math.Inf(-1)
	for i := rmin; i <= rmax && i < n; i++ {
		if i > rmin {
			newLo := max(0, i-z)
			newHi := min(n-1, i+z)
			for winLo < newLo {
				winSum -= sorted[winLo]
				winLo++
			}
			for winHi < newHi {
				winHi++
				winSum += sorted[winHi]
			}
		}
		size := float64(winHi - winLo + 1)
		s := size*sorted[i] - winSum
		if s > bestS {
			bestS, bestI = s, i
		}
	}
	return bestI
}

// Cut selects how many of the sorted distances to display: the
// α-quantile count for unimodal distance densities, the gap heuristic
// when the density within the quantile-selected range is multimodal
// (figure 2b). r is the distance-value budget, n = len(sorted),
// numPredicates the count of predicate windows.
func Cut(sorted []float64, r, numPredicates int) int {
	return CutPrefix(sorted, len(sorted), r, numPredicates)
}

// CutPrefix is Cut generalized to a partially-materialized ranking:
// prefix holds the smallest len(prefix) of n total sorted distances
// (the selection path materializes only the display budget instead of
// sorting all n values). The quantile count is computed from n; only
// the gap heuristic reads values, and it never looks past roughly
// 1.25× the display budget, so a prefix of that length yields exactly
// the same cut as the full sort. A shorter prefix degrades gracefully
// by clamping the examined margin.
func CutPrefix(prefix []float64, n, r, numPredicates int) int {
	if n > 0 && len(prefix) > n {
		prefix = prefix[:n]
	}
	p := DisplayFraction(r, n, numPredicates)
	k := QuantileCut(n, p)
	if k <= 4 || k > len(prefix) {
		return k
	}
	// Examine the would-be displayed prefix plus some margin; if its
	// values split into groups — a dominant gap between consecutive
	// sorted distances (figure 2b) — prefer the gap cut, bounded to
	// [k/2, k] so the user-requested budget is respected.
	margin := k + k/4
	if margin > n {
		margin = n
	}
	if margin > len(prefix) {
		margin = len(prefix)
	}
	pre := prefix[:margin]
	span := pre[len(pre)-1] - pre[0]
	var maxGap float64
	for i := 1; i < len(pre); i++ {
		if g := pre[i] - pre[i-1]; g > maxGap {
			maxGap = g
		}
	}
	if span > 0 && maxGap > 0.25*span {
		g := GapCut(prefix, GapOptions{RMin: max(1, k/2), RMax: k})
		if g > 0 {
			return g
		}
	}
	return k
}

// SortWithIndex sorts a copy of dists ascending with NaNs pushed to the
// end, returning the sorted values and the permutation idx such that
// sorted[i] = dists[idx[i]]. This is the O(n log n) sort the paper says
// dominates query processing time.
func SortWithIndex(dists []float64) (sorted []float64, idx []int) {
	n := len(dists)
	idx = make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		da, db := dists[idx[a]], dists[idx[b]]
		aNaN, bNaN := math.IsNaN(da), math.IsNaN(db)
		switch {
		case aNaN && bNaN:
			return false
		case aNaN:
			return false // NaNs last
		case bNaN:
			return true
		default:
			return da < db
		}
	})
	sorted = make([]float64, n)
	for i, j := range idx {
		sorted[i] = dists[j]
	}
	return sorted, idx
}
