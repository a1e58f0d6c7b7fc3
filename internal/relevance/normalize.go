// Package relevance implements the mathematical core of VisDB
// (section 5.2 of the paper): normalization of per-predicate distances
// to a fixed [0, 255] range with the reduction-first fix for outlier
// distortion, weighted combination of distances over the query's
// AND/OR structure (weighted arithmetic mean for AND, weighted geometric
// mean for OR), alternative Lp/Euclidean combiners, and the
// relevance factor as the inverse of the combined distance.
package relevance

import (
	"math"
	"slices"
	"sort"
)

// Scale is the fixed normalization range upper bound; distances map to
// [0, Scale] (the paper's [0, 255], one value per colormap level).
const Scale = 255.0

// KeepCount returns how many items determine the normalization range of
// a selection predicate with weight w given a display budget of r items:
// the paper reduces each predicate's considered items "to a number that
// is proportional to r/(n·wⱼ)" — inverse in the weight, because "the
// less a selection predicate is weighted, the higher is the probability
// that data with a greater distance for this selection predicate are
// needed". The count is clamped to [1, n]; weights below 0.05 are
// floored so a near-zero weight keeps everything rather than dividing by
// zero.
func KeepCount(r, n int, w float64) int {
	if n <= 0 {
		return 0
	}
	if r <= 0 {
		r = n
	}
	if w < 0.05 || math.IsNaN(w) {
		w = 0.05
	}
	c := int(math.Ceil(float64(r) / w))
	if c < 1 {
		c = 1
	}
	if c > n {
		c = n
	}
	return c
}

// NormParams captures a normalization transform without materializing
// the scaled vector: the source range [DMin, DMax] that maps onto
// [0, Scale] and the number of items that determined it. The fused
// evaluator computes every node's params first (cheap scans and
// selections) and applies them element-by-element inside its chunked
// combination passes.
type NormParams struct {
	DMin, DMax float64
	Kept       int
	// NoFinite marks a vector with no finite values: everything maps to
	// 0 except NaN (passes through) and +Inf (maps to Scale).
	NoFinite bool
}

// Apply scales one distance by the params, replicating Normalize's
// per-element mapping exactly: NaNs pass through (uncolorable), +Inf
// clamps to Scale, -Inf to 0, and a degenerate range maps everything at
// or below DMax to 0.
func (p NormParams) Apply(d float64) float64 {
	switch {
	case math.IsNaN(d):
		return math.NaN()
	case math.IsInf(d, 1):
		return Scale
	case p.NoFinite || math.IsInf(d, -1):
		return 0
	}
	span := p.DMax - p.DMin
	if span == 0 {
		if d > p.DMax {
			return Scale
		}
		return 0
	}
	s := (d - p.DMin) / span * Scale
	if s < 0 {
		s = 0
	}
	if s > Scale {
		s = Scale
	}
	return s
}

// applyRange scales src into dst by p — the vectorized form of Apply,
// bit-identical to it per element; dst and src may alias (in-place
// finalization of interior nodes). The root pass runs it over every
// child chunk of every step, and which side of a clamp a row falls on
// is a coin flip on a column stored in generation order: written with
// `if`s the loop mispredicts about every other row (2.5 ms per 200k
// rows and two children, against 0.5 ms for the arithmetic). So the
// clamps are selected, not branched on: the same comparisons Apply
// makes (d > DMax, s < 0, s > Scale) become all-ones masks over the
// result's bits. The one branch left in each loop is the non-finite
// test, which goes to Apply itself and is never taken on a vector
// without NaNs and infinities. (The min/max builtins would turn a -0
// into +0 where Apply keeps it, and measured slower.)
func applyRange(dst, src []float64, p NormParams) {
	scaleBits := math.Float64bits(Scale)
	if p.NoFinite {
		for i, d := range src {
			dst[i] = p.Apply(d)
		}
		return
	}
	dst = dst[:len(src)]
	span := p.DMax - p.DMin
	if span == 0 {
		for i, d := range src {
			if math.Float64bits(d)&expMask == expMask {
				dst[i] = p.Apply(d)
				continue
			}
			dst[i] = math.Float64frombits(scaleBits & -b2u(d > p.DMax))
		}
		return
	}
	for i, d := range src {
		if math.Float64bits(d)&expMask == expMask {
			dst[i] = p.Apply(d)
			continue
		}
		s := (d - p.DMin) / span * Scale
		b := math.Float64bits(s) &^ -b2u(s < 0)
		over := -b2u(s > Scale)
		dst[i] = math.Float64frombits(b&^over | scaleBits&over)
	}
}

// b2u is 1 for true and 0 for false; the compiler turns it into a
// flag-to-register move, not a jump.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// rangeScan accumulates the single-pass statistics NormRange needs:
// finite count and extremes plus the -Inf count the quickselect rank
// correction uses, and the NaN count the rank-before-scale path uses
// to attribute uncolorable items without materializing the scaled
// vector. Chunked scans merge exactly (sums, min, max are
// order-independent), so fused parallel passes stay bit-identical to
// the serial scan.
type rangeScan struct {
	nFinite, nNegInf, nNaN int
	minFinite, maxFinite   float64
}

func newRangeScan() rangeScan {
	return rangeScan{minFinite: math.Inf(1), maxFinite: math.Inf(-1)}
}

// add folds one distance into the scan.
func (s *rangeScan) add(d float64) {
	if math.IsNaN(d) || math.IsInf(d, 0) {
		if math.IsInf(d, -1) {
			s.nNegInf++
		} else if !math.IsInf(d, 1) {
			s.nNaN++
		}
		return
	}
	s.nFinite++
	if d < s.minFinite {
		s.minFinite = d
	}
	if d > s.maxFinite {
		s.maxFinite = d
	}
}

// merge folds another (disjoint) scan into s.
func (s *rangeScan) merge(o rangeScan) {
	s.nFinite += o.nFinite
	s.nNegInf += o.nNegInf
	s.nNaN += o.nNaN
	if o.minFinite < s.minFinite {
		s.minFinite = o.minFinite
	}
	if o.maxFinite > s.maxFinite {
		s.maxFinite = o.maxFinite
	}
}

// scanRange scans dists[lo:hi].
func scanRange(dists []float64, lo, hi int) rangeScan {
	s := newRangeScan()
	for _, d := range dists[lo:hi] {
		s.add(d)
	}
	return s
}

// NormRange computes the normalization params of dists with the
// reduction-first range estimation (keep smallest finite values; see
// Normalize).
func NormRange(dists []float64, keep int) NormParams {
	return rangeOf(scanRange(dists, 0, len(dists)), dists, keep)
}

// SortedValues returns the non-NaN values of dists in ascending order —
// -Inf first, +Inf last, -0 before +0 — sorted in three linear reads (a
// scan, a count, a scatter; sortFinite): the sorted sample the 2D
// arrangement's signed quantile bands read. A ranked vector's
// normalization ranges come from its code plane instead (Codes.Range).
func SortedValues(dists []float64) []float64 {
	st := scanRange(dists, 0, len(dists))
	sorted := make([]float64, len(dists)-st.nNaN)
	for i := range sorted[:st.nNegInf] {
		sorted[i] = math.Inf(-1)
	}
	for i := st.nNegInf + st.nFinite; i < len(sorted); i++ {
		sorted[i] = math.Inf(1)
	}
	finite := sorted[st.nNegInf : st.nNegInf+st.nFinite]
	sortFinite(finite, dists, st.minFinite, st.maxFinite, 0)
	// -0 and +0 compare equal and come out in input order; -0 first, so
	// that any two nodes indexing the same values encode the same bytes.
	zeros, neg := finite[sort.SearchFloat64s(finite, 0):], 0
	for i := 0; i < len(zeros) && zeros[i] == 0; i++ {
		if math.Signbit(zeros[i]) {
			zeros[i], zeros[neg] = zeros[neg], zeros[i]
			neg++
		}
	}
	return sorted
}

// baseParams answers the part of a normalization range that needs no
// selection: the clamped keep count and the range minimum.
func baseParams(nFinite int, minFinite float64, keep int) NormParams {
	if nFinite == 0 {
		return NormParams{NoFinite: true}
	}
	if keep <= 0 || keep > nFinite {
		keep = nFinite
	}
	// Distances are non-negative with 0 meaning "exactly fulfilled";
	// anchor the range at 0 so the yellow end of the colormap stays
	// reserved for correct answers — else a predicate nobody fulfills
	// would paint its best approximation yellow, where the paper sees
	// windows "almost black in cases where all the data are completely
	// wrong results". Signed inputs keep their (negative) minimum.
	return NormParams{Kept: keep, DMin: min(minFinite, 0)}
}

// rangeOf derives NormParams from a completed scan of dists, which must
// be the same full vector. The range maximum is the Kept-th smallest
// finite value, found without sorting: the scan's maximum when
// everything is kept, else the bucket-counting selection.
func rangeOf(st rangeScan, dists []float64, keep int) NormParams {
	p := baseParams(st.nFinite, st.minFinite, keep)
	switch {
	case p.NoFinite:
	case p.Kept == st.nFinite:
		p.DMax = st.maxFinite
	default:
		// A zero carries the sign of dists' first zero, as the scan's
		// extremes do: the selection meets the zeros in no fixed order.
		if p.DMax = kthFinite(st, dists, p.Kept); p.DMax == 0 {
			p.DMax = dists[slices.Index(dists, 0)]
		}
	}
	return p
}

// Normalize linearly maps dists onto [0, Scale], with the range
// [DMin, DMax] of NormRange(dists, keep) determined only by the keep
// smallest finite values — the reduction-first normalization of section
// 5.2. Without it, "a single data item with an exceptionally high or low
// value may cause a completely different transformation" that erases the
// predicate's influence on the overall answer. Values beyond DMax clamp
// to Scale; NaNs pass through (uncolorable); keep <= 0 means use every
// finite value (the naive normalization, kept for the A1 ablation).
func Normalize(dists []float64, keep int) []float64 {
	// One scan finds the finite range and counts; no filtered copy, no
	// sort — the cost the paper calls the dominating one.
	p := NormRange(dists, keep)
	out := make([]float64, len(dists))
	for i, d := range dists {
		out[i] = p.Apply(d)
	}
	return out
}

// RelevanceFactor converts a combined distance into the relevance
// factor: "the relevance factor is determined as the inverse of that
// distance value". Any strictly decreasing function yields the same
// ranking; 1/(1+D) keeps factors in (0, 1] with exact answers at 1.
// NaN distances give relevance 0 (uncolorable items rank last).
func RelevanceFactor(combined float64) float64 {
	if math.IsNaN(combined) {
		return 0
	}
	if combined < 0 {
		combined = -combined
	}
	return 1 / (1 + combined)
}

// RelevanceFactors applies RelevanceFactor elementwise.
func RelevanceFactors(combined []float64) []float64 {
	out := make([]float64, len(combined))
	for i, d := range combined {
		out[i] = RelevanceFactor(d)
	}
	return out
}
