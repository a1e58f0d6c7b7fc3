package topk

import (
	"cmp"
	"math"
	"slices"
)

// This file holds the threshold-seeded streaming selection behind the
// rank-before-scale pipeline: the engine ranks raw (pre-scaled)
// combined distances, so the selection must (a) run as a stream the
// chunk-fused evaluator can feed while it skips provably-hopeless
// chunks, (b) accept a seed threshold carried over from the previous
// recalculation of a slider drag, and (c) expose the exact
// lexicographic (value, index) cut the clamp-tie resolution needs.

// Cand is one candidate of a streaming selection: a distance value and
// the item index it belongs to. The ordering over candidates is
// lexicographic — by value ascending, ties by index ascending — which
// matches the package's total order on NaN-free inputs.
type Cand struct {
	V float64
	I int
}

// lexLess orders (v1,i1) before (v2,i2): value ascending, index
// tiebreak. Inputs must be NaN-free.
func lexLess(v1 float64, i1 int, v2 float64, i2 int) bool {
	return v1 < v2 || (v1 == v2 && i1 < i2)
}

// StreamSelector collects the k lexicographically smallest (value,
// index) pairs of a stream in O(k) space. Offers beyond the current
// rejection bound are dropped; once k candidates are held the bound is
// the running k-th smallest pair, so a producer can skip whole blocks
// whose lower bound cannot beat it (block pruning).
//
// A seed bound (the previous recalculation's k-th value) activates
// rejection — and therefore block skipping — before k candidates have
// even been seen. A too-tight seed can starve the selection below k
// candidates; Finish reports that as incomplete and the caller re-runs
// unseeded (all block-skip decisions taken under a bound are only valid
// if the selection completes).
//
// The zero-ish invariants: candidates are unique by index, the bound
// never grows, and an element rejected at any point is ≥ (in lex order)
// the final k-th candidate — so the collected set always contains the
// true top-k of everything offered, when complete.
type StreamSelector struct {
	k     int
	cands []Cand
	// boundV/boundI is the lex rejection bound; boundI is MaxInt while
	// the bound is the (index-less) seed.
	boundV  float64
	boundI  int
	bounded bool
	// full marks the bound as derived from a collected k-th candidate
	// rather than the seed.
	full bool
}

// NewStreamSelector returns a selector of the k lex-smallest pairs.
// A NaN seed means unseeded; a non-NaN seed activates rejection (and
// block skipping) at (seed, +∞) immediately.
func NewStreamSelector(k int, seed float64) *StreamSelector {
	if k < 1 {
		k = 1
	}
	// One buffer for the selector's life: no trigger() exceeds 2k+64.
	s := &StreamSelector{k: k, boundI: math.MaxInt, cands: make([]Cand, 0, 2*k+64)}
	if !math.IsNaN(seed) {
		s.boundV, s.bounded = seed, true
	}
	return s
}

// Bound returns the current lex rejection bound. ok is false while no
// bound is active (unseeded and fewer than k candidates compacted), in
// which case nothing may be skipped.
func (s *StreamSelector) Bound() (v float64, i int, ok bool) {
	return s.boundV, s.boundI, s.bounded
}

// OfferSlice streams a chunk of values whose indices are base, base+1,
// ... — the fused evaluator's per-chunk feed. NaN values are ignored
// (NaN distances rank after every candidate and are resolved by the
// caller's tie fill).
//
// It is a compacting filter, not a loop of tests: every value is stored
// at the buffer's end and the end advances by 0 or 1, because on a
// vector in generation order "does this value beat the bound" is a
// branch the predictor loses (half of the first 2k values, a tenth of
// the rest, at random). The bound only moves in compact, and the buffer
// can only reach trigger() on the last of trigger() − len values, so
// each batch of that many runs under one bound and compacts where the
// element-at-a-time loop would: the same candidates, the same bounds.
func (s *StreamSelector) OfferSlice(vals []float64, base int) {
	for len(vals) > 0 {
		n := len(s.cands)
		batch := vals[:min(len(vals), s.trigger()-n)]
		buf := s.cands[:n+len(batch)]
		if s.bounded {
			bv, bi := s.boundV, s.boundI
			for off, v := range batch {
				i := base + off
				buf[n] = Cand{V: v, I: i}
				n += b2i(v < bv) | b2i(v == bv)&b2i(i < bi)
			}
		} else {
			for off, v := range batch {
				buf[n] = Cand{V: v, I: base + off}
				n += b2i(v == v)
			}
		}
		s.cands = buf[:n]
		if n >= s.trigger() {
			s.compact()
		}
		vals, base = vals[len(batch):], base+len(batch)
	}
}

// b2i is 1 for true and 0 for false; the compiler turns it into a
// flag-to-register move, not a jump.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// trigger is the buffer length that forces a compaction: enough slack
// past k that compaction cost amortizes to O(1) per offer. While the
// bound is still the index-less seed the first compaction comes at k+1:
// a seed that admits between k and 2k candidates (a selection saturated
// with exact answers under seed 0) would otherwise never install an
// indexed bound, and (seed, MaxInt) beats no chunk whose minimum equals
// the seed — the seeded pass would prune nothing where an unseeded one
// prunes.
func (s *StreamSelector) trigger() int {
	if s.bounded && !s.full {
		return s.k + 1
	}
	t := 2 * s.k
	if t < 64 {
		t = 64
	}
	return t
}

// compact reduces the buffer to the k lex-smallest candidates and
// tightens the bound to the k-th. (value, index) keys are distinct, so
// exactly k survive.
func (s *StreamSelector) compact() {
	if len(s.cands) <= s.k {
		return
	}
	kth := selectCandLex(s.cands, s.k)
	// Partition kept ≤ kth to the front (selectCandLex already did).
	s.cands = s.cands[:s.k]
	s.boundV, s.boundI, s.bounded, s.full = kth.V, kth.I, true, true
}

// Finish returns the collected candidates (unsorted), the k-th
// lex-smallest pair, and whether the selection completed (k candidates
// collected). Incomplete selections happen when fewer than k
// comparable values were offered — or when a seed rejected too much;
// the caller distinguishes the two by whether it skipped anything.
func (s *StreamSelector) Finish() (cands []Cand, kth Cand, complete bool) {
	s.compact()
	if len(s.cands) < s.k {
		return s.cands, Cand{V: math.NaN(), I: -1}, false
	}
	if !s.full {
		kth = selectCandLex(s.cands, s.k)
		s.boundV, s.boundI, s.bounded, s.full = kth.V, kth.I, true, true
	}
	return s.cands, Cand{V: s.boundV, I: s.boundI}, true
}

// selectCandLex partially sorts cands so cands[:k] are the k
// lex-smallest and returns the k-th (largest of the kept). Expected
// O(len) quickselect; keys are distinct so it cannot degenerate.
func selectCandLex(cands []Cand, k int) Cand {
	lo, hi := 0, len(cands)
	for hi-lo > 16 {
		// Median-of-three pivot.
		mid := lo + (hi-lo)/2
		if candLess(cands[mid], cands[lo]) {
			cands[mid], cands[lo] = cands[lo], cands[mid]
		}
		if candLess(cands[hi-1], cands[mid]) {
			cands[hi-1], cands[mid] = cands[mid], cands[hi-1]
			if candLess(cands[mid], cands[lo]) {
				cands[mid], cands[lo] = cands[lo], cands[mid]
			}
		}
		cands[mid], cands[hi-1] = cands[hi-1], cands[mid]
		pv := cands[hi-1]
		store := lo
		for i := lo; i < hi-1; i++ {
			if candLess(cands[i], pv) {
				cands[i], cands[store] = cands[store], cands[i]
				store++
			}
		}
		cands[store], cands[hi-1] = cands[hi-1], cands[store]
		switch {
		case store < k-1:
			lo = store + 1
		case store > k-1:
			hi = store
		default:
			return cands[k-1]
		}
	}
	slices.SortFunc(cands[lo:hi], compareCand)
	return cands[k-1]
}

func candLess(a, b Cand) bool { return lexLess(a.V, a.I, b.V, b.I) }

// compareCand is candLess as a slices.SortFunc comparator: by value,
// ties by index.
func compareCand(a, b Cand) int {
	if c := cmp.Compare(a.V, b.V); c != 0 {
		return c
	}
	return cmp.Compare(a.I, b.I)
}

// --- Monotone preimage search -----------------------------------------

// ordOf maps a float64 onto a uint64 whose unsigned order matches the
// float order from -Inf to +Inf (the standard total-order bit trick).
// NaNs are excluded by the callers.
func ordOf(f float64) uint64 {
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | (1 << 63)
}

// floatOf inverts ordOf.
func floatOf(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// SupWhere returns the largest x in [lo, hi] (endpoints included, ±Inf
// allowed) with pred(x) true, assuming pred is monotone non-increasing
// over the interval (true on a prefix, false beyond). It returns NaN
// when pred(lo) is already false. The search bisects the float64 bit
// space, so it is exact: SupWhere(p, lo, hi) is the last representable
// value satisfying p.
//
// This is the clamp-tie resolver of the rank-before-scale pipeline:
// with pred(x) = "scaled(x) ≤ s" (or "< s") over a monotone scaling
// transform, SupWhere yields the exact raw-domain boundary of the tie
// class that scales to s.
func SupWhere(pred func(float64) bool, lo, hi float64) float64 {
	if !pred(lo) {
		return math.NaN()
	}
	if pred(hi) {
		return hi
	}
	// Invariant: pred(floatOf(l)) true, pred(floatOf(h)) false.
	l, h := ordOf(lo), ordOf(hi)
	for h-l > 1 {
		m := l + (h-l)/2
		if pred(floatOf(m)) {
			l = m
		} else {
			h = m
		}
	}
	return floatOf(l)
}
