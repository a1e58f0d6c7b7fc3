package topk

import (
	"cmp"
	"math"
	"slices"
)

// This file holds the streaming selection behind the rank-before-scale
// pipeline: the engine ranks raw (pre-scaled) combined distances of the
// rows its filter lets through, so the selection must (a) run as a
// stream of values with their item indices, and (b) expose the exact
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
// index) pairs of a stream in O(k) space. Once k candidates have been
// compacted, offers beyond the running k-th smallest pair are dropped.
//
// The invariants: candidates are unique by index, the bound never
// grows, and an element rejected at any point is ≥ (in lex order) the
// final k-th candidate — so the collected set always contains the true
// top-k of everything offered.
type StreamSelector struct {
	k     int
	cands []Cand
	// boundV/boundI is the lex rejection bound, active once bounded.
	boundV  float64
	boundI  int
	bounded bool
	nan     int // the NaN values offered
}

// NewStreamSelector returns a selector of the k lex-smallest pairs that
// collects them in buf's storage (nil: its own), which a caller that
// selects again may pass back (Finish returns it).
func NewStreamSelector(k int, buf []Cand) *StreamSelector {
	if k < 1 {
		k = 1
	}
	// An empty buffer is sized by the first batch offered, then grown
	// once to trigger() (2k+64) if more come: a selector fed fewer
	// values than that never holds room for more.
	return &StreamSelector{k: k, cands: buf[:0]}
}

// OfferSlice streams a chunk of values whose indices are base, base+1,
// ... . NaN values are ignored (NaN distances rank after every
// candidate and are resolved by the caller's tie fill).
//
// It is a compacting filter, not a loop of tests: every value is stored
// at the buffer's end and the end advances by 0 or 1, because on a
// vector in generation order "does this value beat the bound" is a
// branch the predictor loses (half of the first 2k values, a tenth of
// the rest, at random). The bound only moves in compact, and the buffer
// can only reach trigger() on the last of trigger() − len values, so
// each batch of that many runs under one bound and compacts where the
// element-at-a-time loop would: the same candidates, the same bounds.
func (s *StreamSelector) OfferSlice(vals []float64, base int) { s.offer(vals, nil, base) }

// OfferAt is OfferSlice for values whose indices are idx.
func (s *StreamSelector) OfferAt(vals []float64, idx []int) { s.offer(vals, idx, 0) }

// offer streams vals, indexed by idx or, when idx is nil, from base.
func (s *StreamSelector) offer(vals []float64, idx []int, base int) {
	for len(vals) > 0 {
		n := len(s.cands)
		m := min(len(vals), s.trigger()-n)
		batch := vals[:m]
		if cap(s.cands) < n+m {
			size := s.trigger()
			if cap(s.cands) == 0 {
				size = n + m
			}
			s.cands = slices.Grow(s.cands, size-n)
		}
		buf := s.cands[:n+m]
		nan := 0
		if s.bounded {
			bv, bi := s.boundV, s.boundI
			for off, v := range batch {
				i := base + off
				if idx != nil {
					i = idx[off]
				}
				buf[n] = Cand{V: v, I: i}
				n += b2i(v < bv) | b2i(v == bv)&b2i(i < bi)
				nan += b2i(v != v)
			}
		} else {
			for off, v := range batch {
				i := base + off
				if idx != nil {
					i = idx[off]
				}
				buf[n] = Cand{V: v, I: i}
				n += b2i(v == v)
			}
			nan += len(batch) - (n - len(s.cands))
		}
		s.cands, s.nan = buf[:n], s.nan+nan
		if n >= s.trigger() {
			s.compact()
		}
		vals, base = vals[m:], base+m
		if idx != nil {
			idx = idx[m:]
		}
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
// past k that compaction cost amortizes to O(1) per offer.
func (s *StreamSelector) trigger() int {
	return max(2*s.k, 64)
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
	s.boundV, s.boundI, s.bounded = kth.V, kth.I, true
}

// Finish returns the collected candidates (unsorted), the k-th
// lex-smallest pair, and whether the selection completed: k candidates
// collected, which fails only when fewer than k comparable values were
// offered.
func (s *StreamSelector) Finish() (cands []Cand, kth Cand, complete bool) {
	s.compact()
	if len(s.cands) < s.k {
		return s.cands, Cand{V: math.NaN(), I: -1}, false
	}
	if !s.bounded {
		kth = selectCandLex(s.cands, s.k)
		s.boundV, s.boundI, s.bounded = kth.V, kth.I, true
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
