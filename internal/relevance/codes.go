package relevance

import (
	"bytes"
	"math"
	"slices"
	"sync"

	"repro/internal/topk"
)

// This file holds the filter half of the rank-before-scale ranking's
// filter-and-refine (the VA-file of Weber, Schek & Blott, VLDB 1998): a
// byte-code plane beside every cached vector, and the row filter that
// bounds the root's raw value of every row from its children's codes.

// Codes is the code plane of one vector: a byte per row naming the
// row's class, and per class a raw interval [lo, hi] that holds every
// row of it. The classes are -Inf, the finite minimum (a range leaf's
// exact answers, often most of its rows), codeBuckets equal-width
// buckets (orderstats.go's buckets) over the rest of the finite span,
// +Inf and NaN; every class but a bucket is one value, its interval
// exact. A plane is built where its vector is born — a leaf by its
// compute, an interior vector by the pass that fills it, a vector
// another process computed by the fill that admits it — and codes
// exactly that vector. Per code it counts the rows, which answer the
// vector's normalization ranges (Range).
type Codes struct {
	codes  []uint8
	least  []uint8 // per evaluator chunk of rows, its least code
	enc    codeEncoder
	lo, hi [256]float64
	mu     sync.Mutex // guards counts while runs of chunks are coded
	counts [256]int32
}

// The codes of the reserved classes; the buckets run from codeBucket0.
const (
	codeNegInf  = 0
	codeMin     = 1
	codeBucket0 = 2
	codeBuckets = 252
	codePosInf  = 254
	codeNaN     = 255
)

// Bytes is what the plane retains: a byte per row, one per chunk, the
// two tables and the counts.
func (cp *Codes) Bytes() int64 { return int64(len(cp.codes) + len(cp.least) + 2*8*256 + 4*256) }

// Chunks is how many evaluator chunks of rows the plane codes.
func (cp *Codes) Chunks() int { return len(cp.least) }

// BuildCodes codes v over its finite extremes.
func BuildCodes(v []float64) *Codes {
	lo, hi := FiniteExtremes(v)
	cp := NewCodes(len(v), lo, hi)
	cp.Encode(v, 0, cp.Chunks())
	return cp
}

// NewCodes is the plane of a vector of n rows whose finite values lie in
// [lo, hi], its rows not yet coded: Encode codes them a run of chunks at
// a time, and disjoint runs may be coded concurrently. The rows equal to
// lo are the minimum's class; a producer that knows its vector's
// extremes (a range leaf's kernel, an interior node's pass) passes them
// and saves BuildCodes' pass over the vector. lo must be the least
// finite value, or a bound below them all that is not below 0 (a range
// leaf with no exact answer).
func NewCodes(n int, lo, hi float64) *Codes {
	cp := &Codes{codes: make([]uint8, n), least: make([]uint8, (n+evalChunk-1)/evalChunk),
		enc: newCodeEncoder(lo, hi)}
	cp.enc.bounds(&cp.lo, &cp.hi)
	return cp
}

// Encode codes the rows of evaluator chunks [c0, c1) of v and adds
// their per-code counts to the plane's. A chunk's least code is its
// first counted one.
func (cp *Codes) Encode(v []float64, c0, c1 int) {
	var counts [256]int32
	for c := c0; c < c1; c++ {
		lo, hi := c*evalChunk, min((c+1)*evalChunk, len(v))
		dst := cp.codes[lo:hi]
		cp.enc.encode(dst, v[lo:hi])
		var h [256]int32
		for _, x := range dst {
			h[x]++
		}
		least := -1
		for x, n := range h {
			if least < 0 && n > 0 {
				least = x
			}
			counts[x] += n
		}
		cp.least[c] = uint8(least)
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	for x, n := range counts {
		cp.counts[x] += n
	}
}

// Range answers NormRange(v, keep) for the vector v the plane codes, bit
// for bit, from the per-code counts: they give the finite count, and the
// minimum's class answers the range's minimum and, when keep reaches no
// further, its maximum. Else the counts name the code the keep-th
// smallest finite value falls into (codes are ordered like their
// values); a code of under an eighth of the rows is gathered, a run of
// bytes at a time, for the selection, and a denser one (a column too
// skewed for equal-width buckets) answers by NormRange.
// A nil plane, or one of another vector, answers by NormRange. scanned
// reports a pass over v: the gather, or NormRange. A zero answer carries
// the sign of v's first zero, as NormRange's does.
func (cp *Codes) Range(v []float64, keep int) (p NormParams, scanned bool) {
	if cp == nil || len(cp.codes) != len(v) {
		return NormRange(v, keep), true
	}
	nFinite := 0
	for _, c := range cp.counts[codeMin:codePosInf] {
		nFinite += int(c)
	}
	mn, mins := cp.enc.mn, int(cp.counts[codeMin])
	switch {
	case nFinite == 0:
		return NormParams{NoFinite: true}, false
	case mins == 0:
		mn = math.Inf(1) // every finite value lies above lo ≥ 0: the range starts at +0
	case mn == 0:
		mn = v[bytes.IndexByte(cp.codes, codeMin)]
	}
	p = baseParams(nFinite, mn, keep)
	if p.Kept <= mins {
		p.DMax = mn
		return p, false
	}
	before, c := mins, codeBucket0
	for ; before+int(cp.counts[c]) < p.Kept; c++ {
		before += int(cp.counts[c])
	}
	m := int(cp.counts[c])
	if m*8 >= len(v) {
		return NormRange(v, keep), true
	}
	vals := make([]float64, 0, m)
	for i := 0; ; i++ {
		j := bytes.IndexByte(cp.codes[i:], uint8(c))
		if j < 0 {
			break
		}
		i += j
		vals = append(vals, v[i])
	}
	p.DMax = rangeOf(scanRange(vals, 0, len(vals)), vals, p.Kept-before).DMax
	return p, true
}

// FiniteExtremes returns the least and the greatest finite value of v
// (+Inf and -Inf when it has none).
func FiniteExtremes(v []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range v {
		if math.Float64bits(x)&expMask == expMask {
			continue
		}
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// expMask is all ones in a NaN or an infinity, and in nothing else;
// below it in magnitude lie the finite values.
const (
	expMask = 0x7FF << 52
	signBit = 1 << 63
)

// codeEncoder maps values onto codes over bounds [mn, mx] on a vector's
// finite values.
type codeEncoder struct {
	mn, mx float64 // 0, 0 when there is no finite value
	b      buckets // codeBuckets over [mn, mx]; scale 0 when undividable
}

func newCodeEncoder(mn, mx float64) codeEncoder {
	if mn > mx { // no finite value
		mn, mx = 0, 0
	}
	b, ok := newBuckets(mn, mx, codeBuckets)
	if !ok {
		b.scale = 0 // a single value, or a span too wide: one bucket
	}
	return codeEncoder{mn: mn, mx: mx, b: b}
}

// encode writes the codes of src to dst. It branches on nothing a row's
// value decides: which class a value of a column in generation order
// falls into is a coin flip (a range leaf's exact answers against the
// rest), so the class is selected — the bucket of every value, then the
// minimum's code by a mask. A NaN or an infinity, rare, makes it code
// src again with masks for their codes too.
func (e codeEncoder) encode(dst []uint8, src []float64) {
	mn, blo, scale, top := e.mn, e.b.lo, e.b.scale, uint(e.b.n-1)
	dst = dst[:len(src)]
	special := 0
	for i, v := range src {
		// Unsigned, the clamp to the last bucket also takes whatever a
		// NaN or an infinity converts to.
		c := codeBucket0 + int(min(uint(int((v-blo)*scale)), top))
		dst[i] = uint8(c ^ (c^codeMin)&-b2i(v == mn))
		special += b2i(math.Float64bits(v)&expMask == expMask)
	}
	if special == 0 {
		return
	}
	for i, v := range src {
		bits := math.Float64bits(v)
		n := b2i(bits&^signBit > expMask)
		s := codePosInf&^-(int(bits>>63)&^n) + n // -Inf 0, +Inf 254, NaN 255
		c := int(dst[i])
		dst[i] = uint8(c ^ (c^s)&-b2i(bits&^signBit >= expMask))
	}
}

// bounds writes every code's raw interval: a reserved class is one
// value; a bucket holds the values above the minimum whose bucket
// arithmetic lands in it, so its edges, widened past that arithmetic's
// rounding (a millionth of a bucket, and a relative 1e-12 against
// cancellation) and clipped to (mn, mx], hold every one of them.
func (e codeEncoder) bounds(lo, hi *[256]float64) {
	w := 1 / e.b.scale
	above := math.Nextafter(e.mn, math.Inf(1))
	for b := 0; b < codeBuckets; b++ {
		l, h := math.Inf(-1), math.Inf(1) // one bucket: (mn, mx]
		if e.b.scale != 0 {
			l, h = e.b.lo+float64(b)*w, e.b.lo+float64(b+1)*w
			l -= 1e-6*w + 1e-12*math.Abs(l)
			h += 1e-6*w + 1e-12*math.Abs(h)
		}
		lo[codeBucket0+b], hi[codeBucket0+b] = max(l, above), min(h, e.mx)
	}
	lo[codeNegInf], hi[codeNegInf] = math.Inf(-1), math.Inf(-1)
	lo[codeMin], hi[codeMin] = e.mn, e.mn
	lo[codePosInf], hi[codePosInf] = math.Inf(1), math.Inf(1)
	lo[codeNaN], hi[codeNaN] = math.NaN(), math.NaN()
}

// b2i is 1 for true and 0 for false; the compiler turns it into a
// flag-to-register move, not a jump.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// The class bits of an OR child's code: the code holds NaN, or its
// scaled values may be (or all are) the exact zero that decides an OR.
const (
	flagNaN = 1 << iota
	flagMayZero
	flagMustZero
)

// rowFilter bounds the raw root value of every row from the code planes
// of the root's children. Per child, each code's raw [lo, hi] is mapped
// through the child's params and weight onto the bounds of the term the
// kernel folds in for it; a row's bounds fold its codes' terms with the
// kernel's own operations in its own order — a sum from 0, or for OR a
// product from 1 — and every one of them rounds monotonically, so the
// bounds hold the exact value. A term math.Pow computes gets a relative
// margin, as Pow is not monotone to the last ulp. A leaf root is one
// child whose terms are its codes' raw intervals.
//
// OR decides zeros and NaNs apart from the product: a row is 0 when a
// child of positive weight scales to 0, else NaN when a child is NaN.
// Without a NaN row in any child a zero term zeroes the product. With
// one, the NaN code's terms are 1 and per row the class bits of its codes
// decide: NaN unless it may be zero (lower) or must be (upper). A row
// that may be NaN or zero has lower bound 0 and upper bound NaN, so it is
// refined but never counted towards the cut.
type rowFilter struct {
	codes  [][]uint8
	least  [][]uint8 // per child, Codes.least
	lo, hi [][256]float64
	or     bool
	nan    bool // a child has a NaN row
	flags  [][256]uint8
	fl     []uint8 // the class bits of the rows the last fill bounded
	// ex marks per child the codes whose term is one value (exTerm) and
	// the OR codes that decide a zero (exZero): a row is exact when all
	// of its terms are, or one of its codes decides the zero.
	ex [][256]uint8
}

const (
	exTerm = 1 << iota
	exZero
)

// newRowFilter builds the filter of a deferred root.
func (rd *rootDefer) newRowFilter() *rowFilter {
	if rd.cb == nil {
		// A leaf root's -Inf rows are bounded above by the finite minimum,
		// so that no upper bound is -Inf (see cutHist).
		cp := codesOf(rd.node, rd.out)
		f := &rowFilter{codes: [][]uint8{cp.codes}, least: [][]uint8{cp.least}, lo: [][256]float64{cp.lo},
			hi: [][256]float64{cp.hi}, nan: bytes.IndexByte(cp.codes, codeNaN) >= 0}
		f.hi[0][codeNegInf] = cp.lo[codeMin]
		return f
	}
	cb := rd.cb
	m := len(cb.raw)
	f := &rowFilter{codes: make([][]uint8, m), least: make([][]uint8, m), lo: make([][256]float64, m),
		hi: make([][256]float64, m), or: cb.combiner == cmbOr, ex: make([][256]uint8, m)}
	cps := make([]*Codes, m)
	for j, raw := range cb.raw {
		cps[j] = codesOf(rd.node.Children[j], raw)
		f.nan = f.nan || bytes.IndexByte(cps[j].codes, codeNaN) >= 0
	}
	hasFlags := f.or && f.nan
	if hasFlags {
		f.flags, f.fl = make([][256]uint8, m), make([]uint8, evalChunk)
	}
	for j, cp := range cps {
		f.codes[j], f.least[j] = cp.codes, cp.least
		p, w := cb.params[j], cb.ws[j]
		for c := range cp.lo {
			slo, shi := p.Apply(cp.lo[c]), p.Apply(cp.hi[c])
			f.lo[j][c], f.hi[j][c] = cb.term(slo, w, -1), cb.term(shi, w, 1)
			if f.lo[j][c] == f.hi[j][c] {
				f.ex[j][c] = exTerm
			}
			switch {
			case !hasFlags:
				if f.or && w > 0 && shi == 0 {
					f.ex[j][c] |= exZero
				}
			case slo != slo:
				f.lo[j][c], f.hi[j][c], f.flags[j][c], f.ex[j][c] = 1, 1, flagNaN, 0
			case w > 0 && shi == 0:
				f.flags[j][c], f.ex[j][c] = flagMayZero|flagMustZero, exTerm|exZero
			case w > 0 && slo == 0:
				f.flags[j][c] = flagMayZero
			}
		}
	}
	return f
}

// codesOf is node's code plane, built on the spot when the caller gave
// it none (or one of another length).
func codesOf(node *Node, raw []float64) *Codes {
	if cp := node.Codes; cp != nil && len(cp.codes) == len(raw) {
		return cp
	}
	return BuildCodes(raw)
}

// term bounds what the kernel folds in for one child's scaled value s
// of weight w, rounded away from the exact value in direction dir when
// math.Pow computes it.
func (cb *combine) term(s, w float64, dir float64) float64 {
	var t float64
	pow := false
	switch cb.combiner {
	case cmbAnd:
		t = w * s
	case cmbLp:
		if cb.lpP == 2 {
			t = w * (s * s)
		} else {
			t, pow = w*math.Pow(math.Abs(s), cb.lpP), true
		}
	case cmbOr:
		switch w {
		case 0:
			t = 1
		case 1:
			t = s
		case 2:
			t = s * s
		case 3:
			t = s * s * s
		default:
			t, pow = math.Pow(s, w), true
		}
	}
	if pow && t > 0 {
		t = math.Nextafter(t*(1+dir*1e-9), dir*math.Inf(1))
	}
	return t
}

// fill writes the bounds of rows [lo, lo+len(dst)) to dst — the upper
// ones when up, else the lower ones. len(dst) is at most evalChunk.
func (f *rowFilter) fill(dst []float64, lo int, up bool) {
	tabs := f.lo
	if up {
		tabs = f.hi
	}
	t0, c0 := &tabs[0], f.codes[0][lo:lo+len(dst)]
	if len(tabs) == 2 && f.flags == nil {
		// The common root, row by row in one pass: the fold's first step,
		// 0 + t or 1 · t, is t (up to a zero's sign).
		t1, c1 := &tabs[1], f.codes[1][lo:lo+len(dst)]
		if f.or {
			for i, c := range c0 {
				dst[i] = t0[c] * t1[c1[i]]
			}
		} else {
			for i, c := range c0 {
				dst[i] = t0[c] + t1[c1[i]]
			}
		}
		return
	}
	for i, c := range c0 {
		dst[i] = t0[c]
	}
	for j := 1; j < len(tabs); j++ {
		t, cs := &tabs[j], f.codes[j][lo:lo+len(dst)]
		if f.or {
			for i, c := range cs {
				dst[i] *= t[c]
			}
		} else {
			for i, c := range cs {
				dst[i] += t[c]
			}
		}
	}
	if f.flags == nil {
		return
	}
	// OR with a NaN child: fold the rows' class bits, and a row is NaN
	// unless it may be zero (lower) or must be (upper).
	mask := uint8(flagNaN | flagMayZero)
	if up {
		mask = flagNaN | flagMustZero
	}
	fl := f.fl[:len(dst)]
	clear(fl)
	for j, ft := range f.flags {
		for i, c := range f.codes[j][lo : lo+len(dst)] {
			fl[i] |= ft[c]
		}
	}
	for i, x := range fl {
		if x&mask == flagNaN {
			dst[i] = math.NaN()
		}
	}
}

// chunkLeast bounds every bound of evaluator chunk ci in tabs (f.lo or
// f.hi) from below: the fold of its children's least codes' terms, as
// codes are ordered like their values. Only without a NaN row in any
// child (the NaN code comes last, but an OR's class bits would not fold).
func (f *rowFilter) chunkLeast(tabs [][256]float64, ci int) float64 {
	x := tabs[0][f.least[0][ci]]
	for j := 1; j < len(tabs); j++ {
		if t := tabs[j][f.least[j][ci]]; f.or {
			x *= t
		} else {
			x += t
		}
	}
	return x
}

// open writes to dst per row of the last fill 1 when its codes leave it
// NaN or zero — its lower bound 0, its upper NaN — and else 0.
func (f *rowFilter) open(dst []uint8) {
	if f.flags == nil {
		clear(dst)
		return
	}
	for i, x := range f.fl[:len(dst)] {
		dst[i] = uint8(b2i(x&(flagNaN|flagMayZero|flagMustZero) == flagNaN|flagMayZero))
	}
}

// exact reports whether the bounds of row i meet, so that its lower
// bound is its exact value up to a zero's sign.
func (f *rowFilter) exact(i int) bool {
	all, any := uint8(exTerm), uint8(0)
	for j, codes := range f.codes {
		e := f.ex[j][codes[i]]
		all, any = all&e, any|e
	}
	return all != 0 || any&exZero != 0
}

// anyLower reports whether the lower bound of one of the n rows lies in
// (lo, hi], filling them into buf a block at a time — unless lo ≥ 0 and
// hi lies below the least positive bound the terms can fold to: the
// least positive term of any child for a sum of non-negative terms,
// their product for a product.
func (f *rowFilter) anyLower(n int, lo, hi float64, buf []float64) bool {
	least := 1.0
	if !f.or {
		least = math.Inf(1)
	}
	for j := range f.lo {
		pos := math.Inf(1)
		for _, t := range f.lo[j] {
			if t > 0 {
				pos = min(pos, t)
			}
		}
		if f.or {
			least *= pos
		} else {
			least = min(least, pos)
		}
	}
	if lo >= 0 && hi < least {
		return false
	}
	for a := 0; a < n; a += len(buf) {
		l := buf[:min(len(buf), n-a)]
		f.fill(l, a, false)
		for _, x := range l {
			if x > lo && x <= hi {
				return true
			}
		}
	}
	return false
}

// span returns bounds on every finite upper bound fill writes: per
// child the extremes of its finite upper terms, folded like fill folds.
func (f *rowFilter) span() (lo, hi float64) {
	if f.or {
		lo, hi = 1, 1
	}
	for j := range f.hi {
		mn, mx := math.Inf(1), math.Inf(-1)
		for _, t := range f.hi[j] {
			if math.Float64bits(t)&expMask != expMask {
				mn, mx = min(mn, t), max(mx, t)
			}
		}
		switch {
		case mn > mx: // no finite term: no finite bound either
		case f.or:
			lo, hi = lo*mn, hi*mx
		default:
			lo, hi = lo+mn, hi+mx
		}
	}
	return lo, hi
}

// cutBuckets is how many equal-width buckets the upper bounds are
// counted in: the counts stay in L1, and the crossing bucket of a smooth
// 200k vector holds about 50 rows.
const cutBuckets = 4096

// cutHist counts values in cutBuckets equal-width buckets over [lo, hi],
// which hold every finite value but +Inf, and an overflow bucket last,
// which holds hi itself, +Inf and NaN: the slot of a value is selected
// from its bucket with one clamp, as a NaN or an infinity converts to
// something the unsigned clamp takes. Alternate values count in two
// arrays, so that a run of values in one slot (a class exact in every
// child) does not wait on its own count.
type cutHist struct {
	b      buckets
	counts [2][cutBuckets + 1]int32
}

func newCutHist(lo, hi float64) *cutHist {
	h := &cutHist{}
	var ok bool
	if h.b, ok = newBuckets(lo, hi, cutBuckets); !ok {
		h.b.scale = 0 // one value, or a span too wide: one bucket
	}
	return h
}

func (h *cutHist) slot(x float64) uint {
	return min(uint(int((x-h.b.lo)*h.b.scale)), cutBuckets)
}

// add counts the values of u.
func (h *cutHist) add(u []float64) {
	c0, c1 := &h.counts[0], &h.counts[1]
	if len(u)%2 == 1 {
		c0[h.slot(u[0])]++
		u = u[1:]
	}
	for i := 0; i < len(u); i += 2 {
		c0[h.slot(u[i])]++
		c1[h.slot(u[i+1])]++
	}
}

func (h *cutHist) count(s uint) int { return int(h.counts[0][s] + h.counts[1][s]) }

// below counts the values in slots below x's: all of them less than x.
func (h *cutHist) below(x float64) int {
	c := 0
	for s := range h.slot(x) {
		c += h.count(s)
	}
	return c
}

// cut returns the lexicographic K-th smallest (upper bound, index) pair
// over the rows of the evaluator chunks h counted, ascending: the counts
// find the slot the K-th falls into, and fill brings the chunks' bounds
// back, a block at a time into buf. Often the slot is one value tied across many rows (a class
// exact in every child): if every row of the slot equals its first,
// counted by a branch-free pass, the pair is the need-th of them. Else a
// selection over the slot's rows finds it.
// (+Inf, MaxInt) when fewer than K bounds are not NaN.
func (f *rowFilter) cut(h *cutHist, chunks []int, n, K int, buf []float64) (T float64, iT int) {
	s, before := uint(0), 0
	for ; s < cutBuckets && before+h.count(s) < K; s++ {
		before += h.count(s)
	}
	rows, need := h.count(s), K-before
	if rows < need {
		return math.Inf(1), math.MaxInt
	}
	var los []int // the blocks' first rows
	for _, c := range chunks {
		for lo := c * evalChunk; lo < min((c+1)*evalChunk, n); lo += len(buf) {
			los = append(los, lo)
		}
	}
	block := func(lo int) []float64 {
		u := buf[:min(len(buf), n-lo)]
		f.fill(u, lo, true)
		return u
	}
	v0 := math.NaN() // the slot's first value
	for _, lo := range los {
		if j := slices.IndexFunc(block(lo), func(x float64) bool { return h.slot(x) == s }); j >= 0 {
			v0 = buf[j]
			break
		}
	}
	per, eq := make([]int, len(los)), 0
	for b, lo := range los {
		c := 0
		for _, x := range block(lo) {
			c += b2i(x == v0)
		}
		per[b], eq = c, eq+c
	}
	if eq == rows { // one value (not NaN: a NaN equals nothing)
		for b, c := range per {
			if c < need {
				need -= c
				continue
			}
			for t, x := range block(los[b]) {
				if x == v0 {
					if need--; need == 0 {
						return v0, los[b] + t
					}
				}
			}
		}
	}
	var vals []float64
	var idx []int
	for _, lo := range los {
		for t, x := range block(lo) {
			if h.slot(x) == s {
				vals, idx = append(vals, x), append(idx, lo+t)
			}
		}
	}
	if T = topk.Threshold(slices.Clone(vals), need); T != T {
		return math.Inf(1), math.MaxInt
	}
	for _, x := range vals {
		need -= b2i(x < T)
	}
	for j, x := range vals {
		if x == T {
			if need--; need == 0 {
				return T, idx[j]
			}
		}
	}
	return T, math.MaxInt // unreachable: the slot holds the K-th
}
