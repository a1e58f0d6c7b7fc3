package relevance

import (
	"bytes"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/topk"
)

// This file holds the filter half of the rank-before-scale ranking's
// filter-and-refine (the VA-file of Weber, Schek & Blott, VLDB 1998): a
// byte-code plane beside every cached vector, the row filter that bounds
// the root's raw value of every row from its children's codes, and the
// PairIndex that groups a two-child root's rows by their joint code.

// Codes is the code plane of one vector: a byte per row naming the
// row's class, and per class a raw interval [lo, hi] that holds every
// row of it. The classes are -Inf, the finite minimum, codeBuckets
// equal-width buckets (orderstats.go's buckets) over the rest of the
// finite span, +Inf and NaN; every class but a bucket is one value, its
// interval exact. A plane is built where its vector is born — a leaf by
// its compute, an interior vector by the pass that fills it, a vector
// another process computed by the fill that admits it — and codes
// exactly that vector. Per code it counts the rows, which answer the
// vector's normalization ranges (Range). A range leaf's plane is a view
// of its column's (View, view.go): the column's codes and counts, its
// own intervals, and no vector — it computes its distances from the
// column plane's values.
type Codes struct {
	id     uint64 // shared by the planes of one code bytes (ID)
	codes  []uint8
	enc    codeEncoder
	lo, hi [256]float64
	mu     sync.Mutex // guards counts while runs of chunks are coded
	counts [256]int32
	// column is the column plane a range leaf's view views (nil for a
	// plane of its own): lo and hi are distance intervals, the code
	// bytes are the column's, and tgt is the target the distances are to.
	column *Codes
	tgt    viewTarget
	// vals are the values a column plane codes (NewColumnCodes), which
	// its views compute their distances from; nil on any other plane.
	vals []float64
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

// Bytes is what the plane retains: a byte per row, the two tables and
// the counts, and a column plane's values. A view retains its tables and
// counts; the code bytes and values are its column plane's (Column),
// which counts them.
func (cp *Codes) Bytes() int64 {
	b := int64(2*8*256 + 4*256)
	if cp.column == nil {
		b += int64(len(cp.codes) + 8*len(cp.vals))
	}
	return b
}

// Column is the column plane a view views, whose code bytes it shares;
// nil for a plane of its own.
func (cp *Codes) Column() *Codes { return cp.column }

// ID names the plane's code bytes among every plane the process built:
// two planes of equal ID code every row alike — one plane, or views of
// one column plane — so a structure built from the codes alone (a
// PairIndex) can be keyed by it.
func (cp *Codes) ID() uint64 { return cp.id }

// codesBuilt counts the planes built, and numbers them.
var codesBuilt atomic.Uint64

// Chunks is how many evaluator chunks of rows the plane codes.
func (cp *Codes) Chunks() int { return (len(cp.codes) + evalChunk - 1) / evalChunk }

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
	cp := &Codes{id: codesBuilt.Add(1), codes: make([]uint8, n), enc: newCodeEncoder(lo, hi)}
	cp.enc.bounds(&cp.lo, &cp.hi)
	return cp
}

// NewColumnCodes is NewCodes for the plane of a column whose values are
// vals, which it keeps: its views (View) read their rows' values there.
// Encode codes vals.
func NewColumnCodes(vals []float64, lo, hi float64) *Codes {
	cp := NewCodes(len(vals), lo, hi)
	cp.vals = vals
	return cp
}

// Encode codes the rows of evaluator chunks [c0, c1) of v and adds
// their per-code counts to the plane's.
func (cp *Codes) Encode(v []float64, c0, c1 int) {
	var counts [256]int32
	for c := c0; c < c1; c++ {
		lo, hi := c*evalChunk, min((c+1)*evalChunk, len(v))
		dst := cp.codes[lo:hi]
		cp.enc.encode(dst, v[lo:hi])
		for _, x := range dst {
			counts[x]++
		}
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
// values), and its values are gathered for the selection (gather).
// A nil plane, or one of another vector, answers by NormRange. scanned
// reports a pass over v: the gather, or NormRange. A zero answer carries
// the sign of v's first zero, as NormRange's does. A view answers by its
// intervals and its column's values (viewRange), and reads no v.
func (cp *Codes) Range(v []float64, keep int) (p NormParams, scanned bool) {
	switch {
	case cp != nil && cp.column != nil:
		return cp.viewRange(keep, func() []float64 { return make([]float64, len(cp.codes)) })
	case cp == nil || len(cp.codes) != len(v):
		return NormRange(v, keep), true
	}
	nFinite := finiteRows(&cp.counts)
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
	vals, ok := cp.gather(rawVals{v: v}, c)
	if !ok {
		return NormRange(v, keep), true
	}
	p.DMax = rangeOf(scanRange(vals, 0, len(vals)), vals, p.Kept-before).DMax
	return p, true
}

// gather returns the values of r, the values the plane codes, whose codes
// are among cs, gathered a run of bytes at a time, code after code. ok is
// false when those codes hold an eighth of the rows or more (a column too
// skewed for equal-width buckets): NormRange's scan answers then.
func (cp *Codes) gather(r rawVals, cs ...int) (vals []float64, ok bool) {
	rows := 0
	for _, c := range cs {
		rows += int(cp.counts[c])
	}
	if rows*8 >= len(cp.codes) {
		return nil, false
	}
	src := r.v
	if r.view != nil {
		src = r.view.column.vals
	}
	vals = make([]float64, 0, rows)
	for _, c := range cs {
		for i := 0; ; i++ {
			j := bytes.IndexByte(cp.codes[i:], uint8(c))
			if j < 0 {
				break
			}
			i += j
			vals = append(vals, src[i])
		}
	}
	if r.view != nil {
		r.view.tgt.distances(vals, vals)
	}
	return vals, true
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
// margin, as Pow is not monotone to the last ulp.
//
// With a PairIndex of a two-child root's planes (pairs), every row of a
// group of the index has its group's bounds, so pass one and pass two
// run over the groups (countPairs, cutPairs, keepGroups) and anyLower
// over runs of them.
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
	lo, hi [][256]float64
	or     bool
	nan    bool // a child has a NaN row
	flags  [][256]uint8
	fl     []uint8 // the class bits of the rows the last fill bounded
	// ex marks per child the codes whose term is one value (exTerm) and
	// the OR codes that decide a zero (exZero): a row is exact when all
	// of its terms are, or one of its codes decides the zero.
	ex [][256]uint8
	// pairs groups the rows of a root of two children by their codes,
	// when the root has no class bits and RankRoot's resolver gave one:
	// the filter then visits groups, not rows (rootDefer.filterPairs).
	pairs *PairIndex
	// bot is, for a root of two children without class bits, the code
	// the second child's lower (bot[0]) and upper (bot[1]) terms fall to
	// and rise from (valley), and end[b] the first code past b whose
	// upper term is not b's, bit for bit: the groups of a first code and
	// the second codes [b, end[b]) have one upper bound.
	bot [2]int
	end [257]int
}

const (
	exTerm = 1 << iota
	exZero
)

// newRowFilter builds the filter of a deferred root, grouped by the
// PairIndex pairs resolves when the root allows (RankRoot).
func (rd *rootDefer) newRowFilter(pairs func(a, b *Codes) *PairIndex) *rowFilter {
	cb := rd.cb
	m := len(cb.raw)
	f := &rowFilter{codes: make([][]uint8, m), lo: make([][256]float64, m),
		hi: make([][256]float64, m), or: cb.combiner == cmbOr, ex: make([][256]uint8, m)}
	cps := make([]*Codes, m)
	for j, raw := range cb.raw {
		cps[j] = codesOf(rd.node.Children[j], raw)
		f.nan = f.nan || cps[j].counts[codeNaN] > 0
	}
	hasFlags := f.or && f.nan
	if hasFlags {
		f.flags, f.fl = make([][256]uint8, m), make([]uint8, evalChunk)
	}
	for j, cp := range cps {
		f.codes[j] = cp.codes
		p, w := cb.params[j], cb.ws[j]
		for c := range cp.lo {
			slo, shi := p.Apply(cp.lo[c]), p.Apply(cp.hi[c])
			f.lo[j][c], f.hi[j][c] = cb.term(slo, w, -1), cb.term(shi, w, 1)
			switch {
			case !hasFlags:
				if f.or && w > 0 && shi == 0 {
					f.ex[j][c] = exZero
				}
			case slo != slo:
				f.lo[j][c], f.hi[j][c], f.flags[j][c] = 1, 1, flagNaN
			case w > 0 && shi == 0:
				f.flags[j][c], f.ex[j][c] = flagMayZero|flagMustZero, exZero
			case w > 0 && slo == 0:
				f.flags[j][c] = flagMayZero
			}
		}
	}
	grouped := m == 2 && !hasFlags && f.terms()
	if grouped {
		// The second child's terms widened to fall and then rise over its
		// codes, where they do not (a view's eps bump): every group of a
		// first code then has its bounds under a value in one run.
		valley(&f.lo[1], false)
		valley(&f.hi[1], true)
		f.shape()
	}
	for j := range cps {
		for c := range 256 {
			if f.lo[j][c] == f.hi[j][c] && (f.flags == nil || f.flags[j][c] != flagNaN) {
				f.ex[j][c] |= exTerm
			}
		}
	}
	if grouped && pairs != nil && rd.n <= math.MaxInt32 &&
		cps[0] == rd.node.Children[0].Codes && cps[1] == rd.node.Children[1].Codes {
		f.pairs = pairs(cps[0], cps[1])
	}
	return f
}

// codesOf is node's code plane, built on the spot when the caller gave
// it none (or one of another length).
func codesOf(node *Node, raw rawVals) *Codes {
	if raw.view != nil {
		return raw.view
	}
	if cp := node.Codes; cp != nil && len(cp.codes) == len(raw.v) {
		return cp
	}
	return BuildCodes(raw.v)
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

// pair is the bound of a row of a root of two children without class
// bits whose codes are c0 and c1, from tabs (f.lo or f.hi): fill's fold.
func (f *rowFilter) pair(tabs [][256]float64, c0, c1 int) float64 {
	return f.fold(tabs[0][c0], tabs[1][c1])
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
	if len(f.codes) == 2 {
		e0, e1 := f.ex[0][f.codes[0][i]], f.ex[1][f.codes[1][i]]
		return e0&e1&exTerm != 0 || (e0|e1)&exZero != 0
	}
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
	if x := f.pairs; x != nil {
		// Of a first code, the groups of a bound at most hi are a run, and
		// those at most lo a run inside it: the ones between, two runs.
		for a := range codeNaN {
			g := a << 8
			h0, h1 := f.run(false, a, func(u float64) bool { return u <= hi })
			l0, l1 := f.run(false, a, func(u float64) bool { return u <= lo })
			if x.off[g+h0] < x.off[g+l0] || x.off[g+l1] < x.off[g+h1] {
				return true
			}
		}
		return false // a NaN code's groups are NaN or empty
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

// cut returns the lexicographic K-th smallest (upper bound, index) pair
// over the n rows h counted: the counts find the slot the K-th falls
// into, and fill brings the rows' bounds back, a block at a time into
// buf. Often the slot is one value tied across many rows (a class
// exact in every child): if every row of the slot equals its first,
// counted by a branch-free pass, the pair is the need-th of them. Else a
// selection over the slot's rows finds it.
// (+Inf, MaxInt) when fewer than K bounds are not NaN.
func (f *rowFilter) cut(h *cutHist, n, K int, buf []float64) (T float64, iT int) {
	s, need, ok := h.find(K)
	if !ok {
		return math.Inf(1), math.MaxInt
	}
	rows := h.count(s)
	var los []int // the blocks' first rows
	for lo := 0; lo < n; lo += len(buf) {
		los = append(los, lo)
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
	return pickCut(vals, idx, need)
}

// find returns the slot the K-th smallest counted value falls into and
// the rank of that value among the slot's (need); ok is false when
// fewer than K values are counted.
func (h *cutHist) find(K int) (s uint, need int, ok bool) {
	before := 0
	for ; s < cutBuckets && before+h.count(s) < K; s++ {
		before += h.count(s)
	}
	need = K - before
	return s, need, h.count(s) >= need
}

// pickCut returns the lexicographic need-th smallest (value, index)
// pair of one slot's values vals, whose rows idx ascend: when every
// value equals the first, the first and the need-th row, else the
// selection's. (+Inf, MaxInt) when that value is NaN.
func pickCut(vals []float64, idx []int, need int) (T float64, iT int) {
	if v0 := vals[0]; !slices.ContainsFunc(vals, func(x float64) bool { return x != v0 }) {
		return v0, idx[need-1] // one value (not NaN: a NaN equals nothing)
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

// PairIndex groups the rows of two code planes by their joint code
// c₀·256 + c₁: rows lists every row once, grouped by joint code and in
// row order within a group (a stable counting sort), and the rows of
// joint code g are rows[off[g]:off[g+1]]. It is the VA-file's cells
// turned round: a root's two children's planes stay fixed while a
// weight drag, a percent step or an undo to another weight moves only
// the root's term tables and K, and every row of a group has the same
// bounds, so a filter over the groups visits the 65 536 groups and its
// survivors instead of the n rows (rootDefer.filterPairs).
type PairIndex struct {
	rows []int32
	off  []int32
}

// pairGroups is how many joint codes there are.
const pairGroups = 256 * 256

// NewPairIndex groups the rows of planes a and b, which code vectors of
// one length (at most math.MaxInt32 rows).
func NewPairIndex(a, b *Codes) *PairIndex { return groupPairs(a.codes, b.codes) }

func groupPairs(c0, c1 []uint8) *PairIndex {
	x := &PairIndex{rows: make([]int32, len(c0)), off: make([]int32, pairGroups+1)}
	c1 = c1[:len(c0)]
	for i, a := range c0 {
		x.off[int(a)<<8|int(c1[i])+1]++
	}
	for g := 1; g <= pairGroups; g++ {
		x.off[g] += x.off[g-1]
	}
	// off[g] is group g's first slot; scattering advances it to the
	// next group's, and the shift puts it back.
	for i, a := range c0 {
		g := int(a)<<8 | int(c1[i])
		x.rows[x.off[g]] = int32(i)
		x.off[g]++
	}
	copy(x.off[1:], x.off[:pairGroups])
	x.off[0] = 0
	return x
}

// Bytes is what the index retains: 4 bytes a row and 4 a group.
func (x *PairIndex) Bytes() int64 { return 4 * int64(len(x.rows)+len(x.off)) }

// group returns the rows of joint code g, ascending.
func (x *PairIndex) group(g int) []int32 { return x.rows[x.off[g]:x.off[g+1]] }

// terms reports whether every child's terms over the codes below the
// NaN code are finite and, for a product, not negative: then a fold of a
// first code's term with the second child's does not decrease with the
// latter. A root of two children without class bits whose terms are so
// is filtered over the groups of a PairIndex: its second child's terms
// are widened to fall and then rise over the codes below the NaN code
// (valley; a distance plane's do not fall, as its codes are ordered like
// its values, and a view's fall over the values below its target and
// rise over those above it), so that for a first code below the NaN
// code the groups over the second codes below it whose bound is under
// (or at most) a value are one run of the PairIndex's rows (run). A NaN
// code's groups have NaN bounds (a sum's NaN term) or no rows (an OR
// without class bits has no NaN row); they are visited one by one.
func (f *rowFilter) terms() bool {
	for _, tabs := range [][][256]float64{f.lo, f.hi} {
		for j := range tabs {
			for _, t := range tabs[j][:codeNaN] {
				if math.Float64bits(t)&expMask == expMask || f.or && t < 0 {
					return false
				}
			}
		}
	}
	return true
}

// shape sets bot and end from the second child's terms.
func (f *rowFilter) shape() {
	f.bot = [2]int{bottom(&f.lo[1]), bottom(&f.hi[1])}
	f.end[256] = 256
	for b := 255; b >= 0; b-- {
		f.end[b] = b + 1
		if b < 255 && math.Float64bits(f.hi[1][b]) == math.Float64bits(f.hi[1][b+1]) {
			f.end[b] = f.end[b+1]
		}
	}
}

// valley widens the terms t over the codes below the NaN code into the
// nearest ones that fall and then rise: upper terms (up) are raised to
// the greatest term between them and the least, lower terms lowered to
// the greater of the least term at or before them and at or after them.
// Widened terms still bound every row; terms that fall and rise already
// stay as they are.
func valley(t *[256]float64, up bool) {
	b := bottom(t)
	if up {
		for c := b - 1; c >= 0; c-- {
			t[c] = max(t[c], t[c+1])
		}
		for c := b + 1; c < codeNaN; c++ {
			t[c] = max(t[c], t[c-1])
		}
		return
	}
	var suffix [codeNaN]float64
	suffix[codeNaN-1] = t[codeNaN-1]
	for c := codeNaN - 2; c >= 0; c-- {
		suffix[c] = min(t[c], suffix[c+1])
	}
	prefix := t[0]
	for c := range codeNaN {
		prefix = min(prefix, t[c])
		t[c] = max(prefix, suffix[c])
	}
}

// bottom is the first code below the NaN code whose term is the least.
func bottom(t *[256]float64) int {
	b := 0
	for c := 1; c < codeNaN; c++ {
		if t[c] < t[b] {
			b = c
		}
	}
	return b
}

// run returns the second codes [b0, b1), below the NaN code, whose group
// with first code a (below it too) has a bound in f.hi (up) or f.lo that
// in accepts, where in holds for every value at most one it holds for: as
// the bounds fall to the bottom code and rise from it (valley), they are
// one run, bisected on either side. An empty run starts at the
// bottom code, which any run that is not empty holds.
func (f *rowFilter) run(up bool, a int, in func(float64) bool) (b0, b1 int) {
	tabs, bot := f.lo, f.bot[0]
	if up {
		tabs, bot = f.hi, f.bot[1]
	}
	t0, t1 := tabs[0][a], &tabs[1]
	ok := func(b int) bool { return in(f.fold(t0, t1[b])) }
	if !ok(bot) {
		return bot, bot
	}
	b0 = sort.Search(bot, ok)
	b1 = bot + 1 + sort.Search(codeNaN-bot-1, func(i int) bool { return !ok(bot + 1 + i) })
	return b0, b1
}

// countPairs counts the upper bound of every group of f.pairs into h,
// weighted by its rows: pass one over the groups, a run of groups of one
// bound at a time (f.end: a view's codes wholly inside its target, or
// wholly past a clamp, share their terms). A group of no rows counts 0;
// alternate runs count in h's two arrays.
func (f *rowFilter) countPairs(h *cutHist) {
	x, t1, end := f.pairs, &f.hi[1], &f.end
	for a := range 256 {
		o := x.off[a<<8 : a<<8+257]
		if o[0] == o[256] {
			continue
		}
		t0 := f.hi[0][a]
		k := 0
		if f.or {
			for b := 0; b < 256; b, k = end[b], k+1 {
				h.counts[k&1][h.slot(t0*t1[b])] += o[end[b]] - o[b]
			}
		} else {
			for b := 0; b < 256; b, k = end[b], k+1 {
				h.counts[k&1][h.slot(t0+t1[b])] += o[end[b]] - o[b]
			}
		}
	}
}

// groupRun is a run of groups of f.pairs, joint codes [g0, g1) of one
// first code, whose upper bounds are u, bit for bit: their rows are
// x.rows[x.off[g0]:x.off[g1]], each group's ascending.
type groupRun struct {
	g0, g1 int
	u      float64
}

// slotGroups returns the groups of f.pairs with rows whose upper bound h
// counts in slot s, as runs of groups of one bound: of a first code below
// the NaN code, the groups of up to two runs of second codes (the slot of
// a bound does not decrease with it, and the bounds fall and then rise),
// split where the second child's term changes, and a NaN code's groups
// one by one. A clamp class spread over the codes of two views
// (thousands of groups) is a few hundred runs.
func (f *rowFilter) slotGroups(h *cutHist, s uint) []groupRun {
	x := f.pairs
	var runs []groupRun
	add := func(a, b0, b1 int) { // split where the second term changes
		for b0 < b1 {
			e := min(f.end[b0], b1)
			if g := a << 8; x.off[g+b0] < x.off[g+e] {
				runs = append(runs, groupRun{g + b0, g + e, f.pair(f.hi, a, b0)})
			}
			b0 = e
		}
	}
	for a := range 256 {
		g := a << 8
		if x.off[g] == x.off[g+256] {
			continue
		}
		if a == codeNaN {
			for b := range 256 {
				if h.slot(f.pair(f.hi, a, b)) == s {
					add(a, b, b+1)
				}
			}
			continue
		}
		// The slots of a first code's bounds fall and then rise: the
		// groups at most s, less those under s, are two runs.
		w0, w1 := f.run(true, a, func(u float64) bool { return h.slot(u) <= s })
		v0, v1 := f.run(true, a, func(u float64) bool { return h.slot(u) < s })
		add(a, w0, v0)
		add(a, v1, w1)
		if h.slot(f.pair(f.hi, a, codeNaN)) == s {
			add(a, codeNaN, codeNaN+1)
		}
	}
	return runs
}

// fold is the fold of two terms.
func (f *rowFilter) fold(t0, t1 float64) float64 {
	if f.or {
		return t0 * t1
	}
	return t0 + t1
}

// pairCut is the cut (T, iT) over the groups of f.pairs. Until iT is
// found (-1) it is the m-th smallest of the rows of at, the runs of
// groups whose upper bound is T.
type pairCut struct {
	T  float64
	iT int
	at []groupRun
	m  int
}

// cutPairs is cut over the groups of f.pairs: the lexicographic need-th
// smallest (upper bound, index) pair of the rows of slot, the crossing
// slot's runs of groups, in O(runs). The bound T is the need-th smallest
// of the runs' bounds, each weighted by its rows (weightedKth); NaN
// equals nothing and ranks last (+Inf, MaxInt when the need-th row is
// NaN). It is the one cut returns: when the slot holds one value, the
// value of its first row, else the selection's, which only a zero of
// either sign leaves to decide — then the slot's rows are brought into
// row order and selected as cut selects them. Else iT is left to find:
// the need-th row, less the rows under T, of the groups at T (pass two
// finds it, keepGroups).
func (f *rowFilter) cutPairs(slot []groupRun, need int) *pairCut {
	x := f.pairs
	rows := func(r groupRun) []int32 { return x.rows[x.off[r.g0]:x.off[r.g1]] }
	ws, total := make([]weighted, 0, len(slot)), 0
	for _, r := range slot {
		if r.u == r.u {
			ws = append(ws, weighted{r.u, len(rows(r))})
			total += len(rows(r))
		}
	}
	if total < need {
		return &pairCut{T: math.Inf(1), iT: math.MaxInt}
	}
	T, before := weightedKth(ws, need)
	c := &pairCut{T: T, iT: -1, m: need - before}
	signs, runs := 0, 0 // the signs of the bounds at T (1 plus, 2 minus), and their runs
	for _, r := range slot {
		if r.u == T {
			signs |= 1 << b2i(math.Signbit(r.u))
			runs++
			c.at = append(c.at, r)
		}
	}
	switch {
	case signs != 3:
	case runs == len(slot): // one value: cut returns its first row's
		first := int32(math.MaxInt32)
		for _, r := range slot {
			for g := r.g0; g < r.g1; g++ {
				if rs := x.group(g); len(rs) > 0 && rs[0] < first {
					first, c.T = rs[0], r.u
				}
			}
		}
	default:
		// A zero of either sign: the selection decides, as cut selects.
		var idx []int
		for _, r := range slot {
			for _, i := range rows(r) {
				idx = append(idx, int(i))
			}
		}
		slices.Sort(idx)
		vals := make([]float64, len(idx))
		for j, i := range idx {
			vals[j] = f.pair(f.hi, int(f.codes[0][i]), int(f.codes[1][i]))
		}
		c.T, c.iT = pickCut(vals, idx, need)
	}
	return c
}

// groupSet is a set of the joint codes of a PairIndex, a bit per group.
type groupSet [pairGroups / 64]uint64

// add adds the groups [g0, g1).
func (s *groupSet) add(g0, g1 int) {
	for g0 < g1 {
		w, lo := g0>>6, g0&63
		hi := min(64, lo+g1-g0)
		s[w] |= (^uint64(0) >> (64 - (hi - lo))) << lo
		g0 += hi - lo
	}
}

// nthRow returns the m-th smallest of the rows of the runs of groups
// of f.pairs at: their rows are set in set, an empty n-bit row set, its
// bits counted up to the m-th, and those past it cleared, so that set
// then holds their rows up to it.
func (f *rowFilter) nthRow(at []groupRun, m int, set []uint64) int {
	x := f.pairs
	for _, r := range at {
		x.setRows(set, x.rows[x.off[r.g0]:x.off[r.g1]])
	}
	for w, word := range set {
		if c := bits.OnesCount64(word); c < m {
			m -= c
			continue
		}
		for ; m > 1; m-- {
			word &= word - 1
		}
		b := bits.TrailingZeros64(word)
		set[w] &= ^uint64(0) >> (63 - b)
		clear(set[w+1:])
		return w<<6 | b
	}
	return math.MaxInt // unreachable: the groups hold m rows
}

// weighted is a value that counts weight times.
type weighted struct {
	v float64
	w int
}

// weightedKth returns the least value of ws (none NaN) with at least k of
// the weight at or below it, and the weight under it: a quickselect over
// the values that keeps the weights beside them. It reorders ws.
func weightedKth(ws []weighted, k int) (v float64, under int) {
	for {
		p := ws[len(ws)/2].v
		// Three ways: [0, lt) under p, [lt, gt) equal, [gt, len) above.
		lt, gt, wl, we := 0, len(ws), 0, 0
		for i := 0; i < gt; {
			switch w := ws[i]; {
			case w.v < p:
				ws[lt], ws[i] = w, ws[lt]
				lt, i, wl = lt+1, i+1, wl+w.w
			case w.v > p:
				gt--
				ws[i], ws[gt] = ws[gt], w
			default:
				i, we = i+1, we+w.w
			}
		}
		switch {
		case k <= wl:
			ws = ws[:lt]
		case k <= wl+we:
			return p, under + wl
		default:
			k -= wl + we
			under += wl + we
			ws = ws[gt:]
		}
	}
}

// setRows adds rows to the row set set.
func (x *PairIndex) setRows(set []uint64, rows []int32) {
	for _, i := range rows {
		set[i>>6] |= 1 << (i & 63)
	}
}

// keepGroups adds to set the rows of the groups of f.pairs whose lower
// bound lies lexicographically at or below the cut c — of a group at
// c.T, its rows up to c.iT — and returns the rows of the groups proven
// NaN: pass two over the groups. Of a first code below the NaN code,
// the groups under T are one run of rows, and those at T lie on either
// side of it. set must be empty on entry. A cut whose iT is yet to find
// is found here first (c.iT set), by nthRow, which leaves in set the
// cut's rows up to iT (a group whose upper bound is T has its lower
// bound at T or under it): then only the other groups at T are read,
// each up to iT.
func (f *rowFilter) keepGroups(set []uint64, c *pairCut) (nNaN int) {
	x, T := f.pairs, c.T
	var cut groupSet
	for _, r := range c.at {
		cut.add(r.g0, r.g1)
	}
	cutRows := c.iT < 0 // set holds the cut's rows up to iT
	if cutRows {
		c.iT = f.nthRow(c.at, c.m, set)
	}
	var at []groupRun // the runs of groups whose lower bound is T
	group := func(g int) {
		rows := x.group(g)
		switch l := f.pair(f.lo, g>>8, g&255); {
		case l < T:
			x.setRows(set, rows)
		case l == T:
			at = append(at, groupRun{g, g + 1, T})
		default:
			nNaN += len(rows) * b2i(l != l)
		}
	}
	for a := range 256 {
		g := a << 8
		if x.off[g] == x.off[g+256] {
			continue
		}
		if a == codeNaN {
			for b := range 256 {
				group(g + b)
			}
			continue
		}
		l0, l1 := f.run(false, a, func(u float64) bool { return u < T })
		x.setRows(set, x.rows[x.off[g+l0]:x.off[g+l1]])
		e0, e1 := f.run(false, a, func(u float64) bool { return u <= T })
		for _, r := range [2][2]int{{e0, l0}, {l1, e1}} { // at T
			if x.off[g+r[0]] < x.off[g+r[1]] {
				at = append(at, groupRun{g + r[0], g + r[1], T})
			}
		}
		group(g + codeNaN)
	}
	for _, r := range at { // their rows up to iT
		for g := r.g0; g < r.g1; g++ {
			if !cutRows || cut[g>>6]>>(g&63)&1 == 0 {
				rows := x.group(g)
				x.setRows(set, rows[:upTo(rows, c.iT)])
			}
		}
	}
	return nNaN
}

// upTo counts the rows of an ascending group at or below r.
func upTo(rows []int32, r int) int {
	i, _ := slices.BinarySearch(rows, int32(min(r, math.MaxInt32-1)+1))
	return i
}
