package relevance

import (
	"bytes"
	"cmp"
	"math"
	"slices"
)

// This file holds the column view: the code plane of a range leaf as the
// VA-file of Weber, Schek & Blott codes it — the data once, not each
// query's distances. A numeric column is coded once, over its values
// (BuildCodes' classes: -Inf, the minimum, equal-width buckets, +Inf and
// NaN), and a range leaf over it takes a view of that plane: the
// column's code bytes, counts and ID, with its own two tables that give
// each code the interval of the leaf's distances, derived per range from
// the code's value interval by the kernel's own arithmetic. A range drag
// thus changes a leaf's tables, never its codes, and a PairIndex over two
// views outlives it.

// View is the plane of a range leaf over the column cp codes: the leaf
// whose distance to the target interval [lo, hi] is lo − v below it, v − hi
// above it, 0 inside and NaN for a NaN value, except that a value equal to
// edge (a strict operator's own bound; NaN when there is none) is at
// distance eps — the largest finite distance of any other row over 128,
// or 1 when that is 0. Per code the distances of its rows lie in an
// interval the kernel's subtraction bounds exactly, as it rounds
// monotonically: the distances fall over the values below lo and rise
// over those above hi. ok is false when the plane cannot know eps: a
// finite value whose distance overflows to +Inf, so that the largest
// finite distance is not at the column's extremes; the caller codes the
// leaf's distances instead.
func (cp *Codes) View(lo, hi, edge float64) (view *Codes, ok bool) {
	dist := func(v float64) float64 {
		switch {
		case v < lo:
			return lo - v
		case v > hi:
			return v - hi
		}
		return 0 // inside, or a NaN bound no value compares to
	}
	// The largest finite distance lies at the column's finite extremes.
	dm := 0.0
	if finiteRows(&cp.counts) > 0 {
		for _, v := range [2]float64{cp.enc.mn, cp.enc.mx} {
			d := dist(v)
			if math.IsInf(d, 1) {
				return nil, false
			}
			dm = max(dm, d)
		}
	}
	eps := dm / 128
	if eps == 0 {
		eps = 1
	}
	view = &Codes{id: cp.id, codes: cp.codes, counts: cp.counts, column: cp}
	for c := range codeNaN {
		vl, vh := cp.lo[c], cp.hi[c]
		l, h := 0.0, max(dist(vl), dist(vh))
		switch {
		case vh < lo:
			l = dist(vh)
		case !(vl < lo) && vl > hi: // no row below lo (nor a NaN lo), every one above hi
			l = dist(vl)
		}
		switch {
		case vl == edge && vh == edge:
			l, h = eps, eps // a class of the edge's one value: every row is at eps
		case vl <= edge && edge <= vh:
			l, h = min(l, eps), max(h, eps)
		}
		view.lo[c], view.hi[c] = l, h
	}
	view.lo[codeNaN], view.hi[codeNaN] = math.NaN(), math.NaN()
	return view, true
}

// finiteRows counts the rows of finite codes: the minimum's and the
// buckets'.
func finiteRows(counts *[256]int32) int {
	n := 0
	for _, m := range counts[codeMin:codePosInf] {
		n += int(m)
	}
	return n
}

// viewBlock is the rows of one code of a view: count rows whose
// distances lie in [lo, hi].
type viewBlock struct {
	lo, hi float64
	code   int
	count  int
}

// viewRange is Range for a view of the range leaf v: NormRange(v, keep)
// bit for bit from the codes' distance intervals and counts. Its
// distances are never negative and never -0 (no row's kernel subtracts
// into one), so the range starts at +0 and a zero answer is +0. A code
// whose interval is [+Inf, +Inf] (a -Inf or +Inf value outside the
// target) holds no finite distance, and no other code reaches +Inf, as
// View refuses a column whose subtractions overflow. A keep within the
// codes wholly inside the target is answered by 0. Else the keep-th
// smallest finite distance x is bracketed: at least keep rows lie in
// codes whose interval starts at or below x, and at most keep−1 in codes
// whose interval ends below x, so the codes weighted by their rows at
// each edge give tLo ≤ x ≤ tHi (weightedKth). Where the two meet, x is
// known from the counts. Else x is selected among the rows of the codes
// whose intervals reach into [tLo, tHi]: an exact code (one value, like
// the zeros of the codes wholly inside the target) by its count, the
// others gathered from v, a run of bytes at a time — unless they hold an
// eighth of the rows or more, when NormRange's scan answers. scanned
// reports a pass over v.
func (cp *Codes) viewRange(v []float64, keep int) (p NormParams, scanned bool) {
	var blocks [codeNaN]viewBlock
	bs, nFinite, zeros := blocks[:0], 0, 0
	for c := range codeNaN {
		m := int(cp.counts[c])
		if m == 0 || math.IsInf(cp.lo[c], 1) {
			continue
		}
		bs = append(bs, viewBlock{cp.lo[c], cp.hi[c], c, m})
		nFinite += m
		zeros += m * b2i(cp.hi[c] == 0)
	}
	p = baseParams(nFinite, 0, keep)
	if p.NoFinite || p.Kept <= zeros { // the keep-th is one of the codes wholly inside
		return p, false
	}
	var buf [codeNaN]weighted
	edge := func(hi bool) float64 { // the least edge with Kept rows in codes at or under it
		ws := buf[:0]
		for _, b := range bs {
			ws = append(ws, weighted{b.lo, b.count})
			if hi {
				ws[len(ws)-1].v = b.hi
			}
		}
		v, _ := weightedKth(ws, p.Kept)
		return v
	}
	tHi := edge(true)
	tLo := edge(false)
	if tLo == tHi {
		p.DMax = tHi
		return p, false
	}
	// The codes wholly below tLo rank first; the others that reach into
	// [tLo, tHi] hold x.
	r, gather := p.Kept, 0
	var exact []viewBlock
	var gathered []int
	for _, b := range bs {
		switch {
		case b.hi < tLo:
			r -= b.count
		case b.lo > tHi:
		case b.lo == b.hi:
			exact = append(exact, b)
		default:
			gathered = append(gathered, b.code)
			gather += b.count
		}
	}
	if gather*8 >= len(v) {
		return NormRange(v, keep), true
	}
	vals := make([]float64, 0, gather)
	for _, c := range gathered {
		for i := 0; ; i++ {
			j := bytes.IndexByte(cp.codes[i:], uint8(c))
			if j < 0 {
				break
			}
			i += j
			vals = append(vals, v[i])
		}
	}
	// The r-th smallest of vals and the exact codes' values: past each
	// exact value in turn, or among vals between two of them.
	slices.SortFunc(exact, func(a, b viewBlock) int { return cmp.Compare(a.lo, b.lo) })
	values := exact[:0] // one block per exact value (the zeros of many codes)
	for _, b := range exact {
		if m := len(values); m > 0 && values[m-1].lo == b.lo {
			values[m-1].count += b.count
			continue
		}
		values = append(values, b)
	}
	below := 0 // the exact codes' rows under the value at hand
	for _, b := range values {
		lt, eq := 0, 0
		for _, x := range vals {
			lt += b2i(x < b.lo)
			eq += b2i(x == b.lo)
		}
		if below+lt >= r {
			break
		}
		if below+lt+eq+b.count >= r {
			p.DMax = b.lo
			return p, len(vals) > 0
		}
		below += b.count
	}
	p.DMax = rangeOf(scanRange(vals, 0, len(vals)), vals, r-below).DMax
	return p, true
}
