package relevance

import (
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
// views outlives it. A view holds no distance vector either: the column
// plane keeps the column's values, and a view computes a row's distance
// from its value by the kernel's own expression wherever one is read — a
// chunk of rows or a list of them (rawVals).

// View is the plane of a range leaf over the column cp codes: the leaf
// whose distance to the target interval [lo, hi] is lo − v below it, v − hi
// above it, 0 inside and NaN for a NaN value, except that a value equal to
// edge (a strict operator's own bound; NaN when there is none) is at
// distance eps, EdgeEps of the largest finite distance of any other row.
// Per code the distances of its rows lie in an interval the kernel's
// subtraction bounds exactly, as it rounds monotonically: the distances
// fall over the values below lo and rise over those above hi. ok is
// false when the plane cannot know eps — a finite value whose distance
// overflows to +Inf, so that the largest finite distance is not at the
// column's extremes — or holds no values (a plane not built by
// NewColumnCodes); the caller codes the leaf's distances instead.
func (cp *Codes) View(lo, hi, edge float64) (view *Codes, ok bool) {
	if len(cp.vals) != len(cp.codes) {
		return nil, false
	}
	dist := func(v float64) float64 { return rangeDistance(v, lo, hi) }
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
	eps := EdgeEps(dm)
	view = &Codes{id: cp.id, codes: cp.codes, counts: cp.counts, column: cp,
		tgt: viewTarget{lo: lo, hi: hi, edge: edge, eps: eps}}
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

// EdgeEps is the distance of a row on a strict operator's own bound,
// given dmax, the largest finite distance of the leaf's other rows:
// dmax/128, or 1 when that is 0. The range kernel and View both take it.
func EdgeEps(dmax float64) float64 {
	if eps := dmax / 128; eps != 0 {
		return eps
	}
	return 1
}

// viewTarget is what a view's distances are computed from: the target
// [lo, hi], the strict bound edge (NaN for none) and the eps a row on it
// is at.
type viewTarget struct{ lo, hi, edge, eps float64 }

// distances writes the distances of the values src to dst, which may
// alias it.
func (t *viewTarget) distances(dst, src []float64) {
	RangeDistances(dst, src, t.lo, t.hi, t.edge, t.eps)
}

// RangeDistances is the range kernel, every range leaf's distance pass:
// it writes to dst the distance (rangeDistance) of each value of src to
// the target [lo, hi], except that a value equal to edge is at eps. dst
// may alias src. Where lo ≤ hi a value lies below lo, above hi or
// neither, so its distance is the largest of the two differences and +0;
// only the rows where that is NaN (a NaN value, an infinite value on its
// own infinite bound) or that sit on the edge, and every row of a target
// with lo > hi or a NaN bound, take the cases one by one.
func RangeDistances(dst, src []float64, lo, hi, edge, eps float64) {
	dst = dst[:len(src)]
	ordered := lo <= hi
	for j, v := range src {
		d := max(lo-v, v-hi, 0)
		if d != d || v == edge || !ordered {
			d = rangeDistance(v, lo, hi)
			if v == edge {
				d = eps
			}
		}
		dst[j] = d
	}
}

// rangeDistance is the distance of v to the target [lo, hi] —
// distance.ToRange bit for bit: lo − v below it, v − hi above it,
// math.NaN() for a NaN value, +0 inside or for a NaN bound no value
// compares to.
func rangeDistance(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	case v != v:
		return math.NaN()
	}
	return 0
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

// viewRange is Range for a view: NormRange over its distances, keep,
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
// others gathered (gather), their distances computed from the column's
// values. Where the gather refuses, every row's distance is written to a
// buffer of a value per row from alloc and ranged by NormRange. scanned
// reports a pass over the rows.
func (cp *Codes) viewRange(keep int, alloc func() []float64) (p NormParams, scanned bool) {
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
	r := p.Kept
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
		}
	}
	vals, ok := cp.gather(rawVals{view: cp}, gathered...)
	if !ok {
		buf := alloc()
		cp.tgt.distances(buf, cp.column.vals)
		return NormRange(buf, keep), true
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
