package relevance

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"repro/internal/topk"
)

// This file implements the rank-before-scale pipeline behind
// EvalOptions.DeferRoot.
//
// The eager evaluator finishes a run with two n-wide passes that exist
// only to feed the ranking: the root combine kernel applies its final
// monotonic scalar transform (the geometric root (·)^(1/Σw), the Lp
// root, the weight-normalized division) to every element, and the root
// finalize pass re-normalizes all n combined values onto [0, Scale] —
// after which the engine selects the k ≪ n it will ever display. Both
// transforms are monotone non-decreasing, so the ORDER of the scaled
// values is already determined by the raw combined values; the only
// thing the transforms add to the ranking is ties (values clamped to
// Scale, degenerate ranges collapsing to 0, rounding collisions), and
// ties are resolved by item index.
//
// The deferred root therefore ranks by filter and refine:
//
//  1. filter: the children's code planes (codes.go) bound every row's
//     raw root value from below and above in two passes over bytes. The
//     first finds the lexicographic K-th (upper bound, index) cut
//     (T, iT), K = max(k, the root's keep count); the second keeps the
//     rows whose (lower bound, index) is at most the cut — a superset of
//     the exact top K, as K rows lie at or below the cut exactly — and
//     the rows whose NaN the codes leave open. A root of two children
//     without an OR's class bits takes both passes over the groups of a
//     PairIndex of its children's planes instead (filterPairs): a weight
//     drag changes no plane, so the index one step built serves the
//     next, and a step visits the 65 536 groups and its survivors, not
//     the rows;
//  2. refine: only those rows run the root's combine kernel — the one
//     producer of every interior node's values too, without the
//     transform an interior pass adds — into a lexicographic (value,
//     index) selector (topk.StreamSelector), and the root params come
//     from their order statistics;
//  3. applies the deferred transforms only to the selected survivors,
//     and resolves the clamp-induced tie class at the cut EXACTLY: the
//     raw-domain preimage (loTieEx, hiTie] of the k-th scaled value is
//     found by monotone bisection (topk.SupWhere), every refined row
//     inside it is a tie ordered by index, and a row the filter did not
//     refine either provably sits inside the tie class (its bounds do),
//     provably outside it, or is refined after all.
//
// The result — Order, Sorted, NaN attribution, and the lazily
// materialized Combined vector — is bit-identical to the eager
// pipeline followed by topk.SelectKWithIndex, which the property tests
// in rootrank_test.go and internal/core assert against Options.FullSort.
//
// Only an AND or OR root defers. A leaf root has nothing to combine and
// no children's planes to filter by: the evaluator scales it eagerly,
// and the engine selects on its scaled vector.

// RootRanking is the outcome of Result.RankRoot: the top-K of the
// scaled combined distances plus the attribution the engine surfaces.
type RootRanking struct {
	// Order is the exact head of the scaled ranking (ascending distance,
	// NaN last, ties by index) and Sorted the scaled distances aligned
	// with it. Both are exactly min(k, n) long: the unranked items are
	// not listed.
	Order  []int
	Sorted []float64
	// NaNs is the exact number of uncolorable (NaN) combined values.
	NaNs int
	// Refined counts the rows whose exact root value was computed;
	// Pruned counts the evaluator chunks with none of them, out of
	// Chunks.
	Refined        int
	Pruned, Chunks int
	// ScaleTime is the portion of the ranking spent scaling survivors
	// and resolving the tie cut (the engine's Scale stage).
	ScaleTime time.Duration
	// CombineTime is the portion of the selection spent producing the
	// raw root values it selects from: every row bounded from the
	// children's codes, and the rows the bounds leave open combined.
	CombineTime time.Duration
}

// rootDefer carries the deferred root of one evaluation. All access is
// serialized by the owning Result's mutex.
type rootDefer struct {
	node *Node
	n    int

	cb   *combine // the root's combine, its children evaluated
	keep int      // KeepCount of the root (0 under NaiveNormalize)

	// out holds the raw combined value of every row once full; the
	// ranking keeps the values it computes in buffers of its own.
	out  []float64
	full bool

	params      NormParams // root normalization params
	paramsKnown bool
	ranking     *RootRanking
	// zeroClass is the tie class of a ranking whose k-th value is 0,
	// which Zeros counts by, and zeros its count, -1 until counted.
	zeroClass *tieClass
	zeros     int

	// checkpoint is EvalOptions.Checkpoint captured at build: RankRoot
	// polls it per chunk so a request deadline interrupts the ranking
	// sweep, not just the evaluation that produced it.
	checkpoint func() error
}

// poll reports the captured checkpoint's verdict (nil-safe).
func (rd *rootDefer) poll() error {
	if rd.checkpoint == nil {
		return nil
	}
	return rd.checkpoint()
}

func (rd *rootDefer) chunkCount() int { return (rd.n + evalChunk - 1) / evalChunk }

// fillAll computes every row's raw combined value into out.
func (rd *rootDefer) fillAll() {
	if rd.full {
		return
	}
	for lo := 0; lo < rd.n; lo += evalChunk {
		hi := min(lo+evalChunk, rd.n)
		rd.cb.chunk(rd.out[lo:hi], lo, hi)
	}
	rd.full = true
}

// key is the full monotone raw→display transform: the deferred scalar
// step composed with the root normalization. Bit-identical to what the
// eager pipeline computes per element.
func (rd *rootDefer) key(x float64) float64 {
	return rd.params.Apply(rd.cb.t.apply(x))
}

// deriveParams computes the root NormParams from the refined rows'
// raw values, which st scanned and a selection may reorder: nNaN is the
// exact NaN count of the root and cands the k lex-smallest. The refined
// rows hold the keep smallest values (the cut's K covers the keep
// count) and every comparable one when everything is kept, so the
// params are value-identical to the eager rangeOf over the scaled
// vector: order statistics commute with the monotone deferred
// transform, and the raw domain holds no infinities (deferrable).
// scratch is a buffer of at least len(cands) values to select in.
func (rd *rootDefer) deriveParams(st rangeScan, nNaN int, cands []topk.Cand, refined, scratch []float64) NormParams {
	nFinite := rd.n - nNaN
	p := baseParams(nFinite, rd.cb.t.apply(st.minFinite), rd.keep)
	switch {
	case p.NoFinite:
	case p.Kept == nFinite:
		p.DMax = rd.cb.t.apply(st.maxFinite)
	case p.Kept <= len(cands):
		scratch = scratch[:len(cands)]
		for i, c := range cands {
			scratch[i] = c.V
		}
		p.DMax = rd.cb.t.apply(topk.Threshold(scratch, p.Kept))
	default: // Threshold reorders what it selects in, and refined is the caller's
		p.DMax = rd.cb.t.apply(topk.Threshold(slices.Clone(refined), p.Kept))
	}
	return p
}

// paramsFromFull derives the root params with every row computed — the
// no-selection path (lazy Combined before any ranking, k = 0).
func (rd *rootDefer) paramsFromFull() NormParams {
	rd.fillAll()
	st := scanRange(rd.out, 0, rd.n)
	return rd.deriveParams(st, st.nNaN, nil, rd.out, nil)
}

// filterBlock is how many rows the filter's passes bound at a time: a
// block of bounds stays in L1 beside the codes and tables it reads.
const filterBlock = 1024

// filtered is what the filter leaves of a ranking.
type filtered struct {
	surv    []int     // the rows kept, ascending
	sv      []float64 // their exact raw values
	T       float64
	iT      int
	nNaN    int    // rows the codes prove NaN
	refined int    // rows that ran the kernel
	touched []bool // per evaluator chunk: a row of it ran the kernel
	// A block's survivors that run the kernel, their place in sv, and
	// their exact values.
	ids, at []int
	exact   [filterBlock]float64
	bufs    *rankBufs // where surv and sv came from
}

func newFiltered(n, K int) *filtered {
	b := rankPool.Get().(*rankBufs)
	return &filtered{surv: slices.Grow(b.surv[:0], K+K/8), sv: slices.Grow(b.sv[:0], K+K/8),
		touched: make([]bool, (n+evalChunk-1)/evalChunk), bufs: b}
}

// rankBufs are a ranking's survivors and candidates, which RankRoot hands
// back to rankPool: made anew, a 200k-row step's are a megabyte to zero.
type rankBufs struct {
	surv  []int
	sv    []float64
	cands []topk.Cand
	below []rankedCand
}

var rankPool = sync.Pool{New: func() any { return new(rankBufs) }}

// admit appends the values of survivors rows, ascending, of the block
// of rows from lo, whose lower bounds l holds at i-lo, to fr.sv (the
// caller appends the rows to fr.surv). A survivor whose bounds meet
// (rowFilter.exact) is exact already — its lower bound plus 0, as no
// kernel returns -0 — and the others run the kernel.
func (rd *rootDefer) admit(fr *filtered, f *rowFilter, rows []int, lo int, l []float64) {
	fr.ids, fr.at = fr.ids[:0], fr.at[:0]
	for _, i := range rows {
		if !f.exact(i) {
			fr.ids, fr.at = append(fr.ids, i), append(fr.at, len(fr.sv))
			fr.touched[i/evalChunk] = true
		}
		fr.sv = append(fr.sv, l[i-lo]+0)
	}
	if len(fr.ids) > 0 {
		ex := fr.exact[:len(fr.ids)]
		rd.cb.rows(ex, fr.ids)
		for j, t := range fr.at {
			fr.sv[t] = ex[j]
		}
		fr.refined += len(fr.ids)
	}
}

// filter runs the filter's two passes for the K smallest rows — over the
// groups of f.pairs when it has them (filterPairs). Pass one
// counts the rows' upper bounds and finds the lexicographic K-th (upper
// bound, index) cut; the bounds are filled a block at a time from the
// codes, and never stored. Pass two keeps the rows whose (lower bound,
// index) is at most the cut: K rows lie at or below it exactly, so the
// kept ones hold the K smallest (value, index) pairs. It keeps too the
// rows whose codes leave them NaN or zero (rowFilter.open), which the
// NaN count needs decided. A NaN lower bound is a row the codes prove
// NaN. A survivor whose bounds meet (rowFilter.exact) is exact already —
// its lower bound plus 0, as no kernel returns -0 — and the others run
// the kernel, a block at a time.
func (rd *rootDefer) filter(f *rowFilter, K int) (*filtered, error) {
	if f.pairs != nil {
		return rd.filterPairs(f, K)
	}
	n := rd.n
	var buf [filterBlock]float64
	var open [filterBlock]uint8
	h := newCutHist(f.span())
	for lo := 0; lo < n; lo += filterBlock {
		if err := rd.poll(); err != nil {
			return nil, err
		}
		u := buf[:min(filterBlock, n-lo)]
		f.fill(u, lo, true)
		h.add(u)
	}
	fr := newFiltered(n, K)
	fr.T, fr.iT = f.cut(h, n, K, buf[:])
	T, iT, nNaN := fr.T, fr.iT, 0
	for lo := 0; lo < n; lo += filterBlock {
		if err := rd.poll(); err != nil {
			return nil, err
		}
		l := buf[:min(filterBlock, n-lo)]
		f.fill(l, lo, false)
		f.open(open[:len(l)])
		surv := slices.Grow(fr.surv, len(l))
		kept, m := surv[:len(surv)+len(l)], len(surv)
		for t, x := range l {
			i := lo + t
			kept[m] = i
			m += b2i(x < T) | b2i(x == T)&b2i(i <= iT) | int(open[t])
			nNaN += b2i(x != x)
		}
		rd.admit(fr, f, kept[len(surv):m], lo, l)
		fr.surv = kept[:m]
	}
	fr.nNaN = nNaN
	return fr, nil
}

// filterPairs is filter over the groups of f.pairs, whose rows share
// their codes and so their bounds. Pass one counts each group's upper
// bound once, weighted by its rows (countPairs). The cut reads the
// crossing slot's groups alone (slotGroups, cutPairs). Pass two sets, in
// an n-bit row set, the rows of every group whose lower bound lies below
// the cut, and of a group at the cut its rows up to iT (keepGroups), and
// admits the set rows in row order; a group whose lower bound is NaN is
// proven NaN. The survivors, their values, the cut and the NaN count are
// the row passes', bit for bit.
func (rd *rootDefer) filterPairs(f *rowFilter, K int) (*filtered, error) {
	n := rd.n
	h := newCutHist(f.span())
	f.countPairs(h)
	fr := newFiltered(n, K)
	cut := &pairCut{T: math.Inf(1), iT: math.MaxInt}
	if s, need, ok := h.find(K); ok {
		cut = f.cutPairs(f.slotGroups(h, s), need)
	}
	if err := rd.poll(); err != nil {
		return nil, err
	}
	set := make([]uint64, (n+63)/64)
	fr.nNaN = f.keepGroups(set, cut)
	fr.T, fr.iT = cut.T, cut.iT
	var l [filterBlock]float64
	var kept []int
	c0, c1 := f.codes[0], f.codes[1]
	for lo := 0; lo < n; lo += filterBlock {
		kept = kept[:0]
		for w := lo >> 6; w < min(lo+filterBlock+63, n+63)>>6; w++ {
			for word := set[w]; word != 0; word &= word - 1 {
				i := w<<6 | bits.TrailingZeros64(word)
				kept = append(kept, i)
				l[i-lo] = f.pair(f.lo, int(c0[i]), int(c1[i]))
			}
		}
		if len(kept) == 0 {
			continue
		}
		if err := rd.poll(); err != nil {
			return nil, err
		}
		rd.admit(fr, f, kept, lo, l[:])
		fr.surv = append(fr.surv, kept...)
	}
	return fr, nil
}

// RankRoot ranks a deferred root: it selects the K smallest scaled
// combined distances — bit-identically, ties included, to selecting on
// the eagerly scaled vector — computing the exact combined value only
// of the rows the children's codes cannot rule out. vals and idx, when
// min(k, n) long, back the returned Sorted/Order slices (buffer
// pooling); wrong-sized buffers are replaced. pairs, when non-nil, is
// asked by a root of two children without an OR's class bits, whose
// children both carry a code plane, for the PairIndex of the two planes:
// one it holds (NewPairIndex(a, b), which the ranking only reads), or
// nil. Given one, the filter visits the groups of rows instead of the
// rows (filterPairs), bit-identically. RankRoot is idempotent: a
// second call returns the first ranking. The only possible error is a
// tripped evaluation checkpoint (request deadline); a canceled call
// leaves no partial ranking memoized and the caller discards the run.
func (r *Result) RankRoot(k int, vals []float64, idx []int, pairs func(a, b *Codes) *PairIndex) (*RootRanking, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rd := r.root
	if rd == nil {
		return nil, nil
	}
	if rd.ranking != nil {
		return rd.ranking, nil
	}
	if err := rd.poll(); err != nil {
		return nil, err
	}
	n := rd.n
	k = max(0, min(k, n))
	nchunks := rd.chunkCount()
	if r.Combined != nil {
		// Someone materialized Combined before ranking: the raw buffer
		// now holds scaled values, so select on those directly.
		sorted, order := topk.SelectKWithIndex(r.Combined, k)
		rd.ranking = &RootRanking{Order: order, Sorted: sorted,
			NaNs: CountNaN(r.Combined), Chunks: nchunks}
		return rd.ranking, nil
	}
	if len(vals) != k {
		vals = make([]float64, k)
	}
	if len(idx) != k {
		idx = make([]int, k)
	}
	rk := &RootRanking{Order: idx, Sorted: vals, Chunks: nchunks}
	if n == 0 || k == 0 {
		rd.params, rd.paramsKnown = rd.paramsFromFull(), true
		rk.NaNs = CountNaN(rd.out)
		rd.ranking = rk
		return rk, nil
	}

	combineStart := time.Now()
	f := rd.newRowFilter(pairs)
	K := n // NaiveNormalize: the range needs every row
	if rd.keep >= 1 {
		K = max(k, rd.keep)
	}
	fr, err := rd.filter(f, K)
	if err != nil {
		return nil, err
	}
	surv, sv, T, iT, nNaN, touched := fr.surv, fr.sv, fr.T, fr.iT, fr.nNaN, fr.touched
	rk.Refined, rk.CombineTime = fr.refined, time.Since(combineStart)
	var lb [evalChunk]float64

	sel := topk.NewStreamSelector(k, fr.bufs.cands)
	sel.OfferAt(sv, surv)
	rs := scanRange(sv, 0, len(sv))
	cands, kth, complete := sel.Finish()
	nNaN += rs.nNaN
	scaleStart := time.Now()
	rd.params, rd.paramsKnown = rd.deriveParams(rs, nNaN, cands, sv, vals), true
	rk.NaNs = nNaN

	// Scale the survivors and resolve the tie class at the cut.
	rank := 0
	emit := func(s float64, i int) {
		vals[rank], idx[rank] = s, i
		rank++
	}
	below := slices.Grow(fr.bufs.below[:0], len(cands))
	if !complete {
		// Fewer than k comparable values: every comparable ranks (in
		// scaled order), NaNs fill the remainder by index. The cut let
		// every row through that its codes do not prove NaN, so a row
		// the filter did not refine is NaN.
		for _, c := range cands {
			below = append(below, rankedCand{s: rd.key(c.V), i: c.I})
		}
		emitRanked(below, emit)
		for i, s := 0, 0; rank < k && i < n; i++ {
			if s < len(surv) && surv[s] == i {
				s++
				if !math.IsNaN(sv[s-1]) {
					continue
				}
			}
			emit(math.NaN(), i)
		}
	} else {
		sK := rd.key(kth.V)
		// Raw-domain preimage of sK: (loTieEx, hiTie]. loTieEx is the
		// largest raw value scaling strictly below sK (NaN when none),
		// hiTie the largest scaling to ≤ sK. Monotonicity makes both
		// exact: raw > loTieEx ⇔ key(raw) ≥ sK, raw ≤ hiTie ⇔ key(raw) ≤ sK.
		// Combiner outputs are non-negative, so the bisection starts at 0.
		hiTie := topk.SupWhere(func(x float64) bool { return rd.key(x) <= sK }, 0, math.Inf(1))
		loTieEx := topk.SupWhere(func(x float64) bool { return rd.key(x) < sK }, 0, math.Inf(1))
		// The edges come from bisecting the transform, whose math.Pow (the
		// geometric and the Lp root) is monotone only to within an ulp or
		// so: a raw value within pad of an edge is placed by its key, as
		// the eager pipeline places it.
		pad := func(x float64) float64 {
			if rd.cb.t.kind != xformGeoRoot && rd.cb.t.kind != xformPowInv {
				return 0 // the other transforms round monotonically
			}
			return min(math.Abs(x)*1e-12, math.MaxFloat64)
		}
		tc := &tieClass{rd: rd, f: f, sK: sK, loTieEx: loTieEx,
			loIn: loTieEx + pad(loTieEx), loOut: loTieEx - pad(loTieEx), // NaN when no value scales below sK
			hiIn: hiTie - pad(hiTie), hiOut: hiTie + pad(hiTie)}
		// Strictly-below-the-cut candidates first.
		for _, c := range cands {
			if x := c.V; x <= tc.loOut || x <= tc.loIn && tc.class(x) < 0 {
				below = append(below, rankedCand{s: rd.key(x), i: c.I})
			}
		}
		emitRanked(below, emit)
		// Tie fill: walk indices ascending, chunk by chunk. A row the
		// filter did not refine lies lexicographically past the cut: its
		// lower bound is above T, or T past iT. So before row from none
		// reaches the tie class; from it on, the row's bounds place it
		// inside or outside, or the chunk's rows they cannot place are
		// refined together.
		from := n
		switch {
		case tc.hiOut > T && f.anyLower(n, T, tc.hiOut, lb[:filterBlock]):
			from = 0
		case tc.hiOut >= T && iT < n:
			from = iT + 1
		}
		if sK == 0 { // Zeros counts the class on demand
			rd.zeroClass, rd.zeros = tc, -1
		}
		var b tieChunk
		for c0, s := 0, 0; rank < k && c0 < n; c0 += evalChunk {
			c1, s0 := min(c0+evalChunk, n), s
			for s < len(surv) && surv[s] < c1 {
				s++
			}
			if c1 <= from {
				for t := s0; rank < k && t < s; t++ {
					if tc.holds(sv[t]) {
						emit(sK, surv[t])
					}
				}
				continue
			}
			if refined := tc.place(&b, c0, c1, max(c0, from), surv[s0:s], sv[s0:s]); refined > 0 {
				rk.Refined += refined
				touched[c0/evalChunk] = true
			}
			for i := c0; rank < k && i < c1; i++ {
				if tc.in(&b, i-c0) {
					emit(sK, i)
				}
			}
		}
	}
	for _, t := range touched {
		rk.Pruned += 1 - b2i(t)
	}
	rk.ScaleTime = time.Since(scaleStart)
	*fr.bufs = rankBufs{surv: surv, sv: sv, cands: cands, below: below}
	rankPool.Put(fr.bufs)
	rd.ranking = rk
	return rk, nil
}

// tieClass is the raw-domain preimage of a ranking's k-th scaled value
// sK: (loTieEx, hiTie], whose edges, padded where the transform rounds
// (in, out), place a row by its value or by its bounds under f.
type tieClass struct {
	rd                   *rootDefer
	f                    *rowFilter
	sK                   float64
	loTieEx, loIn, loOut float64
	hiIn, hiOut          float64
}

// class places a raw value's key below sK (-1), at it (0) or above it
// (1, and NaN).
func (tc *tieClass) class(x float64) int {
	switch {
	case x != x || x > tc.hiOut:
		return 1
	case x <= tc.hiIn && (tc.loTieEx != tc.loTieEx || x > tc.loIn):
		return 0
	case x <= tc.loOut:
		return -1
	}
	return cmp.Compare(tc.rd.key(x), tc.sK)
}

// holds reports whether a raw value scales to sK, bit for bit: no
// kernel returns -0.
func (tc *tieClass) holds(x float64) bool { return tc.class(x) == 0 }

// tieChunk is a chunk of rows as tieClass.place leaves it: each row's
// state (0 past the class, 1 in it, 2 exact) and an exact row's value.
type tieChunk struct {
	lb, ub [evalChunk]float64
	state  [evalChunk]uint8
	ids    []int
}

// place places the rows of the chunk c0..c1 from from on in the class by
// their bounds, given the chunk's survivors surv and their values sv: a
// survivor is exact, and the rows the bounds leave open are refined
// together, their count returned.
func (tc *tieClass) place(b *tieChunk, c0, c1, from int, surv []int, sv []float64) (refined int) {
	clear(b.state[:c1-c0])
	for _, i := range surv {
		b.state[i-c0] = 2
	}
	tc.f.fill(b.lb[:c1-c0], c0, false)
	tc.f.fill(b.ub[:c1-c0], c0, true)
	b.ids = b.ids[:0]
	for i := from; i < c1; i++ {
		lo, hi := b.lb[i-c0], b.ub[i-c0]
		switch {
		case b.state[i-c0] != 0 || lo != lo || lo > tc.hiOut:
		case hi <= tc.hiIn && (tc.loTieEx != tc.loTieEx || lo > tc.loIn):
			b.state[i-c0] = 1
		default:
			b.ids = append(b.ids, i)
			b.state[i-c0] = 2
		}
	}
	for t, i := range surv { // the bounds are read: ub holds every exact value
		b.ub[i-c0] = sv[t]
	}
	tc.rd.cb.rows(b.lb[:len(b.ids)], b.ids)
	for j, i := range b.ids {
		b.ub[i-c0] = b.lb[j]
	}
	return len(b.ids)
}

// in reports whether row j of the chunk b is in the class.
func (tc *tieClass) in(b *tieChunk, j int) bool {
	return b.state[j] == 1 || b.state[j] == 2 && tc.holds(b.ub[j])
}

// Zeros counts the rows whose scaled value is 0 when the ranking's k-th
// is (a selection saturated with exact answers), as the tie walk places
// them, once. It is -1 for a ranking whose k-th is not 0, and for a root
// not deferred.
func (r *Result) Zeros() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	rd := r.root
	switch {
	case rd == nil || rd.zeroClass == nil:
		return -1
	case rd.zeros >= 0:
		return rd.zeros
	}
	var b tieChunk
	rd.zeros = 0
	for c0 := 0; c0 < rd.n; c0 += evalChunk {
		c1 := min(c0+evalChunk, rd.n)
		rd.zeroClass.place(&b, c0, c1, c0, nil, nil)
		for j := range c1 - c0 {
			rd.zeros += b2i(rd.zeroClass.in(&b, j))
		}
	}
	return rd.zeros
}

// rankedCand is a survivor of the cut: its scaled value and index.
type rankedCand struct {
	s float64
	i int
}

// emitRanked emits rs in scaled order, ties by index — the exact
// display order (survivors are comparable: no NaN).
func emitRanked(rs []rankedCand, emit func(float64, int)) {
	slices.SortFunc(rs, func(a, b rankedCand) int {
		switch {
		case a.s < b.s:
			return -1
		case a.s > b.s:
			return 1
		}
		return cmp.Compare(a.i, b.i)
	})
	for _, r := range rs {
		emit(r.s, r.i)
	}
}

// materializeCombinedLocked produces the root's scaled combined vector
// from the deferred state — bit-identical to the eager pipeline — and
// memoizes it. Caller holds r.mu.
func (r *Result) materializeCombinedLocked() []float64 {
	rd := r.root
	if r.Combined != nil {
		return r.Combined
	}
	if !rd.paramsKnown {
		rd.params, rd.paramsKnown = rd.paramsFromFull(), true
	}
	rd.fillAll()
	finalizeRange(rd.out, rd.out, rd.cb.t, rd.params)
	r.ByNode[rd.node] = rd.out
	r.Combined = rd.out
	return rd.out
}

// RootValues returns the scaled combined distances of rows — Vec(root)
// at them, bit for bit — computing, while the vector is unmaterialized
// and the ranking has found its params, the raw values of those rows
// alone.
func (r *Result) RootValues(rows []int) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]float64, len(rows))
	rd := r.root
	if rd == nil || r.Combined != nil || !rd.paramsKnown {
		c := r.Combined
		if c == nil {
			c = r.materializeCombinedLocked()
		}
		for t, i := range rows {
			out[t] = c[i]
		}
		return out
	}
	for a := 0; a < len(rows); a += evalChunk {
		v := out[a:min(a+evalChunk, len(rows))]
		rd.cb.rows(v, rows[a:a+len(v)])
		for t, x := range v {
			v[t] = rd.key(x)
		}
	}
	return out
}

// finalizeRange applies the deferred scalar transform and the root
// normalization in one pass: dst[i] = p.Apply(t.apply(src[i])). dst
// and src may alias. Per element this is exactly the eager kernel tail
// followed by applyRange.
func finalizeRange(dst, src []float64, t rootTransform, p NormParams) {
	for i, d := range src {
		dst[i] = p.Apply(t.apply(d))
	}
}

// deferRoot assembles the deferred root instead of finishing it: cb is
// the root's combine, its children evaluated.
func (c *fusedCtx) deferRoot(root *Node, cb *combine) {
	c.res.root = &rootDefer{node: root, n: c.n, cb: cb, keep: c.keepOf(root),
		out: c.alloc(), checkpoint: c.opts.Checkpoint}
}
