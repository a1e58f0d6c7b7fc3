package relevance

import (
	"cmp"
	"math"
	"slices"
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
//     the rows whose NaN the codes leave open;
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

	cb   *combine      // the root's combine; nil for a leaf root
	t    rootTransform // cb's transform (the identity for a leaf root)
	keep int           // KeepCount of the root (0 under NaiveNormalize)

	// out holds raw combined values (a leaf root: its Dists): of every
	// row when full, else of the rows the ranking refined.
	out  []float64
	full bool

	params      NormParams // root normalization params
	paramsKnown bool
	ranking     *RootRanking

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

// refine writes the raw combined values of rows ids to dst and to out.
func (rd *rootDefer) refine(dst []float64, ids []int) {
	if rd.cb == nil {
		for t, i := range ids {
			dst[t] = rd.out[i]
		}
		return
	}
	rd.cb.rows(dst, ids)
	for t, i := range ids {
		rd.out[i] = dst[t]
	}
}

// key is the full monotone raw→display transform: the deferred scalar
// step composed with the root normalization. Bit-identical to what the
// eager pipeline computes per element.
func (rd *rootDefer) key(x float64) float64 {
	return rd.params.Apply(rd.t.apply(x))
}

// domainLo is the lower end of the raw domain for preimage bisection:
// combiner outputs are non-negative by construction, a leaf root's raw
// distances are arbitrary.
func (rd *rootDefer) domainLo() float64 {
	if rd.cb == nil {
		return math.Inf(-1)
	}
	return 0
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
	p := baseParams(nFinite, rd.t.apply(st.minFinite), rd.keep)
	switch {
	case p.NoFinite:
	case p.Kept == nFinite:
		p.DMax = rd.t.apply(st.maxFinite)
	case p.Kept <= len(cands):
		scratch = scratch[:len(cands)]
		for i, c := range cands {
			scratch[i] = c.V
		}
		p.DMax = rd.t.apply(topk.Threshold(scratch, p.Kept))
	default:
		p.DMax = rd.t.apply(topk.Threshold(refined, p.Kept))
	}
	return p
}

// paramsFromFull derives the root params with every row computed — the
// no-selection path (lazy Combined before any ranking, k = 0).
func (rd *rootDefer) paramsFromFull() NormParams {
	rd.fillAll()
	st := scanRange(rd.out, 0, rd.n)
	return rd.deriveParams(st, st.nNaN, nil, slices.Clone(rd.out), nil)
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
}

// filter runs the filter's two passes for the K smallest rows. Pass one
// counts the rows' upper bounds and finds the lexicographic K-th (upper
// bound, index) cut; the bounds are filled a block at a time from the
// codes, and never stored. Pass two keeps the rows whose (lower bound,
// index) is at most the cut: K rows lie at or below it exactly, so the
// kept ones hold the K smallest (value, index) pairs. It keeps too the
// rows whose codes leave them NaN or zero (rowFilter.open), which the
// NaN count needs decided. A NaN lower bound is a row the codes prove
// NaN. A survivor whose bounds meet (rowFilter.exact) is exact already —
// its lower bound plus 0, as no kernel returns -0 — and the others run
// the kernel, a block at a time; the exact values go to out too.
//
// Without a NaN row in any child, the least codes of an evaluator chunk
// bound all of its rows (rowFilter.chunkLeast): pass one takes the
// chunks in the order of those bounds and stops once K rows lie below
// every chunk left, and pass two skips a chunk whose rows all lie past
// the cut — on a clustered column, most of them.
func (rd *rootDefer) filter(f *rowFilter, K int) (*filtered, error) {
	n, nch := rd.n, rd.chunkCount()
	var buf, exact [filterBlock]float64
	var open [filterBlock]uint8
	var ids, at []int // a block's survivors that run the kernel, and their place in sv
	order, least := make([]int, nch), make([]float64, nch)
	for c := range order {
		order[c] = c
		if !f.nan {
			least[c] = f.chunkLeast(f.hi, c)
		}
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(least[a], least[b]) })
	h := newCutHist(f.span())
	counted := order
	for j, c := range order {
		if !f.nan && j > 0 && h.below(least[c]) >= K {
			counted = order[:j]
			break
		}
		for lo := c * evalChunk; lo < min((c+1)*evalChunk, n); lo += filterBlock {
			if err := rd.poll(); err != nil {
				return nil, err
			}
			u := buf[:min(filterBlock, n-lo)]
			f.fill(u, lo, true)
			h.add(u)
		}
	}
	slices.Sort(counted)
	fr := &filtered{surv: make([]int, 0, K+K/8), sv: make([]float64, 0, K+K/8),
		touched: make([]bool, nch)}
	fr.T, fr.iT = f.cut(h, counted, n, K, buf[:])
	T, iT, nNaN := fr.T, fr.iT, 0
	for lo := 0; lo < n; lo += filterBlock {
		if lo%evalChunk == 0 && !f.nan && f.chunkLeast(f.lo, lo/evalChunk) > T {
			lo += evalChunk - filterBlock // no row of the chunk reaches the cut
			continue
		}
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
		ids, at = ids[:0], at[:0]
		for _, i := range kept[len(surv):m] {
			if x := l[i-lo]; rd.cb != nil && f.exact(i) {
				rd.out[i] = x + 0
			} else {
				ids, at = append(ids, i), append(at, len(fr.sv))
				fr.touched[i/evalChunk] = true
			}
			fr.sv = append(fr.sv, rd.out[i])
		}
		if len(ids) > 0 {
			rd.refine(exact[:len(ids)], ids)
			for j, t := range at {
				fr.sv[t] = exact[j]
			}
			fr.refined += len(ids)
		}
		fr.surv = kept[:m]
	}
	fr.nNaN = nNaN
	return fr, nil
}

// RankRoot ranks a deferred root: it selects the K smallest scaled
// combined distances — bit-identically, ties included, to selecting on
// the eagerly scaled vector — computing the exact combined value only
// of the rows the children's codes cannot rule out. vals and idx, when
// min(k, n) long, back the returned Sorted/Order slices (buffer
// pooling); wrong-sized buffers are replaced. RankRoot is idempotent: a
// second call returns the first ranking. The only possible error is a
// tripped evaluation checkpoint (request deadline); a canceled call
// leaves no partial ranking memoized and the caller discards the run.
func (r *Result) RankRoot(k int, vals []float64, idx []int) (*RootRanking, error) {
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
		if rd.cb != nil {
			rd.params, rd.paramsKnown = rd.paramsFromFull(), true
		}
		rk.NaNs = CountNaN(rd.out)
		rd.ranking = rk
		return rk, nil
	}

	f := rd.newRowFilter()
	K := k
	if rd.cb != nil {
		K = n // NaiveNormalize: the range needs every row
		if rd.keep >= 1 {
			K = max(k, rd.keep)
		}
		rd.full = false
	}
	combineStart := time.Now()
	fr, err := rd.filter(f, K)
	if err != nil {
		return nil, err
	}
	surv, sv, T, iT, nNaN, touched := fr.surv, fr.sv, fr.T, fr.iT, fr.nNaN, fr.touched
	rk.Refined, rk.CombineTime = fr.refined, time.Since(combineStart)
	var lb [evalChunk]float64

	sel := topk.NewStreamSelector(k)
	sel.OfferAt(sv, surv)
	rs := scanRange(sv, 0, len(sv))
	cands, kth, complete := sel.Finish()
	nNaN += rs.nNaN
	scaleStart := time.Now()
	if rd.cb != nil { // a leaf root's params were computed at build
		rd.params = rd.deriveParams(rs, nNaN, cands, sv, vals)
	}
	rd.paramsKnown = true
	rk.NaNs = nNaN

	// Scale the survivors and resolve the tie class at the cut.
	rank := 0
	emit := func(s float64, i int) {
		vals[rank], idx[rank] = s, i
		rank++
	}
	if !complete {
		// Fewer than k comparable values: every comparable ranks (in
		// scaled order), NaNs fill the remainder by index. The cut let
		// every row through that its codes do not prove NaN, so a row
		// the filter did not refine is NaN.
		below := make([]rankedCand, len(cands))
		for j, c := range cands {
			below[j] = rankedCand{s: rd.key(c.V), i: c.I}
		}
		emitRanked(below, emit)
		for i, s := 0, 0; rank < k && i < n; i++ {
			if s < len(surv) && surv[s] == i {
				s++
				if !math.IsNaN(rd.out[i]) {
					continue
				}
			}
			emit(math.NaN(), i)
		}
	} else {
		sK := rd.key(kth.V)
		domLo := rd.domainLo()
		// Raw-domain preimage of sK: (loTieEx, hiTie]. loTieEx is the
		// largest raw value scaling strictly below sK (NaN when none),
		// hiTie the largest scaling to ≤ sK. Monotonicity makes both
		// exact: raw > loTieEx ⇔ key(raw) ≥ sK, raw ≤ hiTie ⇔ key(raw) ≤ sK.
		hiTie := topk.SupWhere(func(x float64) bool { return rd.key(x) <= sK }, domLo, math.Inf(1))
		loTieEx := topk.SupWhere(func(x float64) bool { return rd.key(x) < sK }, domLo, math.Inf(1))
		// The edges come from bisecting the transform, whose math.Pow (the
		// geometric and the Lp root) is monotone only to within an ulp or
		// so: a raw value within pad of an edge is placed by its key, as
		// the eager pipeline places it.
		pad := func(x float64) float64 {
			if rd.t.kind != xformGeoRoot && rd.t.kind != xformPowInv {
				return 0 // the other transforms round monotonically
			}
			return min(math.Abs(x)*1e-12, math.MaxFloat64)
		}
		loIn, loOut := loTieEx+pad(loTieEx), loTieEx-pad(loTieEx) // NaN when no value scales below sK
		hiIn, hiOut := hiTie-pad(hiTie), hiTie+pad(hiTie)
		// class places a raw value's key below sK (-1), at it (0) or above
		// it (1, and NaN).
		class := func(x float64) int {
			switch {
			case x != x || x > hiOut:
				return 1
			case x <= hiIn && (loTieEx != loTieEx || x > loIn):
				return 0
			case x <= loOut:
				return -1
			}
			return cmp.Compare(rd.key(x), sK)
		}
		// Strictly-below-the-cut candidates first.
		below := make([]rankedCand, 0, len(cands))
		for _, c := range cands {
			if x := c.V; x <= loOut || x <= loIn && class(x) < 0 {
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
		case hiOut > T && f.anyLower(n, T, hiOut, lb[:filterBlock]):
			from = 0
		case hiOut >= T && iT < n:
			from = iT + 1
		}
		tie := func(x float64) bool { return class(x) == 0 }
		// A combined root's tie scales to sK bit for bit (no kernel returns
		// -0); a leaf root's may be a -0 where sK is a +0, and its own.
		tieKey := func(i int) float64 {
			if rd.cb == nil {
				return rd.key(rd.out[i])
			}
			return sK
		}
		var ub [evalChunk]float64
		var state [evalChunk]uint8 // 0 past the class, 1 in it, 2 refined or a survivor
		var ids []int
		for c0, s := 0, 0; rank < k && c0 < n; c0 += evalChunk {
			c1 := min(c0+evalChunk, n)
			if c1 <= from {
				for ; rank < k && s < len(surv) && surv[s] < c1; s++ {
					if i := surv[s]; tie(rd.out[i]) {
						emit(tieKey(i), i)
					}
				}
				continue
			}
			clear(state[:c1-c0])
			for ; s < len(surv) && surv[s] < c1; s++ {
				state[surv[s]-c0] = 2
			}
			f.fill(lb[:c1-c0], c0, false)
			f.fill(ub[:c1-c0], c0, true)
			ids = ids[:0]
			for i := max(c0, from); i < c1; i++ {
				lo, hi := lb[i-c0], ub[i-c0]
				switch {
				case state[i-c0] == 2 || lo != lo || lo > hiOut:
				case hi <= hiIn && (loTieEx != loTieEx || lo > loIn):
					state[i-c0] = 1
				default:
					ids = append(ids, i)
					state[i-c0] = 2
				}
			}
			if len(ids) > 0 {
				rd.refine(lb[:len(ids)], ids)
				rk.Refined += len(ids)
				touched[c0/evalChunk] = true
			}
			for i := c0; rank < k && i < c1; i++ {
				if st := state[i-c0]; st == 1 || st == 2 && tie(rd.out[i]) {
					emit(tieKey(i), i)
				}
			}
		}
	}
	for _, t := range touched {
		rk.Pruned += 1 - b2i(t)
	}
	rk.ScaleTime = time.Since(scaleStart)
	rd.ranking = rk
	return rk, nil
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
	dst := rd.out
	if rd.cb == nil {
		// A leaf root's raw vector is the caller's Dists; scale into a
		// fresh (pooled) buffer like the eager path does.
		dst = r.allocVec()
	} else {
		rd.fillAll()
	}
	finalizeRange(dst, rd.out, rd.t, rd.params)
	r.ByNode[rd.node] = dst
	r.Combined = dst
	return dst
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
		rd.refine(v, rows[a:a+len(v)])
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
// the root's combine, its children evaluated, or nil for a leaf root,
// whose range params eval has already found.
func (c *fusedCtx) deferRoot(root *Node, cb *combine, params NormParams) {
	rd := &rootDefer{node: root, n: c.n, cb: cb, keep: c.keepOf(root), checkpoint: c.opts.Checkpoint}
	if cb != nil {
		rd.t = cb.t
		rd.out = c.alloc()
	} else {
		rd.out, rd.full = root.Dists, true
		rd.params, rd.paramsKnown = params, true
	}
	c.res.root = rd
}
