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
// The deferred root therefore:
//
//  1. combines chunks into RAW values only, on demand, chunk by chunk —
//     the root's combine.chunk, the one producer of every interior
//     node's chunks too, without the transform an interior pass adds;
//  2. streams raw values through a threshold-seeded lexicographic
//     (value, index) selector — topk.StreamSelector — skipping whole
//     chunks whose precomputed raw lower bound cannot beat the running
//     k-th candidate (block pruning; the bounds fold the per-leaf chunk
//     range stats through the monotone child scalings);
//  3. applies the deferred transforms only to the selected survivors,
//     and resolves the clamp-induced tie class at the cut EXACTLY: the
//     raw-domain preimage [loTie, hiTie] of the k-th scaled value is
//     found by monotone bisection (topk.SupWhere), every processed
//     element inside it is a tie ordered by index, and a skipped chunk
//     either provably sits inside the tie class (preimage unbounded —
//     the Scale clamp), provably outside it (bound > hiTie), or is
//     materialized after all.
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
	// Threshold is the raw-domain k-th value — the seed for the next
	// recalculation's pruning. NaN when the selection had fewer than k
	// comparable values.
	Threshold float64
	// Pruned and Chunks attribute the block pruning: chunks whose
	// combine work was skipped outright, out of the total.
	Pruned, Chunks int
	// ScaleTime is the portion of the ranking spent scaling survivors
	// and resolving the tie cut (the engine's Scale stage).
	ScaleTime time.Duration
	// CombineTime is the portion of the selection sweep spent producing
	// the raw root values it selects from: scaling the children's
	// chunks, combining them and scanning the result for its range.
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

	out   []float64 // raw combined values (a leaf root: its Dists)
	state []byte    // per chunk: 0 = unmaterialized, 1 = raw in out
	scans []rangeScan

	// Block-pruning inputs, valid when haveBounds: per-chunk raw lower
	// bound and NaN-freedom proof.
	bounds     []float64
	nanFree    []bool
	haveBounds bool

	// leafNaNs is the exact NaN count of a leaf root, known at build.
	leafNaNs int

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

func (rd *rootDefer) chunkSpan(ci int) (lo, hi int) {
	lo = ci * evalChunk
	hi = lo + evalChunk
	if hi > rd.n {
		hi = rd.n
	}
	return lo, hi
}

// ensureRaw materializes chunk ci's raw combined values into out. A
// leaf root's raw values ARE node.Dists: the chunk is only marked as
// available to the tie walk.
func (rd *rootDefer) ensureRaw(ci int) {
	if rd.state[ci] != 0 {
		return
	}
	if rd.cb != nil {
		lo, hi := rd.chunkSpan(ci)
		rd.cb.chunk(rd.out[lo:hi], lo, hi)
		rd.scans[ci] = scanRange(rd.out, lo, hi)
	}
	rd.state[ci] = 1
}

// ensureAllRaw materializes every chunk.
func (rd *rootDefer) ensureAllRaw() {
	for ci := 0; ci < rd.chunkCount(); ci++ {
		rd.ensureRaw(ci)
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

// deriveParams computes the root NormParams after a completed
// selection. cands are the collected candidates (the k lex-smallest
// raw values), pruned reports whether any chunk was skipped, and
// scratch is a buffer of at least len(cands) values to select in (the
// ranking's own output buffer, not yet written). The derived params are
// value-identical to the eager rangeOf over the scaled vector: order
// statistics commute with the monotone deferred transform.
func (rd *rootDefer) deriveParams(cands []topk.Cand, pruned bool, scratch []float64) NormParams {
	st := newRangeScan()
	for ci := 0; ci < rd.chunkCount(); ci++ {
		if rd.state[ci] != 0 {
			st.merge(rd.scans[ci])
		}
	}
	if pruned {
		// Skipped chunks are provably NaN-free (the gate) and the
		// deferrable check excludes infinities from the raw domain, so
		// the finite count is exact without touching them. Their minima
		// cannot undercut the candidates' (every skipped element is
		// lex-beyond the running k-th), so the merged minimum stands.
		st.nFinite = rd.n - st.nNaN
	}
	p := baseParams(st.nFinite, rd.t.apply(st.minFinite), rd.keep)
	keep := p.Kept
	switch {
	case p.NoFinite:
	case keep >= st.nFinite:
		// Everything kept: the maximum decides. Unreachable when chunks
		// were skipped (the pruning gate bounds keep by the candidate
		// count), so the merged maximum is the global one.
		p.DMax = rd.t.apply(st.maxFinite)
	case keep <= len(cands):
		// The keep smallest values all live in the candidate set (they
		// are the k lex-smallest, keep ≤ k).
		scratch = scratch[:len(cands)]
		for i, c := range cands {
			scratch[i] = c.V
		}
		p.DMax = rd.t.apply(topk.Threshold(scratch, keep))
	default:
		// keep exceeds the selection depth (a low root weight keeps more
		// of the vector than the display budget selects). Pruning is
		// gated off in this regime, so the full raw vector is
		// materialized; select on it directly.
		p.DMax = rd.t.apply(topk.Threshold(slices.Clone(rd.out), keep+st.nNegInf))
	}
	return p
}

// paramsFromFull derives the root params with every chunk
// materialized — the no-selection path (lazy Combined before any
// ranking, defensive fallbacks). With no candidates and nothing
// pruned, deriveParams takes exactly the full-vector branches.
func (rd *rootDefer) paramsFromFull() NormParams {
	rd.ensureAllRaw()
	return rd.deriveParams(nil, false, nil)
}

// nanTotal is the exact count of NaN combined values after a selection
// pass: processed chunks report theirs, skipped chunks are NaN-free by
// the pruning gate.
func (rd *rootDefer) nanTotal() int {
	if rd.cb == nil {
		return rd.leafNaNs
	}
	total := 0
	for ci := 0; ci < rd.chunkCount(); ci++ {
		if rd.state[ci] != 0 {
			total += rd.scans[ci].nNaN
		}
	}
	return total
}

// boundBeats reports whether a chunk (raw lower bound b, first index
// first) provably cannot contribute anything lexicographically below
// the selector bound (bv, bi): every element of the chunk has value
// ≥ b and index ≥ first.
func boundBeats(b float64, first int, bv float64, bi int) bool {
	return b > bv || (b == bv && first > bi)
}

// RankRoot ranks a deferred root: it selects the K smallest scaled
// combined distances — bit-identically, ties included, to selecting on
// the eagerly scaled vector — while skipping the combine work of every
// chunk whose raw lower bound cannot beat the running selection
// threshold. seed carries the previous recalculation's raw k-th value
// (NaN for none): a stale seed can only cost a re-run, never
// correctness. vals and idx, when min(k, n) long, back the returned
// Sorted/Order slices (buffer pooling); wrong-sized buffers are
// replaced. RankRoot is idempotent: a second call returns the first
// ranking. The only possible error is a tripped evaluation checkpoint
// (request deadline); a canceled call leaves no partial ranking
// memoized and the caller discards the run.
func (r *Result) RankRoot(k int, seed float64, vals []float64, idx []int) (*RootRanking, error) {
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
	if k > n {
		k = n
	}
	if k < 0 {
		k = 0
	}
	if r.Combined != nil {
		// Someone materialized Combined before ranking: the raw buffer
		// now holds scaled values, so select on those directly.
		sorted, order := topk.SelectKWithIndex(r.Combined, k)
		rd.ranking = &RootRanking{Order: order, Sorted: sorted,
			NaNs: CountNaN(r.Combined), Threshold: math.NaN(), Chunks: rd.chunkCount()}
		return rd.ranking, nil
	}
	if len(vals) != k {
		vals = make([]float64, k)
	}
	if len(idx) != k {
		idx = make([]int, k)
	}
	rk := &RootRanking{Order: idx, Sorted: vals, Chunks: rd.chunkCount(), Threshold: math.NaN()}
	if n == 0 || k == 0 {
		rd.ensureAllRaw()
		if !rd.paramsKnown {
			rd.params, rd.paramsKnown = rd.paramsFromFull(), true
		}
		rk.NaNs = rd.nanTotal()
		rd.ranking = rk
		return rk, nil
	}

	// Phase 1: stream raw values chunk by chunk through the selector,
	// skipping chunks the bound rules out. The checkpoint is polled per
	// chunk, so a deadline interrupts the sweep mid-selection.
	prunable := rd.haveBounds && (rd.cb == nil || (rd.keep >= 1 && rd.keep <= k))
	pass := func(sel *topk.StreamSelector) (pruned int, err error) {
		for ci := 0; ci < rd.chunkCount(); ci++ {
			if err := rd.poll(); err != nil {
				return 0, err
			}
			lo, hi := rd.chunkSpan(ci)
			if prunable && rd.state[ci] == 0 && rd.nanFree[ci] {
				if bv, bi, ok := sel.Bound(); ok && boundBeats(rd.bounds[ci], lo, bv, bi) {
					pruned++
					continue
				}
			}
			combineStart := time.Now()
			rd.ensureRaw(ci)
			rk.CombineTime += time.Since(combineStart)
			sel.OfferSlice(rd.out[lo:hi], lo)
		}
		return pruned, nil
	}
	sel := topk.NewStreamSelector(k, seed)
	pruned, err := pass(sel)
	if err != nil {
		return nil, err
	}
	cands, kth, complete := sel.Finish()
	if !complete && (pruned > 0 || !math.IsNaN(seed)) {
		// The carried-over threshold was too tight for the perturbed
		// distribution (weights moved the raw domain): re-run unseeded.
		// Materialized chunks are memoized, so this costs at most one
		// extra sweep.
		sel = topk.NewStreamSelector(k, math.NaN())
		pruned, err = pass(sel)
		if err != nil {
			return nil, err
		}
		cands, kth, complete = sel.Finish()
	}
	if pruned > 0 && rd.cb != nil {
		// Defensive: the stats shortcut in deriveParams needs the keep
		// clamp to be a no-op; the gate guarantees keep ≤ k ≤ collected
		// candidates ≤ finite count, so reaching here with keep out of
		// range means a bound was wrong — materialize and fall back.
		if !complete || rd.keep < 1 || rd.keep > len(cands) {
			rd.ensureAllRaw()
			pruned = 0
		}
	}
	scaleStart := time.Now()

	// Phase 2: derive the root params (raw-domain order statistics
	// mapped through the monotone transform).
	if rd.cb != nil { // a leaf root's were computed at build (quantile index or full scan)
		rd.params = rd.deriveParams(cands, pruned > 0, vals)
	}
	rd.paramsKnown = true
	rk.NaNs = rd.nanTotal()

	// Phase 3: scale the survivors and resolve the tie class at the cut.
	rank := 0
	emit := func(s float64, i int) {
		vals[rank], idx[rank] = s, i
		rank++
	}
	if complete {
		rk.Threshold = kth.V
		sK := rd.key(kth.V)
		domLo := rd.domainLo()
		// Raw-domain preimage of sK: (loTieEx, hiTie]. loTieEx is the
		// largest raw value scaling strictly below sK (NaN when none),
		// hiTie the largest scaling to ≤ sK. Monotonicity makes both
		// exact: raw > loTieEx ⇔ key(raw) ≥ sK, raw ≤ hiTie ⇔ key(raw) ≤ sK.
		hiTie := topk.SupWhere(func(x float64) bool { return rd.key(x) <= sK }, domLo, math.Inf(1))
		loTieEx := topk.SupWhere(func(x float64) bool { return rd.key(x) < sK }, domLo, math.Inf(1))
		// Strictly-below-the-cut candidates, in scaled order with index
		// tiebreaks (distinct raw values may collide in scaled space).
		below := make([]rankedCand, 0, k)
		for _, c := range cands {
			if !math.IsNaN(loTieEx) && c.V <= loTieEx {
				below = append(below, rankedCand{s: rd.key(c.V), i: c.I})
			}
		}
		sortRanked(below)
		for _, b := range below {
			emit(b.s, b.i)
		}
		// Tie fill: walk indices ascending. A skipped chunk is wholly
		// inside the tie class when the preimage is unbounded (the Scale
		// clamp), wholly outside when its bound exceeds hiTie, and
		// materialized otherwise.
		for i := 0; rank < k && i < n; {
			ci := i / evalChunk
			if rd.state[ci] == 0 {
				_, hi := rd.chunkSpan(ci)
				if !(rd.bounds[ci] <= hiTie) {
					i = hi
					continue
				}
				if math.IsInf(hiTie, 1) {
					for ; i < hi && rank < k; i++ {
						emit(sK, i)
					}
					continue
				}
				rd.ensureRaw(ci)
			}
			v := rd.out[i]
			if v <= hiTie && (math.IsNaN(loTieEx) || v > loTieEx) {
				emit(sK, i)
			}
			i++
		}
	} else {
		// Fewer than k comparable values: every comparable ranks (in
		// scaled order), NaNs fill the remainder by index. Nothing was
		// skipped on this path, so out is fully materialized.
		below := make([]rankedCand, 0, len(cands))
		for _, c := range cands {
			below = append(below, rankedCand{s: rd.key(c.V), i: c.I})
		}
		sortRanked(below)
		for _, b := range below {
			emit(b.s, b.i)
		}
		for i := 0; rank < k && i < n; i++ {
			if math.IsNaN(rd.out[i]) {
				emit(math.NaN(), i)
			}
		}
	}
	rk.Pruned = pruned
	rk.ScaleTime = time.Since(scaleStart)
	rd.ranking = rk
	return rk, nil
}

// rankedCand is a survivor of the cut: its scaled value and index.
type rankedCand struct {
	s float64
	i int
}

// sortRanked sorts by (scaled value, index) — the exact display order.
// NaNs cannot occur (candidates are comparable by construction).
func sortRanked(rs []rankedCand) {
	slices.SortFunc(rs, func(a, b rankedCand) int {
		switch {
		case a.s < b.s:
			return -1
		case a.s > b.s:
			return 1
		}
		return cmp.Compare(a.i, b.i)
	})
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
	rd.ensureAllRaw()
	dst := rd.out
	if rd.cb == nil {
		// A leaf root's raw vector is the caller's Dists; scale into a
		// fresh (pooled) buffer like the eager path does.
		dst = r.allocVec()
	}
	finalizeRange(dst, rd.out, rd.t, rd.params)
	r.ByNode[rd.node] = dst
	r.Combined = dst
	return dst
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
	nchunks := rd.chunkCount()
	rd.state = make([]byte, nchunks)
	rd.scans = make([]rangeScan, nchunks)
	if cb != nil {
		rd.t = cb.t
		rd.out = c.alloc()
		rd.buildBounds(root.Children)
		c.res.root = rd
		return
	}
	rd.out = root.Dists
	rd.params, rd.paramsKnown = params, true
	switch {
	case root.Quantiles != nil:
		rd.leafNaNs = root.Quantiles.NaNs()
	case root.ChunkStats != nil && root.ChunkStats.Chunks() == nchunks:
		for _, nan := range root.ChunkStats.nans {
			rd.leafNaNs += int(nan)
		}
	default:
		rd.leafNaNs = CountNaN(root.Dists)
	}
	if st := root.ChunkStats; st != nil && st.Chunks() == nchunks {
		rd.bounds = st.mins
		rd.nanFree = make([]bool, nchunks)
		for ci := range rd.nanFree {
			rd.nanFree[ci] = st.nans[ci] == 0
		}
		rd.haveBounds = true
	}
	c.res.root = rd
}

// buildBounds folds the children's per-chunk stats — a leaf's from its
// caller, an interior node's from its own pass or its cached vector —
// into raw lower bounds on the root's combined value, chunk by chunk (a
// child without stats disables pruning for the whole run: correctness
// never depends on bounds).
func (rd *rootDefer) buildBounds(children []*Node) {
	nchunks := rd.chunkCount()
	mins := make([][]float64, len(children))
	nans := make([][]int32, len(children))
	for j, child := range children {
		st := child.ChunkStats
		if st == nil || st.Chunks() != nchunks {
			return
		}
		mins[j], nans[j] = st.mins, st.nans
	}
	rd.bounds, rd.nanFree = rd.cb.bounds(mins, nans)
	rd.haveBounds = true
}
