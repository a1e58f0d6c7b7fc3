package relevance

import (
	"math"
	"strconv"
	"strings"
	"sync"

	"repro/internal/topk"
)

// This file implements the incremental interior-normalization cache
// behind EvalOptions.InteriorFetch/InteriorStore.
//
// An interior node's RAW combined vector depends only on its subtree —
// the children's raw vectors, their weights (which fix both the
// combination coefficients and each child's keep count), the combiner
// kind, and the evaluation options feeding the kernels. It does NOT
// depend on the node's own weight: that enters only through the keep
// count of the node's own normalization range. An interactive weight
// drag therefore leaves every subtree that does not contain the dragged
// leaf bit-identical — yet the eager evaluator still re-runs each such
// node's fused pass (scale children, combine, scan) and re-selects its
// normalization range with an O(n) pass.
//
// InteriorEntry kills that last full-array pass. On a miss the
// evaluator stores the node's raw combined vector (a private copy),
// its per-chunk range scans, and an equal-width per-chunk histogram
// sketch of the finite values. On a hit the fused pass is skipped
// outright — the cached vector is borrowed read-only — and the
// normalization range for ANY keep count is answered from the sketch:
//
//   1. the cumulative histogram locates the bucket containing the
//      keep-th smallest finite value (the range maximum);
//   2. only chunks whose count in that bucket is non-zero are
//      re-scanned to gather the bucket's values;
//   3. a selection over the gathered candidates yields the exact order
//      statistic — the same float64 rangeOf would have found, because
//      the bucket function is monotone (orderstats.go).
//
// Exactness guard: when the crossing bucket touches more than half the
// chunks (adversarially flat distributions put every bucket in every
// chunk), the gather would approach a full pass — the entry falls back
// to the reference rangeOf over its cached vector instead: the guard
// decides how much work the answer costs, never its value. Repeated
// keeps (the common warm-rerun case) memoize to O(1).

// interiorBuckets is the sketch resolution: wide enough that a
// display-budget keep usually isolates a handful of chunks, small
// enough that the per-chunk counts stay a fraction of the raw vector
// (2 bytes x 128 buckets per 4096-value chunk = 1/128 of the data).
const interiorBuckets = 128

// InteriorEntry caches one interior node's raw combined vector together
// with the per-chunk statistics and the quantile sketch that answer its
// normalization range for any keep count without a full-vector pass.
// Entries are built by the evaluator (via EvalOptions.InteriorStore) and
// shared read-only across evaluations and sessions; Range is safe for
// concurrent use.
type InteriorEntry struct {
	raw   []float64   // private copy of the node's raw combined vector
	scans []rangeScan // per evalChunk, aligned with the fused pass
	total rangeScan   // merged scans

	bk     buckets  // over [total.minFinite, total.maxFinite]
	hist   []uint16 // chunk-major finite-value counts [ci*interiorBuckets+b]
	global []int    // per-bucket totals across chunks

	mu   sync.Mutex
	memo map[int]NormParams // keep -> params
}

// newInteriorEntry builds an entry from a just-computed raw combined
// vector. The vector is copied (the fused pass scales it in place
// afterwards); scans is retained as-is and must never be mutated.
func newInteriorEntry(out []float64, scans []rangeScan, total rangeScan) *InteriorEntry {
	e := &InteriorEntry{
		raw:   append([]float64(nil), out...),
		scans: scans,
		total: total,
		memo:  make(map[int]NormParams),
	}
	if total.nFinite == 0 {
		return e
	}
	var ok bool
	if e.bk, ok = newBuckets(total.minFinite, total.maxFinite, interiorBuckets); !ok {
		// All finite values equal (Range answers from the scan) or range
		// overflow (extremes near ±MaxFloat64; Range falls back to the
		// exact full selection): no usable bucketing.
		return e
	}
	nchunks := len(scans)
	e.hist = make([]uint16, nchunks*interiorBuckets)
	e.global = make([]int, interiorBuckets)
	for ci := 0; ci < nchunks; ci++ {
		lo := ci * evalChunk
		hi := lo + evalChunk
		if hi > len(e.raw) {
			hi = len(e.raw)
		}
		row := e.hist[ci*interiorBuckets : (ci+1)*interiorBuckets]
		for _, v := range e.raw[lo:hi] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			b := e.bk.of(v)
			row[b]++
			e.global[b]++
		}
	}
	return e
}

// Chunks returns the number of evaluator chunks the entry indexes.
func (e *InteriorEntry) Chunks() int { return len(e.scans) }

// Rows returns the length of the cached raw vector.
func (e *InteriorEntry) Rows() int { return len(e.raw) }

// Size returns the entry's approximate resident bytes — the
// memory-accounting handle for caches keeping entries resident.
func (e *InteriorEntry) Size() int {
	return 8*len(e.raw) + 48*len(e.scans) + 2*len(e.hist) + 8*len(e.global) + 64
}

// Range answers rangeOf(merged scan, raw, keep) for the cached vector:
// bit-identical params, answered from the memo, the sketch, or (guard)
// the reference selection. The second return is the number of chunks
// re-scanned to produce the answer — the attribution surfaced as
// SketchRescans (0 for memoized or O(1) answers, the full chunk count
// when the guard fell back).
func (e *InteriorEntry) Range(keep int) (NormParams, int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if p, ok := e.memo[keep]; ok {
		return p, 0
	}
	p, rescans := e.rangeLocked(keep)
	e.memo[keep] = p
	return p, rescans
}

func (e *InteriorEntry) rangeLocked(keep int) (NormParams, int) {
	st := e.total
	p := baseParams(st.nFinite, st.minFinite, keep)
	keep = p.Kept
	switch {
	case p.NoFinite:
		return p, 0
	case keep == st.nFinite || st.maxFinite == st.minFinite:
		// Everything kept, or every finite value equal: any such order
		// statistic is the maximum.
		p.DMax = st.maxFinite
		return p, 0
	case e.hist == nil:
		// Degenerate bounds: exact reference selection over the cache.
		return rangeOf(st, e.raw, keep), e.Chunks()
	}
	// Walk the cumulative histogram to the bucket holding the keep-th
	// smallest finite value; rank is its order within that bucket.
	beta, rank := interiorBuckets-1, keep
	for b := 0; b < interiorBuckets; b++ {
		if rank <= e.global[b] {
			beta = b
			break
		}
		rank -= e.global[b]
	}
	nchunks := e.Chunks()
	touched := 0
	for ci := 0; ci < nchunks; ci++ {
		if e.hist[ci*interiorBuckets+beta] > 0 {
			touched++
		}
	}
	if 2*touched > nchunks {
		// Guard: the crossing bucket spans most chunks, so the gather
		// would approach a full pass — take the reference path (same
		// value, honest attribution).
		return rangeOf(st, e.raw, keep), nchunks
	}
	cands := make([]float64, 0, e.global[beta])
	for ci := 0; ci < nchunks; ci++ {
		if e.hist[ci*interiorBuckets+beta] == 0 {
			continue
		}
		lo := ci * evalChunk
		hi := lo + evalChunk
		if hi > len(e.raw) {
			hi = len(e.raw)
		}
		for _, v := range e.raw[lo:hi] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			if e.bk.of(v) == beta {
				cands = append(cands, v)
			}
		}
	}
	// Values in buckets below beta are strictly smaller than every
	// candidate, so the keep-th smallest overall is the rank-th smallest
	// candidate — the exact order statistic rangeOf selects.
	p.DMax = topk.Threshold(cands, rank)
	return p, touched
}

// sig returns the cache signature of node's raw combined vector: the
// structural identity of the subtree (ops, leaf labels, per-child
// weights in hex-float — children's weights fix their keep counts and
// combination coefficients) prefixed with every evaluation option that
// feeds the kernels. The node's OWN weight is deliberately excluded:
// the raw vector does not depend on it, which is exactly what lets a
// weight drag on the node itself (or on its siblings) reuse the entry.
// Callers compose this with their data identity (dataset epoch,
// predicate cache version) to form the full cache key.
func (c *fusedCtx) sig(node *Node) string {
	if c.optsSig == "" {
		c.optsSig = "m" + strconv.Itoa(int(c.opts.Mode)) +
			"|a" + strconv.Itoa(int(c.opts.And)) +
			"|p" + hexFloat(c.opts.LpP) +
			"|b" + strconv.Itoa(c.opts.Budget) +
			"|nn" + strconv.FormatBool(c.opts.NaiveNormalize) +
			"|n" + strconv.Itoa(c.n) + "|"
	}
	return c.optsSig + c.structSig(node)
}

// structSig is the memoized structural part of sig.
func (c *fusedCtx) structSig(node *Node) string {
	if c.sigs == nil {
		c.sigs = make(map[*Node]string)
	}
	if s, ok := c.sigs[node]; ok {
		return s
	}
	var s string
	if node.Op == Leaf {
		s = "L:" + node.Label
		if c.opts.LeafID != nil {
			if id := c.opts.LeafID(node); id != "" {
				s = "L:" + id
			}
		}
	} else {
		var b strings.Builder
		if node.Op == NodeAnd {
			b.WriteByte('A')
		} else {
			b.WriteByte('O')
		}
		b.WriteByte('(')
		for j, ch := range node.Children {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(c.structSig(ch))
			b.WriteString("|w")
			b.WriteString(hexFloat(ch.EffWeight()))
		}
		b.WriteByte(')')
		s = b.String()
	}
	c.sigs[node] = s
	return s
}

// hexFloat formats v losslessly (hex mantissa), so signatures
// distinguish weights that decimal formatting would collapse.
func hexFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// entryFits reports whether a fetched entry matches this evaluation's
// shape (vector length and chunking).
func (c *fusedCtx) entryFits(e *InteriorEntry) bool {
	return e != nil && e.Rows() == c.n && e.Chunks() == c.chunkCount()
}

// collectSubtreeEntries fetches the cache entries of every interior
// DESCENDANT of node (node's own entry is the caller's). The hit is
// only taken when all of them are present: Result.Vec may be asked for
// any descendant's window (drill-down), so every skipped node must
// remain materializable from its own entry. A partial cache (an
// eviction split the subtree) degrades to a miss, never to a missing
// window.
func (c *fusedCtx) collectSubtreeEntries(node *Node) (map[*Node]*InteriorEntry, bool) {
	entries := map[*Node]*InteriorEntry{}
	var walk func(n *Node) bool
	walk = func(n *Node) bool {
		for _, ch := range n.Children {
			if ch.Op == Leaf {
				continue
			}
			e := c.opts.InteriorFetch(c.sig(ch))
			if !c.entryFits(e) {
				return false
			}
			entries[ch] = e
			if !walk(ch) {
				return false
			}
		}
		return true
	}
	return entries, walk(node)
}

// useInteriorEntry is the fused evaluator's cache-hit path for an
// interior node: the combine passes of the whole subtree are skipped,
// the cached raw vector is borrowed READ-ONLY, and the normalization
// ranges come from the entries' sketches. Descendant leaves still
// contribute their display params (lazily materialized via Result.Vec
// — their vectors were never inputs to the cached combines, only their
// params were); descendant interior nodes register their own entries
// for lazy materialization.
func (c *fusedCtx) useInteriorEntry(node *Node, e *InteriorEntry, entries map[*Node]*InteriorEntry) ([]float64, NormParams, error) {
	var regLeaves func(n *Node) error
	regLeaves = func(n *Node) error {
		for _, child := range n.Children {
			if child.Op != Leaf {
				if err := regLeaves(child); err != nil {
					return err
				}
				continue
			}
			_, p, err := c.eval(child)
			if err != nil {
				return err
			}
			if c.res.lazy == nil {
				c.res.lazy = make(map[*Node]NormParams)
			}
			c.res.lazy[child] = p
		}
		return nil
	}
	if err := regLeaves(node); err != nil {
		return nil, NormParams{}, err
	}
	for d, de := range entries {
		p, rescans := de.Range(c.keepOf(d))
		if c.res.lazyInt == nil {
			c.res.lazyInt = make(map[*Node]lazyInterior)
		}
		c.res.lazyInt[d] = lazyInterior{raw: de.raw, p: p}
		c.res.SketchHits++
		c.res.SketchRescans += rescans
	}
	if c.nodeScans != nil {
		c.nodeScans[node] = e.scans
	}
	c.res.markBorrowed(node)
	c.res.ByNode[node] = e.raw
	p, rescans := e.Range(c.keepOf(node))
	c.res.SketchHits++
	c.res.SketchRescans += rescans
	return e.raw, p, nil
}
