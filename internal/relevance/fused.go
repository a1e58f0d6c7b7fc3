package relevance

import "fmt"

// This file implements the chunk-fused evaluator behind Evaluate. The
// node-at-a-time pipeline made ~7 O(n) passes per node — normalize the
// leaves (scan + selection + write), combine (read + write), scan the
// combined vector, re-normalize it (write) — each allocating an n-sized
// vector per node per run. The fused evaluator restructures the same
// arithmetic:
//
//  1. Leaf normalization ranges are computed first (a scan plus a
//     selection per leaf; nothing is written).
//  2. Each interior node runs ONE chunked pass that scales its leaf
//     children into their output buffers, finalizes interior children
//     in place, combines the scaled chunk, and folds the combined
//     chunk into the node's range statistics — all while the chunk is
//     cache-hot.
//  3. Output buffers come from EvalOptions.Alloc, so an interactive
//     session reruns with zero n-sized allocations.
//
// Every per-element transform and combination kernel is shared with
// Normalize/CombineAnd/CombineOr/CombineLp, so fused results are
// bit-identical to the reference pipeline (asserted by property tests).

// evalChunk is the fused pass chunk length: large enough to amortize
// the per-chunk bookkeeping, small enough that a chunk of every child
// vector fits in cache together.
const evalChunk = 4096

// EvalChunk exports the evaluator chunk length — the granularity of
// LeafChunkStats and of the deferred-root block pruning. Callers that
// synthesize per-chunk masks from external statistics (the dataset
// layer's per-segment footer stats) must check their unit matches.
const EvalChunk = evalChunk

// evaluateFused is the Evaluate implementation.
func evaluateFused(root *Node, n int, opts EvalOptions) (*Result, error) {
	if root == nil {
		return nil, fmt.Errorf("relevance: nil tree")
	}
	ctx := &fusedCtx{opts: opts, n: n,
		res: &Result{ByNode: make(map[*Node][]float64), n: n, alloc: opts.Alloc}}
	if opts.DeferRoot && deferralSafe(root, opts) {
		// Rank-before-scale: children evaluate fully (their passes are
		// needed for the root's normalization inputs), the root itself
		// stays raw and chunk-lazy — see rootrank.go. Unsafe transforms
		// (deferralSafe false) fall through to the eager root below.
		ctx.nodeStats = make(map[*Node]*LeafChunkStats)
		if err := ctx.buildDeferredRoot(root); err != nil {
			return nil, err
		}
		return ctx.res, nil
	}
	vec, params, err := ctx.eval(root)
	if err != nil {
		return nil, err
	}
	if err := ctx.checkpoint(); err != nil {
		return nil, err
	}
	// Finalize the root: its combined vector scales in place (the
	// buffer is ctx-owned); a leaf root scales into a fresh buffer,
	// since node.Dists belongs to the caller, and so does a root served
	// by an interior cache hit (a read-only vector). The root always
	// materializes — Combined is the interface's primary output.
	out := vec
	if _, cached := ctx.res.lazy[root]; cached || root.Op == Leaf {
		out = ctx.alloc()
		delete(ctx.res.lazy, root)
	}
	ctx.forChunks(func(_, lo, hi int) {
		applyRange(out[lo:hi], vec[lo:hi], params)
	})
	if err := ctx.checkpoint(); err != nil {
		return nil, err
	}
	ctx.res.ByNode[root] = out
	ctx.res.Combined = out
	return ctx.res, nil
}

// fusedCtx carries one evaluation's state. Nodes are processed strictly
// bottom-up on the calling goroutine, so ByNode needs no locking.
type fusedCtx struct {
	opts EvalOptions
	n    int
	res  *Result
	// nodeStats retains each interior node's per-chunk stats when the
	// root is deferred: the block-pruning bounds of the root fold the
	// chunk minima (and NaN counts) of its interior children.
	nodeStats map[*Node]*LeafChunkStats
	// sigs/optsSig memoize the interior cache signatures (interior.go);
	// populated only when the Interior hooks are set.
	sigs    map[*Node]string
	optsSig string
}

// alloc returns an n-sized output buffer, from the caller's pool when
// one is provided. Buffers are fully overwritten before being read, so
// recycled (dirty) buffers are fine.
func (c *fusedCtx) alloc() []float64 {
	if c.opts.Alloc != nil {
		if b := c.opts.Alloc(c.n); len(b) == c.n {
			return b
		}
	}
	return make([]float64, c.n)
}

// keepOf is the per-node reduction count of the reduction-first
// normalization (0 = keep everything, the A1 ablation).
func (c *fusedCtx) keepOf(node *Node) int {
	if c.opts.NaiveNormalize {
		return 0
	}
	return KeepCount(c.opts.Budget, c.n, node.EffWeight())
}

// checkpoint polls the caller's cancellation hook (always nil-safe).
func (c *fusedCtx) checkpoint() error {
	if c.opts.Checkpoint == nil {
		return nil
	}
	return c.opts.Checkpoint()
}

// eval processes one subtree and returns the node's UNSCALED vector
// together with the params that scale it: for leaves the raw Dists, for
// interior nodes the combined-but-not-yet-renormalized vector (already
// stored in ByNode; the parent — or the root finalizer — scales it in
// place to its final form).
func (c *fusedCtx) eval(node *Node) ([]float64, NormParams, error) {
	if err := c.checkpoint(); err != nil {
		return nil, NormParams{}, err
	}
	switch node.Op {
	case Leaf:
		if len(node.Dists) != c.n {
			return nil, NormParams{}, fmt.Errorf("relevance: leaf %q has %d distances, want %d", node.Label, len(node.Dists), c.n)
		}
		return node.Dists, indexedRange(node.Dists, node.Quantiles, node.Zeros, c.keepOf(node)), nil
	case NodeAnd, NodeOr:
		if len(node.Children) == 0 {
			return nil, NormParams{}, fmt.Errorf("relevance: %q has no children", node.Label)
		}
		if node.Op == NodeAnd && c.opts.And == ANDLp && (c.opts.LpP < 1 || c.opts.LpP != c.opts.LpP) {
			// Match CombineLp's validation (NaN compares unequal to itself).
			return nil, NormParams{}, fmt.Errorf("relevance: Lp needs p >= 1, got %v", c.opts.LpP)
		}
		if c.opts.InteriorFetch != nil {
			if e, ok := c.fetchInterior(node); ok {
				// The subtree's raw combined vector is cached: skip the
				// whole subtree's fused passes and range the vector like a
				// leaf — provided every skipped descendant stays
				// materializable from its own vector.
				if entries, ok := c.collectSubtreeEntries(node); ok {
					return c.useInteriorEntry(node, e, entries)
				}
			}
		}
		k := len(node.Children)
		raw := make([][]float64, k)     // child vectors, unscaled
		scratch := make([][]float64, k) // chunk scratch; nil: the child finalizes in place
		cparams := make([]NormParams, k)
		weights := make([]float64, k)
		for j, child := range node.Children {
			v, p, err := c.eval(child)
			if err != nil {
				return nil, NormParams{}, err
			}
			raw[j], cparams[j] = v, p
			w := child.EffWeight()
			if w < 0 || w != w {
				return nil, NormParams{}, fmt.Errorf("relevance: invalid weight %v at %d", w, j)
			}
			weights[j] = w
			switch {
			case c.res.isLazy(child):
				// A cached interior child is read-only: it scales into
				// chunk-local scratch like a leaf.
				scratch[j] = make([]float64, evalChunk)
			case child.Op != Leaf:
				// Interior children finalize in place: their ByNode
				// buffer holds the raw combined vector until this pass
				// scales it.
			default:
				// Leaves scale into chunk-local scratch for the
				// combination and materialize later via Result.Vec.
				c.res.setLazy(child, v, p)
				scratch[j] = make([]float64, evalChunk)
			}
		}
		ws, effSum := resolveWeights(weights, k)
		combiner, t, lpP := kernelFor(node.Op, c.opts, effSum)
		out := c.alloc()
		// The fused pass: scale every child's chunk (in place, or into
		// chunk-sized scratch that stays L1-resident), combine the chunk,
		// and fold it into the node's range scan — one cache-hot sweep
		// instead of 2k+3 vector-length passes.
		vs := make([][]float64, k)
		chunkStats := make([]rangeScan, c.chunkCount())
		c.forChunks(func(ci, lo, hi int) {
			for j := range node.Children {
				dst := raw[j][lo:hi]
				if buf := scratch[j]; buf != nil {
					dst = buf[:hi-lo]
				}
				applyRange(dst, raw[j][lo:hi], cparams[j])
				vs[j] = dst
			}
			dst := out[lo:hi]
			combineRaw(combiner, dst, vs, ws, lpP)
			t.applyRange(dst)
			chunkStats[ci] = scanRange(out, lo, hi)
		})
		if err := c.checkpoint(); err != nil {
			// A canceled pass may have skipped chunks: nothing below
			// (stats, caches, ByNode) may see the partial buffers.
			return nil, NormParams{}, err
		}
		// Merge the per-chunk scans (min/max/count merging is exact).
		stats := newRangeScan()
		for _, st := range chunkStats {
			stats.merge(st)
		}
		if c.nodeStats != nil || c.opts.InteriorStore != nil {
			cs := chunkStatsOf(chunkStats)
			if c.nodeStats != nil {
				c.nodeStats[node] = cs
			}
			if c.opts.InteriorStore != nil {
				// Cache a copy of the RAW vector (the parent scales out in
				// place later) with its chunk stats, so the next
				// structurally identical rerun skips this whole pass.
				c.opts.InteriorStore(c.sig(node), append([]float64(nil), out...), cs)
			}
		}
		c.res.ByNode[node] = out
		return out, rangeOf(stats, out, c.keepOf(node)), nil
	default:
		return nil, NormParams{}, fmt.Errorf("relevance: unknown node op %d", node.Op)
	}
}

// chunkCount is how many evalChunk-sized chunks cover [0, n).
func (c *fusedCtx) chunkCount() int {
	return (c.n + evalChunk - 1) / evalChunk
}

// forChunks runs fn over [0, n) in evalChunk-sized chunks, in order.
// Once the caller's checkpoint trips, the remaining chunks are skipped —
// the caller re-polls after the pass and discards the partial result.
func (c *fusedCtx) forChunks(fn func(ci, lo, hi int)) {
	for ci, nchunks := 0, c.chunkCount(); ci < nchunks; ci++ {
		if c.checkpoint() != nil {
			return
		}
		lo := ci * evalChunk
		fn(ci, lo, min(lo+evalChunk, c.n))
	}
}
