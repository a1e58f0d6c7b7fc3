package relevance

import (
	"fmt"
	"math"
)

// This file implements the chunk-fused evaluator behind Evaluate. The
// node-at-a-time pipeline made ~7 O(n) passes per node — normalize the
// leaves (scan + selection + write), combine (read + write), scan the
// combined vector, re-normalize it (write) — each allocating an n-sized
// vector per node per run. The fused evaluator restructures the same
// arithmetic:
//
//  1. Leaf normalization ranges are computed first (a scan plus a
//     selection per leaf; nothing is written).
//  2. Each interior node runs ONE chunked pass over its combine, which
//     scales every child's chunk into chunk-local scratch and combines
//     them; the pass completes the chunk with the node's transform and
//     folds it into the node's finite extremes while the chunk is
//     cache-hot, and the code plane built over them answers the node's
//     range. Every child stays lazy: Result.Vec materializes it.
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

// evaluateFused is the Evaluate implementation.
func evaluateFused(root *Node, n int, opts EvalOptions) (*Result, error) {
	if root == nil {
		return nil, fmt.Errorf("relevance: nil tree")
	}
	ctx := &fusedCtx{opts: opts, n: n,
		res: &Result{ByNode: make(map[*Node][]float64), n: n, alloc: opts.Alloc}}
	var vec []float64
	var params NormParams
	var err error
	switch {
	case opts.DeferRoot && root.Op == Leaf:
		// Rank-before-scale (rootrank.go): a leaf root ranks its own
		// distances, over the range eval checks them for.
		if _, params, err = ctx.eval(root); err == nil {
			ctx.deferRoot(root, nil, params)
			return ctx.res, nil
		}
	case opts.DeferRoot && (root.Op == NodeAnd || root.Op == NodeOr):
		// Rank-before-scale: the root's combine is built (its children
		// evaluated) and stays raw and chunk-lazy, unless its transform
		// could overflow — then the same combine finishes eagerly below.
		var cb *combine
		if cb, err = ctx.newCombine(root); err == nil {
			if cb.deferrable() {
				ctx.deferRoot(root, cb, NormParams{})
				return ctx.res, nil
			}
			vec, params, err = ctx.pass(root, cb)
		}
	default:
		vec, params, err = ctx.eval(root)
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.checkpoint(); err != nil {
		return nil, err
	}
	// Finalize the root: its combined vector scales in place (the
	// buffer is ctx-owned); a leaf root scales into a fresh buffer,
	// since node.Dists belongs to the caller, and so does a keyed root,
	// whose vector EvalOptions.Interior owns. The root always
	// materializes — Combined is the interface's primary output.
	out := vec
	if root.Op == Leaf || ctx.keyed(root) {
		out = ctx.alloc()
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
// interior nodes the combined-but-not-yet-renormalized vector (the
// parent's combine scales it chunk by chunk, the root finalizer in
// place).
func (c *fusedCtx) eval(node *Node) ([]float64, NormParams, error) {
	if err := c.checkpoint(); err != nil {
		return nil, NormParams{}, err
	}
	switch node.Op {
	case Leaf:
		if len(node.Dists) != c.n {
			return nil, NormParams{}, fmt.Errorf("relevance: leaf %q has %d distances, want %d", node.Label, len(node.Dists), c.n)
		}
		p, _ := node.Codes.Range(node.Dists, c.keepOf(node))
		return node.Dists, p, nil
	case NodeAnd, NodeOr:
		cb, err := c.newCombine(node)
		if err != nil {
			return nil, NormParams{}, err
		}
		return c.pass(node, cb)
	default:
		return nil, NormParams{}, fmt.Errorf("relevance: unknown node op %d", node.Op)
	}
}

// pass resolves an interior node's raw combined vector and returns it
// with the params that scale it. Its fused pass writes, per chunk, the
// combine's raw values completed by its transform — one cache-hot sweep
// instead of 2k+3 vector-length passes — and codes the vector over the
// extremes it tracks. A keyed node's vector comes from
// EvalOptions.Interior, which runs the pass into a vector of its own only
// when it holds none under the key; any other node's pass writes a run
// buffer. Either way the node is ranged by its code plane's counts, like
// a leaf.
func (c *fusedCtx) pass(node *Node, cb *combine) ([]float64, NormParams, error) {
	run := func(out []float64) ([]float64, *Codes, error) {
		lo, hi := math.Inf(1), math.Inf(-1)
		c.forChunks(func(_, l, h int) {
			dst := out[l:h]
			cb.chunk(dst, l, h)
			cb.t.applyRange(dst)
			cl, ch := FiniteExtremes(dst)
			lo, hi = min(lo, cl), max(hi, ch)
		})
		if err := c.checkpoint(); err != nil {
			// A canceled pass may have skipped chunks: nothing below
			// (codes, caches, the parent) may see the partial buffer.
			return nil, nil, err
		}
		codes := NewCodes(c.n, lo, hi)
		codes.Encode(out, 0, codes.Chunks())
		return out, codes, nil
	}
	hit := false
	var raw []float64
	var codes *Codes
	var err error
	if c.keyed(node) {
		hit = true
		raw, codes, err = c.opts.Interior(node.Key, func() ([]float64, *Codes, error) {
			hit = false
			return run(make([]float64, c.n))
		})
	} else {
		raw, codes, err = run(c.alloc())
	}
	if err != nil {
		return nil, NormParams{}, err
	}
	if len(raw) != c.n {
		return nil, NormParams{}, fmt.Errorf("relevance: %q resolved to %d values, want %d", node.Label, len(raw), c.n)
	}
	node.Codes = codes
	p, scanned := codes.Range(raw, c.keepOf(node))
	if hit {
		c.res.SketchHits++
		c.res.SketchRescans += b2i(scanned)
	}
	return raw, p, nil
}

// keyed reports whether an interior node's vector is resolved through
// EvalOptions.Interior, and so is read-only here.
func (c *fusedCtx) keyed(node *Node) bool {
	return node.Key != "" && c.opts.Interior != nil
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
