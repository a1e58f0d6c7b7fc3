package relevance

import (
	"math"
	"sync"
)

// NodeOp is the role of a Node in the distance-combination tree.
type NodeOp int

const (
	// Leaf holds a raw per-item distance vector from one selection
	// predicate (or approximate join, or subquery).
	Leaf NodeOp = iota
	// NodeAnd combines children with the weighted arithmetic mean.
	NodeAnd
	// NodeOr combines children with the weighted geometric mean.
	NodeOr
)

// Node mirrors the boolean structure of a query's condition as a
// distance-combination tree. The engine computes raw leaf distances and
// hands the tree to Evaluate; labels let results map back to predicate
// windows.
type Node struct {
	Op       NodeOp
	Label    string
	Weight   float64 // weighting factor; 0 reads as 1
	Dists    []float64
	Children []*Node
	// Codes is the code plane of the node's raw vector, which the
	// ranking of a deferred root filters its rows by (codes.go) and whose
	// counts answer the node's normalization range (Codes.Range). On a
	// leaf the caller sets it, and it must hold exactly Dists: a plane
	// coded from them; a leaf without one is ranged by NormRange. A range
	// leaf's may be the view of its column's plane (Codes.View): the leaf
	// then needs no Dists, and Evaluate reads none — it computes each
	// distance it reads from the view's column values, by chunk or by row
	// list. On an interior node Evaluate sets it, from the node's pass or
	// its cached vector. A root child without one has it built where it
	// is read.
	Codes *Codes
	// Key names an interior node's raw combined vector for
	// EvalOptions.Interior; the caller builds it, and it must name exactly
	// the vector the node's subtree combines to under these options. An
	// interior node without a key is never resolved through the hook. The
	// evaluator reads no leaf's key.
	Key string
}

// EffWeight returns the node's weight with the default of 1.
func (n *Node) EffWeight() float64 {
	if n.Weight == 0 {
		return 1
	}
	return n.Weight
}

// ANDCombiner selects how AND nodes fold their children. The paper's
// default is the weighted arithmetic mean; section 5.2 notes that "for
// special applications other specific distance functions such as the
// Euclidean, Lp or the Mahalanobis distance in n-dimensional space may
// be used to combine the values of multiple attributes".
type ANDCombiner int

const (
	// ANDArithmetic is the weighted arithmetic mean (default).
	ANDArithmetic ANDCombiner = iota
	// ANDEuclidean is the weighted Euclidean (L2) norm.
	ANDEuclidean
	// ANDLp is the weighted Lp norm with exponent LpP.
	ANDLp
)

// EvalOptions configures Evaluate.
type EvalOptions struct {
	// Budget is the display budget in items (r); it drives the
	// reduction-first normalization via KeepCount. Zero means normalize
	// over everything.
	Budget int
	// Mode selects the combination formulas (see CombineMode).
	Mode CombineMode
	// NaiveNormalize disables the reduction-first range estimation
	// (the A1 ablation).
	NaiveNormalize bool
	// And selects the AND-node combiner (arithmetic mean by default).
	And ANDCombiner
	// LpP is the exponent for ANDLp (values < 1 error).
	LpP float64
	// Alloc, when non-nil, provides the n-sized output buffers for the
	// per-node scaled vectors (ByNode and Combined). It enables buffer
	// pooling across reruns: the caller may hand back buffers of
	// superseded Results, which this evaluation will overwrite in
	// full. nil (or a wrong-sized return) falls back to fresh
	// allocation.
	Alloc func(n int) []float64
	// DeferRoot enables the rank-before-scale pipeline: the root's
	// combine pass stops at the RAW combined value (before the final
	// monotonic transforms — the geometric root, the Lp root, the
	// weight-normalized division — and before the [0, Scale]
	// re-normalization), and Result.Combined stays nil until someone
	// materializes it. The caller ranks via Result.RankRoot, which
	// filters the rows by their children's codes, combines only the
	// ones that can rank, and applies the final transforms only to the
	// survivors — bit-identical, including clamp-induced ties, to
	// ranking the eagerly scaled vector. A leaf root never defers: it
	// has nothing to combine, so it is scaled eagerly, Combined is set
	// and Deferred() reports false.
	//
	// An AND/OR root's combine is built once either way. When its transform
	// could change the finite/infinite classification of a value
	// (pathological weights overflowing the raw domain — the check reads
	// the weights and kernel the combine resolved), the same combine
	// finishes the root eagerly and Deferred() reports false.
	DeferRoot bool
	// Interior, when non-nil, resolves the raw combined vector of every
	// interior node with a Key whose pass this evaluation reaches (a
	// deferred root has none), after the node's children are evaluated:
	// it returns the vector and its code plane (optional; it must code
	// exactly raw) that it holds under the key, or what compute returns.
	// compute runs the node's pass into a vector of its own and codes it;
	// the hook may keep both, and may serve them to any number of
	// evaluations, which read them only. An interior node's raw vector
	// depends on its subtree alone — its children's raw vectors and
	// weights, the combiner and these options — and not on its own
	// weight, which enters only its own normalization range, so a drag
	// outside a subtree leaves the subtree's vector as it was. Results
	// are bit-identical to the hookless evaluation;
	// Result.SketchHits/SketchRescans count the vectors served without
	// compute.
	Interior func(key string, compute func() ([]float64, *Codes, error)) ([]float64, *Codes, error)
	// Checkpoint, when non-nil, is polled at every node entry and
	// between evaluator chunks; the first non-nil return aborts the
	// evaluation (and any deferred-root ranking built from it) with
	// that error. The engine wires context cancellation through it, so
	// a request deadline interrupts a run mid-pass instead of holding
	// its goroutine until the full sweep completes. Checkpoint must be
	// cheap (it is called O(n/chunk) times) — ctx.Err is.
	Checkpoint func() error
}

// Result carries the evaluated tree: the per-node normalized distance
// vectors in [0, Scale] (keyed by node), and the root's combined,
// re-normalized distances. Every node below the root is lazy — a leaf
// and an interior node alike, whether EvalOptions.Interior served its
// vector or its pass computed it: the combination passes scale it chunk
// by chunk into scratch, and it is absent from ByNode until Vec
// materializes it — windows read a few thousand displayed items, so a
// run writes no n-sized scaled vector per node. Read through Vec rather than the map.
// A deferred root's Combined (and its ByNode entry) also stay
// unmaterialized until Vec(root) asks for them.
type Result struct {
	Combined []float64
	ByNode   map[*Node][]float64

	// SketchHits counts interior nodes whose combine pass was skipped
	// because EvalOptions.Interior served their vector; SketchRescans
	// counts those of them whose normalization range needed a pass over
	// the vector: the gather of its code plane's crossing bucket, or
	// NormRange for a dense crossing bucket or a vector that came
	// without a plane.
	SketchHits    int
	SketchRescans int

	mu sync.Mutex
	// lazy holds the nodes Vec has yet to materialize: their raw values
	// (node.Dists or a view for a leaf) and the params that scale them.
	lazy  map[*Node]lazyVec
	alloc func(n int) []float64
	n     int
	// root is the deferred rank-before-scale state (nil when the root
	// was finalized eagerly).
	root *rootDefer
}

// lazyVec is a node awaiting materialization: its read-only raw values
// and the params that scale them.
type lazyVec struct {
	raw rawVals
	p   NormParams
}

// setLazy registers node as raw scaled by p, to be materialized by Vec.
func (r *Result) setLazy(node *Node, raw rawVals, p NormParams) {
	if r.lazy == nil {
		r.lazy = make(map[*Node]lazyVec)
	}
	r.lazy[node] = lazyVec{raw: raw, p: p}
}

// Deferred reports whether the root is evaluated rank-before-scale:
// Combined is nil until materialized, and the caller should rank via
// RankRoot instead of selecting on Combined.
func (r *Result) Deferred() bool { return r.root != nil }

// Vec returns the node's normalized vector, materializing a lazy node —
// every node below the root, and a deferred root itself — on
// first use, bit-identical to the values the combination passes scaled:
// same params, same per-element transforms. nil when the node was not
// part of the evaluation. Safe for concurrent use.
func (r *Result) Vec(node *Node) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.root != nil && node == r.root.node {
		return r.materializeCombinedLocked()
	}
	if v, ok := r.ByNode[node]; ok {
		return v
	}
	lv, ok := r.lazy[node]
	if !ok {
		return nil
	}
	// Scale the read-only raw values into a fresh buffer — the values
	// the parent's pass scaled into its chunk scratch.
	out := r.allocVec()
	applyRange(out, lv.raw.chunk(out, 0, r.n), lv.p)
	r.ByNode[node] = out
	delete(r.lazy, node)
	return out
}

// allocVec returns an n-sized buffer from the caller's pool (or fresh).
func (r *Result) allocVec() []float64 {
	if r.alloc != nil {
		if b := r.alloc(r.n); len(b) == r.n {
			return b
		}
	}
	return make([]float64, r.n)
}

// Evaluate computes the combined normalized distance of every item per
// section 5.2: leaf distances are normalized to [0, Scale] (range from
// the KeepCount(budget, n, weight) smallest values), interior nodes
// combine their children with the weighted arithmetic (AND) or geometric
// (OR) mean, and every combined vector is itself normalized "before a
// calculated combined distance is used as a parameter for combining
// other distances".
//
// The implementation is the chunk-fused evaluator of fused.go: all
// normalization ranges are derived from cheap scans and selections, and
// the scaling, combination and range tracking of each level happen in
// one chunked pass writing into caller-pooled buffers. The results are
// bit-identical to the straightforward node-at-a-time pipeline (see the
// reference evaluator in the tests). Evaluate sets the Codes of the
// interior nodes it evaluates, so one tree must not be evaluated
// concurrently.
func Evaluate(root *Node, n int, opts EvalOptions) (*Result, error) {
	return evaluateFused(root, n, opts)
}

// CountNaN returns how many entries of vec are NaN (uncolorable).
func CountNaN(vec []float64) int {
	c := 0
	for _, v := range vec {
		if math.IsNaN(v) {
			c++
		}
	}
	return c
}
