package relevance

import (
	"fmt"
	"math"
)

// CombineMode selects between the paper's exact unnormalized formulas
// and weight-normalized means. With normalized weights the combined
// value stays within [0, Scale] so it can feed further combination
// levels without re-scaling surprises; the unnormalized forms are the
// literal formulas of section 5.2 and remain available for the ablation.
type CombineMode int

const (
	// WeightNormalized divides by the weight sum: AND is the weighted
	// arithmetic mean Σwd/Σw, OR the weighted geometric mean
	// (Πd^w)^(1/Σw).
	WeightNormalized CombineMode = iota
	// PaperRaw uses the paper's literal Σwⱼ·dᵢⱼ and Πdᵢⱼ^wⱼ.
	PaperRaw
)

// resolveWeights materializes the effective per-vector weights and
// their effective sum: nil or all-zero weights fall back to equal
// weighting, mirroring effWeight/weightSum.
func resolveWeights(weights []float64, k int) (ws []float64, effSum float64) {
	wsum := weightSum(weights)
	ws = make([]float64, k)
	for j := range ws {
		ws[j] = effWeight(weights, j, wsum)
	}
	effSum = wsum
	if effSum == 0 {
		effSum = float64(k)
	}
	return ws, effSum
}

// CombineAnd combines per-predicate distance vectors with the weighted
// arithmetic mean — the paper's rule for 'AND'-connected condition
// parts. dists[j][i] is predicate j's distance for item i; all vectors
// must share a length. A NaN component makes the item's combined
// distance NaN (uncolorable). A zero weight sum falls back to equal
// weights.
func CombineAnd(dists [][]float64, weights []float64, mode CombineMode) ([]float64, error) {
	n, err := checkShape(dists, weights)
	if err != nil {
		return nil, err
	}
	return combineAll(NodeAnd, EvalOptions{Mode: mode}, dists, weights, n), nil
}

// combineAll runs one node's kernel over whole vectors: the raw
// combiner, then the transform that completes it.
func combineAll(op NodeOp, opts EvalOptions, dists [][]float64, weights []float64, n int) []float64 {
	ws, effSum := resolveWeights(weights, len(dists))
	combiner, t, lpP := kernelFor(op, opts, effSum)
	out := make([]float64, n)
	combineRaw(combiner, out, dists, ws, lpP)
	t.applyRange(out)
	return out
}

// CombineOr combines per-predicate distance vectors with the weighted
// geometric mean — the paper's rule for 'OR'-connected condition parts.
// A single zero component zeroes the combined distance, matching OR
// semantics (one fulfilled predicate makes the item a correct answer) —
// including when other components are NaN, mirroring SQL's
// "true OR unknown = true". A NaN component with no zero component
// makes the item uncolorable: the unknown branch could be arbitrarily
// close, so no distance can be quantified.
func CombineOr(dists [][]float64, weights []float64, mode CombineMode) ([]float64, error) {
	n, err := checkShape(dists, weights)
	if err != nil {
		return nil, err
	}
	return combineAll(NodeOr, EvalOptions{Mode: mode}, dists, weights, n), nil
}

// --- Kernels ----------------------------------------------------------
//
// Every combiner is a raw kernel followed by a monotonic per-element
// transform: the weighted sum then the /Σw normalization, the product
// of powers then the (·)^(1/Σw) geometric root, the Lp sum then the
// (·)^(1/p) root. An interior node's fused pass runs both over the
// chunk it just scaled; the rank-before-scale pipeline stops the root
// after the raw kernel, ranks, and applies the transform to the
// survivors only — the same rootTransform, so transform(raw) is the
// eager value for every element, which the deferred ranking and the
// lazy Combined materialization both rely on.

// rootTransform kinds. Every kind is monotone non-decreasing over the
// raw domain the kernels produce (non-negative values; NaN passes
// through), which is what lets order statistics and tie classes be
// resolved in the raw domain.
const (
	xformIdentity = iota // PaperRaw modes, Σw == 1 geometric root
	xformDivide          // AND arithmetic, WeightNormalized: x/Σw
	xformGeoRoot         // OR geometric, WeightNormalized: x>0 ? x^(1/Σw) : x
	xformSqrt            // Lp with p == 2 (and Euclidean): √x
	xformPowInv          // Lp with p != 2: x^(1/p)
)

// rootTransform is the final scalar step of a combine kernel — applied
// in the pass for an interior node, deferred for the root.
type rootTransform struct {
	kind int
	// c is Σw for xformDivide/xformGeoRoot; invP is 1/p for
	// xformPowInv.
	c    float64
	invP float64
}

func (t rootTransform) apply(x float64) float64 {
	switch t.kind {
	case xformDivide:
		return x / t.c
	case xformGeoRoot:
		if x > 0 {
			return math.Pow(x, 1/t.c)
		}
		return x
	case xformSqrt:
		return math.Sqrt(x)
	case xformPowInv:
		return math.Pow(x, t.invP)
	}
	return x
}

// applyRange transforms v in place.
func (t rootTransform) applyRange(v []float64) {
	switch t.kind {
	case xformIdentity:
	case xformDivide:
		for i := range v {
			v[i] /= t.c
		}
	default:
		for i, x := range v {
			v[i] = t.apply(x)
		}
	}
}

// Raw combiner kinds.
const (
	cmbAnd = iota
	cmbOr
	cmbLp
)

// kernelFor maps a node's operator, the options and the effective
// weight sum onto the raw combiner kind, the transform completing it,
// and the Lp exponent.
func kernelFor(op NodeOp, opts EvalOptions, effSum float64) (combiner int, t rootTransform, lpP float64) {
	if op == NodeAnd {
		switch opts.And {
		case ANDEuclidean:
			return cmbLp, rootTransform{kind: xformSqrt}, 2
		case ANDLp:
			if opts.LpP == 2 {
				return cmbLp, rootTransform{kind: xformSqrt}, 2
			}
			return cmbLp, rootTransform{kind: xformPowInv, invP: 1 / opts.LpP}, opts.LpP
		default:
			if opts.Mode == WeightNormalized {
				return cmbAnd, rootTransform{kind: xformDivide, c: effSum}, 0
			}
			return cmbAnd, rootTransform{kind: xformIdentity}, 0
		}
	}
	// NodeOr: Pow(prod, 1) == prod exactly, so Σw == 1 needs no root.
	if opts.Mode == WeightNormalized && effSum != 1 {
		return cmbOr, rootTransform{kind: xformGeoRoot, c: effSum}, 0
	}
	return cmbOr, rootTransform{kind: xformIdentity}, 0
}

// combineRaw fills dst from the equally long vectors of dists with the
// raw kernel of the given kind. ws comes from resolveWeights.
func combineRaw(combiner int, dst []float64, dists [][]float64, ws []float64, lpP float64) {
	switch combiner {
	case cmbAnd:
		combineAndRaw(dst, dists, ws)
	case cmbOr:
		combineOrRaw(dst, dists, ws)
	case cmbLp:
		combineLpRaw(dst, dists, ws, lpP)
	}
}

// combineAndRaw is the weighted sum Σwⱼ·dᵢⱼ.
func combineAndRaw(dst []float64, dists [][]float64, ws []float64) {
	for i := range dst {
		var acc float64
		for j := range dists {
			acc += ws[j] * dists[j][i]
		}
		dst[i] = acc
	}
}

// combineOrRaw is the product of powers Πdᵢⱼ^wⱼ with OR's zero/NaN
// semantics (see CombineOr). Small integer weights take fast paths
// past math.Pow — exact ones: Pow(x, 1) is specified to return x, and
// for y in {2, 3} Pow's exponentiation-by-squaring performs the same
// rounding sequence as x*x and (x*x)*x in the normal range. This
// matters in the hot interactive loop, where weights overwhelmingly are
// 1 or small slider integers.
func combineOrRaw(dst []float64, dists [][]float64, ws []float64) {
	for i := range dst {
		prod := 1.0
		nan := false
		zero := false
		for j := range dists {
			d := dists[j][i]
			w := ws[j]
			if d == 0 && w > 0 {
				zero = true
				break
			}
			if math.IsNaN(d) {
				nan = true
				continue
			}
			switch w {
			case 0:
			case 1:
				prod *= d
			case 2:
				prod *= d * d
			case 3:
				prod *= d * d * d
			default:
				prod *= math.Pow(d, w)
			}
		}
		switch {
		case zero:
			dst[i] = 0
		case nan:
			dst[i] = math.NaN()
		default:
			dst[i] = prod
		}
	}
}

// combineLpRaw is the Lp sum Σwⱼ·|dᵢⱼ|^p. The Euclidean case (p == 2)
// squares directly instead of calling math.Pow per term: Pow(|d|, 2)
// rounds to the same double as d*d (one rounding of the exact product
// in the normal range) — and its transform is Sqrt, which Go's
// Pow(acc, 0.5) is defined as.
func combineLpRaw(dst []float64, dists [][]float64, ws []float64, p float64) {
	if p == 2 {
		for i := range dst {
			var acc float64
			for j := range dists {
				d := dists[j][i]
				acc += ws[j] * (d * d)
			}
			dst[i] = acc
		}
		return
	}
	for i := range dst {
		var acc float64
		for j := range dists {
			d := dists[j][i]
			acc += ws[j] * math.Pow(math.Abs(d), p)
		}
		dst[i] = acc
	}
}

// combine is one AND/OR node's combine as one value: its children's raw
// vectors and the params that scale them, the resolved weights and
// kernel, and per-child chunk scratch. chunk is the only producer of a
// node's raw combined values: an interior node's pass completes them
// with t, the deferred root ranks them as they are.
type combine struct {
	raw      []rawVals    // the children's unscaled values, read-only
	params   []NormParams // the params that scale them
	ws       []float64    // resolved weights (resolveWeights)
	combiner int
	t        rootTransform
	lpP      float64
	scratch  [][]float64 // per child, one chunk of its scaled values, made on first use (scaled)
	vs       [][]float64 // the chunk's scaled child slices
}

// newCombine evaluates node's children, every one of which becomes a
// lazy vector of the result, and resolves node's weights and kernel —
// validating node, its weights and the Lp exponent with the reference
// pipeline's errors.
func (c *fusedCtx) newCombine(node *Node) (*combine, error) {
	if len(node.Children) == 0 {
		return nil, fmt.Errorf("relevance: %q has no children", node.Label)
	}
	if node.Op == NodeAnd && c.opts.And == ANDLp && (c.opts.LpP < 1 || c.opts.LpP != c.opts.LpP) {
		// Match CombineLp's validation (NaN compares unequal to itself).
		return nil, fmt.Errorf("relevance: Lp needs p >= 1, got %v", c.opts.LpP)
	}
	k := len(node.Children)
	cb := &combine{raw: make([]rawVals, k), params: make([]NormParams, k),
		scratch: make([][]float64, k), vs: make([][]float64, k)}
	weights := make([]float64, k)
	for j, child := range node.Children {
		v, p, err := c.eval(child)
		if err != nil {
			return nil, err
		}
		w := child.EffWeight()
		if w < 0 || w != w {
			return nil, fmt.Errorf("relevance: invalid weight %v at %d", w, j)
		}
		cb.raw[j], cb.params[j], weights[j] = v, p, w
		c.res.setLazy(child, v, p)
	}
	ws, effSum := resolveWeights(weights, k)
	cb.ws = ws
	cb.combiner, cb.t, cb.lpP = kernelFor(node.Op, c.opts, effSum)
	return cb, nil
}

// chunk writes the raw combined values of items [lo, hi) to dst: each
// child's chunk scaled into its scratch, then the raw kernel over them.
func (cb *combine) chunk(dst []float64, lo, hi int) {
	for j, raw := range cb.raw {
		s := cb.scaled(j, hi-lo)
		applyRange(s, raw.chunk(s, lo, hi), cb.params[j])
		cb.vs[j] = s
	}
	combineRaw(cb.combiner, dst, cb.vs, cb.ws, cb.lpP)
}

// rows writes the raw combined values of rows ids to dst: each child's
// values of those rows gathered into its scratch and scaled there, then
// the raw kernel over them — per row, exactly what chunk computes.
// len(ids) is at most evalChunk.
func (cb *combine) rows(dst []float64, ids []int) {
	for j, raw := range cb.raw {
		s := cb.scaled(j, len(ids))
		raw.rows(s, ids)
		applyRange(s, s, cb.params[j])
		cb.vs[j] = s
	}
	combineRaw(cb.combiner, dst[:len(ids)], cb.vs, cb.ws, cb.lpP)
}

// scaled is child j's chunk scratch, n values long. It is made on first
// use: the combine of a node whose vector a cache serves scales nothing.
func (cb *combine) scaled(j, n int) []float64 {
	if cb.scratch[j] == nil {
		cb.scratch[j] = make([]float64, evalChunk)
	}
	return cb.scratch[j][:n]
}

// deferrable reports whether t can be applied after ranking without
// changing any value's finite/NaN classification: the raw domain is
// bounded by U (every scaled child value is in [0, Scale]) and t(U) must
// stay finite. Pathological weights (sums overflowing, Σw near zero
// turning the geometric root into an overflowing power) fail the check,
// and the root is finished eagerly instead.
func (cb *combine) deferrable() bool {
	var u float64
	switch cb.combiner {
	case cmbAnd:
		for _, w := range cb.ws {
			u += w * Scale
		}
	case cmbLp:
		if cb.lpP == 2 {
			for _, w := range cb.ws {
				u += w * (Scale * Scale)
			}
		} else {
			for _, w := range cb.ws {
				u += w * math.Pow(Scale, cb.lpP)
			}
		}
	case cmbOr:
		u = 1
		for _, w := range cb.ws {
			u *= math.Pow(Scale, w)
		}
	}
	u *= 1 + 1e-6 // headroom over kernel rounding differences
	if math.IsNaN(u) || math.IsInf(u, 0) {
		return false
	}
	v := cb.t.apply(u)
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// CombineLp combines per-predicate distances with the weighted Lp norm
// (p >= 1): (Σ w·d^p)^(1/p). Section 5.2 notes that "for special
// applications other specific distance functions such as the Euclidean,
// Lp or the Mahalanobis distance in n-dimensional space may be used".
func CombineLp(dists [][]float64, weights []float64, p float64) ([]float64, error) {
	if p < 1 || math.IsNaN(p) {
		return nil, fmt.Errorf("relevance: Lp needs p >= 1, got %v", p)
	}
	n, err := checkShape(dists, weights)
	if err != nil {
		return nil, err
	}
	return combineAll(NodeAnd, EvalOptions{And: ANDLp, LpP: p}, dists, weights, n), nil
}

// CombineEuclidean is CombineLp with p = 2.
func CombineEuclidean(dists [][]float64, weights []float64) ([]float64, error) {
	return CombineLp(dists, weights, 2)
}

func checkShape(dists [][]float64, weights []float64) (int, error) {
	if len(dists) == 0 {
		return 0, fmt.Errorf("relevance: no distance vectors")
	}
	if weights != nil && len(weights) != len(dists) {
		return 0, fmt.Errorf("relevance: %d weights for %d vectors", len(weights), len(dists))
	}
	n := len(dists[0])
	for j, d := range dists {
		if len(d) != n {
			return 0, fmt.Errorf("relevance: vector %d has length %d, want %d", j, len(d), n)
		}
	}
	for j, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return 0, fmt.Errorf("relevance: invalid weight %v at %d", w, j)
		}
	}
	return n, nil
}

func weightSum(weights []float64) float64 {
	var s float64
	for _, w := range weights {
		s += w
	}
	return s
}

// effWeight returns weight j, defaulting to 1 when weights are nil or
// all-zero (equal weighting).
func effWeight(weights []float64, j int, wsum float64) float64 {
	if weights == nil || wsum == 0 {
		return 1
	}
	return weights[j]
}
