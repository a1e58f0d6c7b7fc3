package relevance

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// evaluateReference is the straightforward node-at-a-time pipeline the
// fused evaluator replaced: normalize each leaf, combine children,
// re-normalize every combined vector — one full vector pass (and one
// n-sized allocation) per step. It is kept here as the semantic
// reference the fused implementation must match bit for bit.
func evaluateReference(root *Node, n int, opts EvalOptions) (*Result, error) {
	if root == nil {
		return nil, fmt.Errorf("relevance: nil tree")
	}
	res := &Result{ByNode: make(map[*Node][]float64)}
	var eval func(node *Node) ([]float64, error)
	eval = func(node *Node) ([]float64, error) {
		switch node.Op {
		case Leaf:
			if len(node.Dists) != n {
				return nil, fmt.Errorf("relevance: leaf %q has %d distances, want %d", node.Label, len(node.Dists), n)
			}
			keep := 0
			if !opts.NaiveNormalize {
				keep = KeepCount(opts.Budget, n, node.EffWeight())
			}
			norm := Normalize(node.Dists, keep)
			res.ByNode[node] = norm
			return norm, nil
		case NodeAnd, NodeOr:
			if len(node.Children) == 0 {
				return nil, fmt.Errorf("relevance: %q has no children", node.Label)
			}
			dists := make([][]float64, len(node.Children))
			weights := make([]float64, len(node.Children))
			for i, child := range node.Children {
				d, err := eval(child)
				if err != nil {
					return nil, err
				}
				dists[i] = d
				weights[i] = child.EffWeight()
			}
			var combined []float64
			var err error
			if node.Op == NodeAnd {
				switch opts.And {
				case ANDEuclidean:
					combined, err = CombineEuclidean(dists, weights)
				case ANDLp:
					combined, err = CombineLp(dists, weights, opts.LpP)
				default:
					combined, err = CombineAnd(dists, weights, opts.Mode)
				}
			} else {
				combined, err = CombineOr(dists, weights, opts.Mode)
			}
			if err != nil {
				return nil, err
			}
			keep := 0
			if !opts.NaiveNormalize {
				keep = KeepCount(opts.Budget, n, node.EffWeight())
			}
			norm := Normalize(combined, keep)
			res.ByNode[node] = norm
			return norm, nil
		default:
			return nil, fmt.Errorf("relevance: unknown node op %d", node.Op)
		}
	}
	combined, err := eval(root)
	if err != nil {
		return nil, err
	}
	res.Combined = combined
	return res, nil
}

// sameVec compares vectors bit-for-bit, treating NaN as equal to NaN.
func sameVec(t *testing.T, label string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) &&
			!(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			t.Fatalf("%s: item %d: %v vs %v", label, i, a[i], b[i])
		}
	}
}

// buildRandomTree makes a random tree with nLeaves leaves over n items.
func buildRandomTree(rng *rand.Rand, n, depth int) *Node {
	if depth <= 0 || rng.Intn(3) == 0 {
		d := make([]float64, n)
		for i := range d {
			switch rng.Intn(10) {
			case 0:
				d[i] = math.NaN()
			case 1:
				d[i] = 0
			default:
				d[i] = rng.Float64() * 100
			}
		}
		return &Node{Op: Leaf, Weight: rng.Float64()*2 + 0.1, Dists: d}
	}
	op := NodeAnd
	if rng.Intn(2) == 0 {
		op = NodeOr
	}
	node := &Node{Op: op, Weight: rng.Float64() + 0.5}
	k := 2 + rng.Intn(3)
	for i := 0; i < k; i++ {
		node.Children = append(node.Children, buildRandomTree(rng, n, depth-1))
	}
	return node
}

// TestFusedMatchesReference: the chunk-fused evaluator must be
// bit-identical to the node-at-a-time reference pipeline across random
// trees and every option combination — combine modes, AND combiners,
// naive and reduction-first normalization — on Combined and on every
// node's vector, lazy leaves included.
func TestFusedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	optVariants := []EvalOptions{
		{},
		{Mode: PaperRaw},
		{NaiveNormalize: true},
		{And: ANDEuclidean},
		{And: ANDLp, LpP: 2},
		{And: ANDLp, LpP: 3.5},
	}
	for trial := 0; trial < 40; trial++ {
		// Cross the evalChunk boundary regularly so the chunked passes
		// and the per-chunk range-scan merge are both exercised.
		n := 50 + rng.Intn(2*evalChunk)
		tree := buildRandomTree(rng, n, 3)
		opts := optVariants[trial%len(optVariants)]
		opts.Budget = n / (1 + rng.Intn(4))
		ref, err := evaluateReference(tree, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Evaluate(tree, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameVec(t, "combined", ref.Combined, got.Combined)
		// Every node through Vec — leaves materialize on first read — and
		// a second read hands back the same buffer.
		for node, rv := range ref.ByNode {
			gv := got.Vec(node)
			if gv == nil {
				t.Fatalf("Vec(%q) = nil", node.Label)
			}
			sameVec(t, "node "+node.Label, rv, gv)
			if &got.Vec(node)[0] != &gv[0] {
				t.Fatalf("Vec(%q) rematerialized on second call", node.Label)
			}
		}
	}
}

// TestFusedErrorsMatchReference: validation failures surface with the
// reference pipeline's messages.
func TestFusedErrorsMatchReference(t *testing.T) {
	cases := []struct {
		name string
		root *Node
		opts EvalOptions
		want string
	}{
		{"leaf length", &Node{Op: NodeAnd, Children: []*Node{
			{Op: Leaf, Dists: make([]float64, 10)},
			{Op: Leaf, Label: "short", Dists: make([]float64, 3)},
		}}, EvalOptions{}, "has 3 distances"},
		{"no children", &Node{Op: NodeOr, Label: "empty"}, EvalOptions{}, "no children"},
		{"bad op", &Node{Op: NodeOp(42)}, EvalOptions{}, "unknown node op"},
		{"bad Lp", &Node{Op: NodeAnd, Children: []*Node{
			{Op: Leaf, Dists: make([]float64, 10)},
			{Op: Leaf, Dists: make([]float64, 10)},
		}}, EvalOptions{And: ANDLp, LpP: 0.5}, "Lp needs p >= 1"},
		{"bad weight", &Node{Op: NodeAnd, Children: []*Node{
			{Op: Leaf, Dists: make([]float64, 10), Weight: -2},
			{Op: Leaf, Dists: make([]float64, 10)},
		}}, EvalOptions{}, "invalid weight"},
	}
	for _, tc := range cases {
		refErr := func() string {
			_, err := evaluateReference(tc.root, 10, tc.opts)
			if err == nil {
				return ""
			}
			return err.Error()
		}()
		_, err := Evaluate(tc.root, 10, tc.opts)
		if err == nil {
			t.Fatalf("%s: fused evaluator accepted invalid input", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q missing %q", tc.name, err, tc.want)
		}
		if refErr != "" && err.Error() != refErr {
			t.Fatalf("%s: fused error %q, reference %q", tc.name, err, refErr)
		}
	}
}

// TestEvaluateAllocHook: a caller-provided allocator supplies every
// per-node output buffer, and dirty recycled buffers are harmless
// because the evaluator overwrites them in full.
func TestEvaluateAllocHook(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 500
	tree := buildRandomTree(rng, n, 3)
	want, err := Evaluate(tree, n, EvalOptions{Budget: n / 2})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	handed := make(map[*float64]bool)
	alloc := func(sz int) []float64 {
		calls++
		b := make([]float64, sz)
		for i := range b {
			b[i] = math.NaN() // poison: must be fully overwritten
		}
		handed[&b[0]] = true
		return b
	}
	got, err := Evaluate(tree, n, EvalOptions{Budget: n / 2, Alloc: alloc})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("allocator never called")
	}
	sameVec(t, "combined", want.Combined, got.Combined)
	// Every materialized output vector must be an allocator buffer.
	for node, vec := range got.ByNode {
		if !handed[&vec[0]] {
			t.Fatalf("node %q vector bypassed the allocator", node.Label)
		}
	}
	// A misbehaving allocator (wrong size, nil) falls back to make.
	bad := func(sz int) []float64 { return make([]float64, sz-1) }
	got2, err := Evaluate(tree, n, EvalOptions{Budget: n / 2, Alloc: bad})
	if err != nil {
		t.Fatal(err)
	}
	sameVec(t, "combined fallback", want.Combined, got2.Combined)
}

// TestLeafRangesMatchOracle: the code plane's counts and the
// scan-plus-selection path stand on one kernel (the crossing bucket is
// selected by NormRange's), so agreeing with each other proves little;
// both must answer what the independent sort-and-index oracle
// (orderstats_test.go) answers, for every keep count, across
// NaN/±Inf-laced vectors.
func TestLeafRangesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(3000)
		dists := make([]float64, n)
		for i := range dists {
			switch rng.Intn(20) {
			case 0:
				dists[i] = math.NaN()
			case 1:
				dists[i] = math.Inf(1)
			case 2:
				dists[i] = math.Inf(-1)
			case 3:
				dists[i] = 0
			default:
				dists[i] = rng.Float64()*200 - 20
			}
		}
		checkLeafOrderStats(t, fmt.Sprintf("trial %d", trial), dists)
		fin, cp := oracleSorted(dists), BuildCodes(dists)
		for _, keep := range []int{n / 3, n - 1, n, n + 5} {
			if want, got := oracleRange(fin, keep), NormRange(dists, keep); want != got {
				t.Fatalf("trial %d keep %d: %+v vs %+v", trial, keep, want, got)
			}
			if want, got := oracleRange(fin, keep), codeRange(cp, dists, keep); want != got {
				t.Fatalf("trial %d keep %d: %+v vs codes %+v", trial, keep, want, got)
			}
		}
	}
	// An all-NaN/Inf vector has no finite range either way.
	deg := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	if got := codeRange(BuildCodes(deg), deg, 2); !got.NoFinite {
		t.Fatalf("degenerate vector: %+v", got)
	}
}

// codeRange is Codes.Range's params.
func codeRange(cp *Codes, v []float64, keep int) NormParams {
	p, _ := cp.Range(v, keep)
	return p
}

// TestCombineOrFastPathEquivalence: the unit-weight fast path must
// agree with the generic math.Pow formulation.
func TestCombineOrFastPathEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 4000
	k := 3
	dists := make([][]float64, k)
	for j := range dists {
		dists[j] = make([]float64, n)
		for i := range dists[j] {
			switch rng.Intn(12) {
			case 0:
				dists[j][i] = 0
			case 1:
				dists[j][i] = math.NaN()
			default:
				dists[j][i] = rng.Float64() * Scale
			}
		}
	}
	for _, weights := range [][]float64{
		{1, 1, 1},          // all unit weights
		{1, 2, 0.5},        // mixed: w==1 and w==2 lanes take fast paths
		{3, 2, 1},          // the small-integer slider weights
		{1, 0, 1},          // zero weight skip
		nil,                // nil weights → equal (unit) weighting
		{0.25, 0.5, 0.25},  // effSum == 1: root fast path
		{1, 1e-12, 0.9999}, // near-degenerate
	} {
		got, err := CombineOr(dists, weights, WeightNormalized)
		if err != nil {
			t.Fatal(err)
		}
		want := slowCombineOr(dists, weights, WeightNormalized)
		sameVec(t, fmt.Sprintf("or weights %v", weights), want, got)
	}
}

// slowCombineOr is the pre-fast-path formulation: every factor through
// math.Pow. Pow(x, 1) is specified to return x, so the fast path must
// be bit-identical.
func slowCombineOr(dists [][]float64, weights []float64, mode CombineMode) []float64 {
	n := len(dists[0])
	wsum := weightSum(weights)
	effSum := wsum
	if effSum == 0 {
		effSum = float64(len(dists))
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		prod := 1.0
		nan := false
		zero := false
		for j := range dists {
			d := dists[j][i]
			w := effWeight(weights, j, wsum)
			if d == 0 && w > 0 {
				zero = true
				break
			}
			if math.IsNaN(d) {
				nan = true
				continue
			}
			if w == 0 {
				continue
			}
			prod *= math.Pow(d, w)
		}
		switch {
		case zero:
			out[i] = 0
		case nan:
			out[i] = math.NaN()
		case mode == WeightNormalized && prod > 0:
			out[i] = math.Pow(prod, 1/effSum)
		default:
			out[i] = prod
		}
	}
	return out
}

// TestCombineLpFastPathEquivalence: the p == 2 square-and-sqrt fast
// path must agree with the generic Pow formulation on normal-range
// inputs (Pow(|d|, 2) and d*d round the exact product once each, and
// Go's Pow(x, 0.5) is defined as Sqrt(x)).
func TestCombineLpFastPathEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 4000
	dists := make([][]float64, 3)
	for j := range dists {
		dists[j] = make([]float64, n)
		for i := range dists[j] {
			dists[j][i] = rng.Float64() * Scale
		}
	}
	weights := []float64{1, 2, 0.5}
	got, err := CombineLp(dists, weights, 2)
	if err != nil {
		t.Fatal(err)
	}
	wsum := weightSum(weights)
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		var acc float64
		for j := range dists {
			acc += effWeight(weights, j, wsum) * math.Pow(math.Abs(dists[j][i]), 2)
		}
		want[i] = math.Pow(acc, 0.5)
	}
	sameVec(t, "lp p=2", want, got)
	// CombineEuclidean routes through the same fast path.
	eu, err := CombineEuclidean(dists, weights)
	if err != nil {
		t.Fatal(err)
	}
	sameVec(t, "euclidean", want, eu)
}
