package relevance

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/reduce"
	"repro/internal/topk"
)

// eagerRanking runs the eager pipeline and selects the top-k on the
// scaled combined vector — the reference the deferred ranking must
// match bit for bit (Order, Sorted prefix, NaN attribution).
func eagerRanking(t *testing.T, tree *Node, n, k int, opts EvalOptions) (*Result, []float64, []int) {
	t.Helper()
	opts.DeferRoot = false
	res, err := Evaluate(tree, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	sorted, order := topk.SelectKWithIndex(res.Combined, k)
	return res, sorted, order
}

// attachLeafStats gives every leaf of the tree but a view its code plane
// — what the engine's leaf entries carry, and what ranges the leaf.
func attachLeafStats(root *Node) {
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Op == Leaf {
			if n.Codes == nil || n.Codes.column == nil {
				n.Codes = BuildCodes(n.Dists)
			}
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
}

// clearLeafStats drops the code planes again (trees are shared between
// eager and deferred runs; the eager reference must not be affected —
// it is not, but symmetric state keeps the comparison honest).
func clearLeafStats(root *Node) {
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Op == Leaf {
			n.Codes = nil
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
}

// adversarialTree builds trees whose root selection is dominated by
// the failure modes rank-before-scale must resolve exactly: masses of
// exact zeros (OR saturation → a zero threshold and an index-tie
// battle), duplicated values (scaled collisions), NaN stretches
// (uncolorable fills), and heavy clamp ties (keep ≪ n pushes most of
// the vector to Scale).
func adversarialTree(rng *rand.Rand, n int) *Node {
	leaf := func() *Node {
		d := make([]float64, n)
		mode := rng.Intn(4)
		for i := range d {
			switch {
			case rng.Intn(3) == 0:
				d[i] = 0 // exact answers in bulk
			case mode == 1 && rng.Intn(2) == 0:
				d[i] = float64(rng.Intn(4)) // heavy duplicates
			case mode == 2 && rng.Intn(10) == 0:
				d[i] = math.NaN()
			case mode == 3 && rng.Intn(50) == 0:
				d[i] = math.Inf(1)
			default:
				d[i] = rng.Float64() * 100
			}
		}
		return &Node{Op: Leaf, Weight: []float64{0.5, 1, 1, 2, 3}[rng.Intn(5)], Dists: d}
	}
	if rng.Intn(5) == 0 {
		return leaf() // leaf root
	}
	op := NodeAnd
	if rng.Intn(2) == 0 {
		op = NodeOr
	}
	root := &Node{Op: op, Weight: 1}
	k := 2 + rng.Intn(3)
	for i := 0; i < k; i++ {
		if rng.Intn(4) == 0 {
			inner := &Node{Op: NodeOr, Weight: rng.Float64() + 0.5}
			inner.Children = []*Node{leaf(), leaf()}
			root.Children = append(root.Children, inner)
		} else {
			root.Children = append(root.Children, leaf())
		}
	}
	return root
}

func deferredOptVariants() []EvalOptions {
	return []EvalOptions{
		{},
		{Mode: PaperRaw},
		{And: ANDEuclidean},
		{And: ANDLp, LpP: 2},
		{And: ANDLp, LpP: 3.5},
		{NaiveNormalize: true},
	}
}

// TestDeferredRankMatchesEagerSelection is the tentpole identity: the
// deferred (rank-before-scale, filtered and refined) ranking must be
// bit-identical — order, scaled values, NaN counts, and the lazily
// materialized Combined vector — to the eager pipeline followed by a
// plain top-k selection, across combiner modes, adversarial tie
// distributions, and leaves with and without their code planes. A leaf
// root does not defer: its eager selection must equal the full sort's
// prefix.
func TestDeferredRankMatchesEagerSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(1994))
	variants := deferredOptVariants()
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(3*evalChunk)
		tree := adversarialTree(rng, n)
		opts := variants[trial%len(variants)]
		opts.Budget = []int{0, 8, 64, n / 2, n}[rng.Intn(5)]
		k := []int{1, 8, 1 + rng.Intn(n), n}[rng.Intn(4)]

		eager, wantSorted, wantOrder := eagerRanking(t, tree, n, k, opts)

		withStats := trial%2 == 0
		if withStats {
			attachLeafStats(tree)
		}
		opts.DeferRoot = true
		got, err := Evaluate(tree, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		if tree.Op == Leaf {
			// A leaf root finishes eagerly: the selection on its scaled
			// vector is the full sort's prefix.
			if got.Deferred() {
				t.Fatalf("trial %d: a leaf root deferred", trial)
			}
			sameVec(t, "leaf root", eager.Combined, got.Combined)
			sorted, order := reduce.SortWithIndex(got.Combined)
			sameVec(t, "leaf root selection", sorted[:k], wantSorted)
			if !slices.Equal(order[:k], wantOrder) {
				t.Fatalf("trial %d: the leaf root's selection %v, the full sort's prefix %v", trial, wantOrder, order[:k])
			}
			clearLeafStats(tree)
			continue
		}
		if !got.Deferred() {
			t.Fatalf("trial %d: evaluation did not defer", trial)
		}
		rk, err := got.RankRoot(k, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < k; r++ {
			if rk.Order[r] != wantOrder[r] {
				t.Fatalf("trial %d (k=%d codes=%v): order[%d] = %d, want %d",
					trial, k, withStats, r, rk.Order[r], wantOrder[r])
			}
			a, b := rk.Sorted[r], wantSorted[r]
			if math.Float64bits(a) != math.Float64bits(b) && !(math.IsNaN(a) && math.IsNaN(b)) {
				t.Fatalf("trial %d: sorted[%d] = %v, want %v", trial, r, a, b)
			}
		}
		// The ranking lists the k ranked items and nothing else.
		if len(rk.Order) != k || len(rk.Sorted) != k {
			t.Fatalf("trial %d: ranking is %d/%d long, want %d", trial, len(rk.Order), len(rk.Sorted), k)
		}
		if want := CountNaN(eager.Combined); rk.NaNs != want {
			t.Fatalf("trial %d: NaNs = %d, want %d", trial, rk.NaNs, want)
		}
		// Lazy materialization must reproduce the eager vector bitwise.
		sameVec(t, "combined", eager.Combined, got.Vec(tree))
		// And every node's vector through Vec (every node below the root
		// materializes on demand, on both sides).
		var walk func(node *Node)
		walk = func(node *Node) {
			gv := got.Vec(node)
			if gv == nil {
				t.Fatalf("trial %d: Vec(%q) = nil", trial, node.Label)
			}
			sameVec(t, "node "+node.Label, eager.Vec(node), gv)
			for _, c := range node.Children {
				walk(c)
			}
		}
		walk(tree)
		clearLeafStats(tree)
	}
}

// TestDeferredPruningFiresAndStaysExact: an OR query saturated with
// exact zeros (more zeros than k) puts the cut at 0, and the codes of
// the zeros are exact, so the filter decides every row without the
// kernel — while the ranking remains bit-identical to the eager
// reference.
func TestDeferredPruningFiresAndStaysExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 8 * evalChunk
	mkLeaf := func(zeroEvery int) *Node {
		d := make([]float64, n)
		for i := range d {
			if i%zeroEvery == 0 {
				d[i] = 0
			} else {
				d[i] = 1 + rng.Float64()*100
			}
		}
		return &Node{Op: Leaf, Weight: 1, Dists: d}
	}
	tree := &Node{Op: NodeOr, Weight: 1, Children: []*Node{mkLeaf(3), mkLeaf(4)}}
	opts := EvalOptions{Budget: 64}
	k := 256

	_, wantSorted, wantOrder := eagerRanking(t, tree, n, k, opts)

	attachLeafStats(tree)
	opts.DeferRoot = true
	got, err := Evaluate(tree, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	rk, err := got.RankRoot(k, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rk.Refined != 0 || rk.Pruned != rk.Chunks {
		t.Fatalf("a zero-saturated selection refined %d rows and pruned %d of %d chunks, want none and all", rk.Refined, rk.Pruned, rk.Chunks)
	}
	for r := 0; r < k; r++ {
		if rk.Order[r] != wantOrder[r] || math.Float64bits(rk.Sorted[r]) != math.Float64bits(wantSorted[r]) {
			t.Fatalf("rank %d diverged under pruning: (%v,%d) vs (%v,%d)",
				r, rk.Sorted[r], rk.Order[r], wantSorted[r], wantOrder[r])
		}
	}
}

// TestWindowBeforeRankingKeepsPruning: reading an interior child's
// window before the ranking scales that child into a buffer of its own
// and leaves the root's raw values alone, so the ranking prunes exactly
// what it prunes without the read — on a nested OR saturated with exact
// zeros — and stays bit-identical to the eager reference.
func TestWindowBeforeRankingKeepsPruning(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	n := 8 * evalChunk
	mkLeaf := func(zeroEvery int) *Node {
		d := make([]float64, n)
		for i := range d {
			if i%zeroEvery != 0 {
				d[i] = 1 + rng.Float64()*100
			}
		}
		return &Node{Op: Leaf, Weight: 1, Dists: d}
	}
	inner := &Node{Op: NodeOr, Weight: 1, Children: []*Node{mkLeaf(3), mkLeaf(4)}}
	tree := &Node{Op: NodeOr, Weight: 1, Children: []*Node{inner, mkLeaf(5)}}
	opts := EvalOptions{Budget: 64}
	k := 256
	eager, wantSorted, wantOrder := eagerRanking(t, tree, n, k, opts)

	attachLeafStats(tree)
	opts.DeferRoot = true
	var pruned [2]int
	for run, readFirst := range []bool{false, true} {
		got, err := Evaluate(tree, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		if readFirst {
			sameVec(t, "inner window", eager.Vec(inner), got.Vec(inner))
		}
		rk, err := got.RankRoot(k, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < k; r++ {
			if rk.Order[r] != wantOrder[r] || math.Float64bits(rk.Sorted[r]) != math.Float64bits(wantSorted[r]) {
				t.Fatalf("read first %v: rank %d diverged: (%v,%d) vs (%v,%d)",
					readFirst, r, rk.Sorted[r], rk.Order[r], wantSorted[r], wantOrder[r])
			}
		}
		sameVec(t, "combined", eager.Combined, got.Vec(tree))
		pruned[run] = rk.Pruned
	}
	t.Logf("pruned %d of %d chunks, %d after reading the window first", pruned[0], n/evalChunk, pruned[1])
	if pruned[0] == 0 || pruned[1] != pruned[0] {
		t.Fatal("reading a window before the ranking changed what the ranking pruned")
	}
}

// TestUndeferrableRootsFinishEagerly: a root whose transform could
// overflow — AND weights summing past MaxFloat64 once scaled, an OR whose
// Σw is so small its geometric root overflows, an Lp3 sum overflowing —
// is finished eagerly under DeferRoot, by the combine the deferral check
// read, bit-identically to the evaluation without DeferRoot.
func TestUndeferrableRootsFinishEagerly(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	n := 2*evalChunk + 99
	for _, tc := range []struct {
		name    string
		op      NodeOp
		opts    EvalOptions
		weights []float64
	}{
		{"AND", NodeAnd, EvalOptions{}, []float64{1e307, 1e308}},
		{"OR", NodeOr, EvalOptions{}, []float64{1e-300, 1e-300}},
		{"Lp3", NodeAnd, EvalOptions{And: ANDLp, LpP: 3}, []float64{1e305, 1e306}},
	} {
		root := &Node{Op: tc.op, Weight: 1}
		for _, w := range tc.weights {
			leaf := buildRandomTree(rng, n, 0) // NaNs, zeros and finite distances
			leaf.Weight = w
			root.Children = append(root.Children, leaf)
		}
		tc.opts.Budget = 64
		want, err := Evaluate(root, n, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		attachLeafStats(root)
		tc.opts.DeferRoot = true
		got, err := Evaluate(root, n, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Deferred() {
			t.Fatalf("%s: a root with weights %v was deferred", tc.name, tc.weights)
		}
		sameVec(t, tc.name+" combined", want.Combined, got.Combined)
		for j, leaf := range root.Children {
			sameVec(t, fmt.Sprintf("%s child %d", tc.name, j), want.Vec(leaf), got.Vec(leaf))
		}
	}
}

// TestStreamSelectorMatchesSort: the streaming lex selection equals a
// full sort's first k pairs.
func TestStreamSelectorMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(5000)
		k := 1 + rng.Intn(n)
		vals := make([]float64, n)
		for i := range vals {
			switch rng.Intn(6) {
			case 0:
				vals[i] = 0
			case 1:
				vals[i] = float64(rng.Intn(3))
			case 2:
				vals[i] = math.NaN()
			default:
				vals[i] = rng.Float64() * 10
			}
		}
		wantSorted, wantIdx := reduce.SortWithIndex(vals)
		comparable := 0
		for _, v := range vals {
			if !math.IsNaN(v) {
				comparable++
			}
		}
		sel := topk.NewStreamSelector(k, nil)
		sel.OfferSlice(vals, 0)
		cands, kth, complete := sel.Finish()
		if comparable < k {
			if complete {
				t.Fatalf("trial %d: complete with only %d comparable of k=%d", trial, comparable, k)
			}
			if len(cands) != comparable {
				t.Fatalf("trial %d: %d cands, want all %d comparables", trial, len(cands), comparable)
			}
			continue
		}
		if !complete {
			t.Fatalf("trial %d: incomplete with %d comparable ≥ k=%d", trial, comparable, k)
		}
		if kth.V != wantSorted[k-1] || kth.I != wantIdx[k-1] {
			t.Fatalf("trial %d: kth = (%v,%d), want (%v,%d)", trial, kth.V, kth.I, wantSorted[k-1], wantIdx[k-1])
		}
		got := make(map[int]bool, len(cands))
		for _, c := range cands {
			got[c.I] = true
		}
		for r := 0; r < k; r++ {
			if !got[wantIdx[r]] {
				t.Fatalf("trial %d: rank-%d index %d missing from candidates", trial, r, wantIdx[r])
			}
		}
	}
}

// TestSupWhere: the bisection finds exact boundaries of monotone
// predicates over the full float range.
func TestSupWhere(t *testing.T) {
	// Simple threshold predicate: largest x with x ≤ c is c itself.
	for _, c := range []float64{0, 1, -3.5, 255, math.Inf(1)} {
		got := topk.SupWhere(func(x float64) bool { return x <= c }, math.Inf(-1), math.Inf(1))
		if got != c {
			t.Fatalf("sup{x ≤ %v} = %v", c, got)
		}
	}
	// Strict threshold: largest x with x < c is the predecessor of c.
	got := topk.SupWhere(func(x float64) bool { return x < 1 }, math.Inf(-1), math.Inf(1))
	if got != math.Nextafter(1, math.Inf(-1)) {
		t.Fatalf("sup{x < 1} = %v", got)
	}
	// Predicate false everywhere → NaN.
	if v := topk.SupWhere(func(x float64) bool { return false }, 0, math.Inf(1)); !math.IsNaN(v) {
		t.Fatalf("empty preimage should be NaN, got %v", v)
	}
	// A clamp-shaped transform: preimage of the upper clamp extends to
	// +Inf, preimage of the interior value is a tight interval.
	p := NormParams{DMin: 0, DMax: 100}
	key := func(x float64) float64 { return p.Apply(x) }
	s := key(50.0)
	hi := topk.SupWhere(func(x float64) bool { return key(x) <= s }, math.Inf(-1), math.Inf(1))
	loEx := topk.SupWhere(func(x float64) bool { return key(x) < s }, math.Inf(-1), math.Inf(1))
	if !(loEx < 50 && 50 <= hi) {
		t.Fatalf("interior preimage (%v, %v] must contain 50", loEx, hi)
	}
	if key(hi) != s || key(math.Nextafter(hi, math.Inf(1))) <= s {
		t.Fatalf("hi boundary inexact")
	}
	clamp := topk.SupWhere(func(x float64) bool { return key(x) <= Scale }, math.Inf(-1), math.Inf(1))
	if !math.IsInf(clamp, 1) {
		t.Fatalf("clamp preimage should reach +Inf, got %v", clamp)
	}
}
