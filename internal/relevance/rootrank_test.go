package relevance

import (
	"fmt"
	"math"
	"math/rand"
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

// attachLeafStats gives every leaf of the tree its chunk-stats (and
// optionally quantile) index — what the session cache does for hot
// leaves, and what arms block pruning.
func attachLeafStats(root *Node, quantiles bool) {
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Op == Leaf {
			n.ChunkStats = BuildLeafChunkStatsMasked(n.Dists, nil)
			if quantiles {
				n.Quantiles = leafQuantiles(n.Dists)
			}
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
}

// clearLeafStats drops the indexes again (trees are shared between
// eager and deferred runs; the eager reference must not be affected —
// it is not, but symmetric state keeps the comparison honest).
func clearLeafStats(root *Node) {
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Op == Leaf {
			n.ChunkStats, n.Quantiles = nil, nil
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
// deferred (rank-before-scale, block-pruned) ranking must be
// bit-identical — order, scaled values, NaN counts, and the lazily
// materialized Combined vector — to the eager pipeline followed by a
// plain top-k selection, across combiner modes, adversarial tie
// distributions, stats-armed and stats-less leaves, and seeds.
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
			attachLeafStats(tree, rng.Intn(2) == 0)
		}
		opts.DeferRoot = true
		got, err := Evaluate(tree, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Deferred() {
			t.Fatalf("trial %d: evaluation did not defer", trial)
		}
		seed := math.NaN()
		switch rng.Intn(4) {
		case 1:
			seed = 0 // maximally tight stale seed
		case 2:
			seed = rng.Float64() * 50 // arbitrary stale seed
		case 3:
			seed = math.Inf(1) // maximally loose seed
		}
		rk, err := got.RankRoot(k, seed, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < k; r++ {
			if rk.Order[r] != wantOrder[r] {
				t.Fatalf("trial %d (k=%d seed=%v stats=%v): order[%d] = %d, want %d",
					trial, k, seed, withStats, r, rk.Order[r], wantOrder[r])
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
// exact zeros (more zeros than k) lets the running threshold collapse
// to 0 after the first chunks, so block pruning must skip most of the
// combine work — while remaining bit-identical to the eager reference.
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

	attachLeafStats(tree, true)
	opts.DeferRoot = true
	got, err := Evaluate(tree, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	rk, err := got.RankRoot(k, math.NaN(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rk.Pruned == 0 {
		t.Fatalf("expected pruned chunks on a zero-saturated selection, got %+v", rk)
	}
	for r := 0; r < k; r++ {
		if rk.Order[r] != wantOrder[r] || math.Float64bits(rk.Sorted[r]) != math.Float64bits(wantSorted[r]) {
			t.Fatalf("rank %d diverged under pruning: (%v,%d) vs (%v,%d)",
				r, rk.Sorted[r], rk.Order[r], wantSorted[r], wantOrder[r])
		}
	}
	// The raw threshold of a zero-saturated selection is 0 — the seed
	// the next rerun starts from.
	if rk.Threshold != 0 {
		t.Fatalf("threshold = %v, want 0", rk.Threshold)
	}
}

// TestWindowBeforeRankingKeepsPruning: reading an interior child's
// window before the ranking scales that child into a buffer of its own
// and leaves the root's raw chunks alone, so the ranking prunes exactly
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

	attachLeafStats(tree, true)
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
		rk, err := got.RankRoot(k, math.NaN(), nil, nil)
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
		attachLeafStats(root, true)
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

// TestSeededSaturatedSelectionPrunes: on a selection saturated with
// exact answers (k ≤ zeros < 2k) the carried seed is 0 and admits every
// zero; the seeded rerun must install an indexed bound as soon as it
// holds k of them and prune at least what the unseeded run pruned — a
// previous answer must never do worse than none. Both runs stay
// bit-identical to the eager reference.
func TestSeededSaturatedSelectionPrunes(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	n := 16 * evalChunk
	mkLeaf := func() *Node {
		d := make([]float64, n)
		for i := range d {
			if i%11 != 0 {
				d[i] = 1 + rng.Float64()*100
			}
		}
		return &Node{Op: Leaf, Weight: 1, Dists: d}
	}
	tree := &Node{Op: NodeAnd, Weight: 1, Children: []*Node{mkLeaf(), mkLeaf()}}
	opts := EvalOptions{Budget: 64}
	k := 4096 // n/11 ≈ 5958 zeros: k ≤ zeros < 2k

	_, wantSorted, wantOrder := eagerRanking(t, tree, n, k, opts)

	attachLeafStats(tree, true)
	opts.DeferRoot = true
	seed := math.NaN()
	var pruned [2]int
	for run := range pruned {
		got, err := Evaluate(tree, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		rk, err := got.RankRoot(k, seed, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(rk.Order) != k || len(rk.Sorted) != k {
			t.Fatalf("run %d: ranking is %d/%d long, want %d", run, len(rk.Order), len(rk.Sorted), k)
		}
		for r := 0; r < k; r++ {
			if rk.Order[r] != wantOrder[r] || math.Float64bits(rk.Sorted[r]) != math.Float64bits(wantSorted[r]) {
				t.Fatalf("run %d: rank %d diverged: (%v,%d) vs (%v,%d)",
					run, r, rk.Sorted[r], rk.Order[r], wantSorted[r], wantOrder[r])
			}
		}
		if rk.Threshold != 0 {
			t.Fatalf("run %d: threshold = %v, want 0", run, rk.Threshold)
		}
		pruned[run], seed = rk.Pruned, rk.Threshold
	}
	t.Logf("pruned %d of %d chunks unseeded, %d under the carried seed", pruned[0], n/evalChunk, pruned[1])
	if pruned[0] == 0 || pruned[1] < pruned[0] {
		t.Fatal("the carried seed pruned less than no seed at all")
	}
}

// TestDeferredSeedSelfHeals: a seed from a differently-scaled previous
// run (weights changed → raw domain shifted) may starve the seeded
// pass; the selection must detect it and re-run, never returning a
// wrong ranking.
func TestDeferredSeedSelfHeals(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 4 * evalChunk
	d := make([]float64, n)
	for i := range d {
		d[i] = 10 + rng.Float64()*100 // nothing below 10: a seed of 1 starves
	}
	tree := &Node{Op: NodeAnd, Weight: 1, Children: []*Node{
		{Op: Leaf, Weight: 1, Dists: d},
		{Op: Leaf, Weight: 2, Dists: append([]float64(nil), d...)},
	}}
	opts := EvalOptions{Budget: 32}
	k := 64
	_, wantSorted, wantOrder := eagerRanking(t, tree, n, k, opts)
	attachLeafStats(tree, true)
	opts.DeferRoot = true
	got, err := Evaluate(tree, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	rk, err := got.RankRoot(k, 1e-9, nil, nil) // absurdly tight stale seed
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < k; r++ {
		if rk.Order[r] != wantOrder[r] || math.Float64bits(rk.Sorted[r]) != math.Float64bits(wantSorted[r]) {
			t.Fatalf("rank %d diverged after seed self-heal", r)
		}
	}
}

// TestStreamSelectorMatchesSort: the streaming lex selection equals a
// full sort's first k pairs, seeded or not.
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
		seed := math.NaN()
		if trial%3 == 0 {
			seed = rng.Float64() * 12
		}
		sel := topk.NewStreamSelector(k, seed)
		sel.OfferSlice(vals, 0)
		cands, kth, complete := sel.Finish()
		if !complete && !math.IsNaN(seed) {
			// Seed starvation: the caller's contract is to re-run
			// unseeded.
			sel = topk.NewStreamSelector(k, math.NaN())
			sel.OfferSlice(vals, 0)
			cands, kth, complete = sel.Finish()
		}
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

// chunkBound is the per-chunk bound combine.bounds replaced: the
// children's scaled chunk minima folded with the raw kernels'
// arithmetic, written out once more per combiner. It is the reference
// combine.bounds is held to.
func chunkBound(cb *combine, mins [][]float64, ci int) float64 {
	powUsed := false
	var b float64
	switch cb.combiner {
	case cmbAnd:
		for j := range mins {
			m := cb.params[j].Apply(mins[j][ci])
			b += cb.ws[j] * m
		}
	case cmbLp:
		if cb.lpP == 2 {
			for j := range mins {
				m := cb.params[j].Apply(mins[j][ci])
				b += cb.ws[j] * (m * m)
			}
		} else {
			powUsed = true
			for j := range mins {
				m := cb.params[j].Apply(mins[j][ci])
				b += cb.ws[j] * math.Pow(math.Abs(m), cb.lpP)
			}
		}
	case cmbOr:
		prod := 1.0
		for j := range mins {
			m := cb.params[j].Apply(mins[j][ci])
			w := cb.ws[j]
			if m == 0 && w > 0 {
				return 0
			}
			switch w {
			case 0:
			case 1:
				prod *= m
			case 2:
				prod *= m * m
			case 3:
				prod *= m * m * m
			default:
				prod *= math.Pow(m, w)
				powUsed = true
			}
		}
		b = prod
	}
	if powUsed && b > 0 {
		b = math.Nextafter(b*(1-1e-9), math.Inf(-1))
	}
	return b
}

// TestChunkBoundsAreTheCombineKernel: the bounds combine.bounds takes
// from the root's own combine kernel over applyRange-scaled chunk minima equal
// chunkBound's bit for bit, under AND, OR, Lp2 and Lp3, over random rows
// of ±0, -Inf, +Inf and finite distances and weights from {0, 1, 2, 3,
// 0.5, 7}; and every bound is at most every raw combined value of its
// chunk.
func TestChunkBoundsAreTheCombineKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	weights := []float64{0, 1, 2, 3, 0.5, 7}
	params := []NormParams{
		{DMin: 0, DMax: 50, Kept: 9},
		{DMin: -20, DMax: 30, Kept: 9},
		{DMin: 7.5, DMax: 7.5, Kept: 1},
		{DMin: 0, DMax: 1e-300, Kept: 9},
		{NoFinite: true},
	}
	row := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return math.Inf(-1)
		case 3:
			return math.Inf(1)
		default:
			return rng.Float64() * 60
		}
	}
	kernels := []struct {
		name string
		op   NodeOp
		opts EvalOptions
	}{
		{"AND", NodeAnd, EvalOptions{}},
		{"OR", NodeOr, EvalOptions{}},
		{"Lp2", NodeAnd, EvalOptions{And: ANDLp, LpP: 2}},
		{"Lp3", NodeAnd, EvalOptions{And: ANDLp, LpP: 3}},
	}
	const nchunks, rowsPerChunk = 7, 6
	for _, kn := range kernels {
		for trial := 0; trial < 200; trial++ {
			k := 2 + rng.Intn(3)
			ws := make([]float64, k)
			for j := range ws {
				ws[j] = weights[rng.Intn(len(weights))]
			}
			cb := &combine{params: make([]NormParams, k)}
			var effSum float64
			cb.ws, effSum = resolveWeights(ws, k)
			cb.combiner, cb.t, cb.lpP = kernelFor(kn.op, kn.opts, effSum)
			rows := make([][]float64, k) // child j's rows, chunk after chunk
			mins, nans := make([][]float64, k), make([][]int32, k)
			for j := range rows {
				cb.params[j] = params[rng.Intn(len(params))]
				rows[j] = make([]float64, nchunks*rowsPerChunk)
				mins[j], nans[j] = make([]float64, nchunks), make([]int32, nchunks)
				for ci := range mins[j] {
					chunk := rows[j][ci*rowsPerChunk : (ci+1)*rowsPerChunk]
					for i := range chunk {
						chunk[i] = row()
						if i == 0 || chunk[i] < mins[j][ci] {
							mins[j][ci] = chunk[i]
						}
					}
				}
			}
			nans[0][1] = 1 // a chunk with a NaN gets no bound
			bounds, nanFree := cb.bounds(mins, nans)
			scaled := make([][]float64, k)
			for j := range scaled {
				scaled[j] = make([]float64, len(rows[j]))
				applyRange(scaled[j], rows[j], cb.params[j])
			}
			combined := make([]float64, nchunks*rowsPerChunk)
			combineRaw(cb.combiner, combined, scaled, cb.ws, cb.lpP)
			for ci := 0; ci < nchunks; ci++ {
				got := bounds[ci]
				if ci == 1 {
					if nanFree[ci] || !math.IsNaN(got) {
						t.Fatalf("%s: the chunk with a NaN is bounded (%v, NaN-free %v)", kn.name, got, nanFree[ci])
					}
					continue
				}
				want := chunkBound(cb, mins, ci)
				if !nanFree[ci] || math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s ws %v params %+v chunk %d: bound %v [%#x], chunkBound %v [%#x]",
						kn.name, cb.ws, cb.params, ci, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				for _, v := range combined[ci*rowsPerChunk : (ci+1)*rowsPerChunk] {
					if got > v {
						t.Fatalf("%s ws %v chunk %d: bound %v above the combined value %v", kn.name, cb.ws, ci, got, v)
					}
				}
			}
		}
	}
}
