package relevance

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// entryOf builds an InteriorEntry over dists exactly as the fused pass
// would: per-chunk scans, merged total, copied vector.
func entryOf(dists []float64) *InteriorEntry {
	nchunks := (len(dists) + evalChunk - 1) / evalChunk
	scans := make([]rangeScan, nchunks)
	total := newRangeScan()
	for ci := 0; ci < nchunks; ci++ {
		lo := ci * evalChunk
		hi := lo + evalChunk
		if hi > len(dists) {
			hi = len(dists)
		}
		scans[ci] = scanRange(dists, lo, hi)
		total.merge(scans[ci])
	}
	return newInteriorEntry(dists, scans, total)
}

// TestInteriorEntryRangeMatchesNormRange: for every distribution shape
// (flat — the guard path; clustered — the sketch path; non-finite
// mixes; degenerate) and a sweep of keep counts, the entry's Range must
// return bit-identical params to the reference NormRange over the same
// vector.
func TestInteriorEntryRangeMatchesNormRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gens := map[string]func(n int) []float64{
		"uniform": func(n int) []float64 {
			d := make([]float64, n)
			for i := range d {
				d[i] = rng.Float64() * 100
			}
			return d
		},
		"clustered": func(n int) []float64 {
			// Most mass far from the low tail: the crossing bucket for
			// small keeps touches few chunks.
			d := make([]float64, n)
			for i := range d {
				if i%977 == 0 {
					d[i] = rng.Float64()
				} else {
					d[i] = 90 + rng.Float64()*10
				}
			}
			return d
		},
		"specials": func(n int) []float64 {
			d := make([]float64, n)
			for i := range d {
				switch i % 13 {
				case 0:
					d[i] = math.NaN()
				case 1:
					d[i] = math.Inf(1)
				case 2:
					d[i] = math.Inf(-1)
				default:
					d[i] = rng.NormFloat64() * 50
				}
			}
			return d
		},
		"constant": func(n int) []float64 {
			d := make([]float64, n)
			for i := range d {
				d[i] = 42.5
			}
			return d
		},
		"allnan": func(n int) []float64 {
			d := make([]float64, n)
			for i := range d {
				d[i] = math.NaN()
			}
			return d
		},
		"extremes": func(n int) []float64 {
			// Span overflows float64: the histogram is declined and every
			// query takes the exact fallback.
			d := make([]float64, n)
			for i := range d {
				d[i] = (rng.Float64()*2 - 1) * math.MaxFloat64
			}
			return d
		},
	}
	for name, gen := range gens {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{1, 100, evalChunk, 3*evalChunk + 17} {
				dists := gen(n)
				e := entryOf(dists)
				keeps := []int{0, 1, 2, n / 100, n / 8, n / 2, n - 1, n, n + 5}
				for _, keep := range keeps {
					want := NormRange(dists, keep)
					got, rescans := e.Range(keep)
					if want.NoFinite != got.NoFinite || want.Kept != got.Kept ||
						math.Float64bits(want.DMin) != math.Float64bits(got.DMin) ||
						math.Float64bits(want.DMax) != math.Float64bits(got.DMax) {
						t.Fatalf("n=%d keep=%d: sketch %+v, reference %+v", n, keep, got, want)
					}
					if rescans < 0 || rescans > e.Chunks() {
						t.Fatalf("n=%d keep=%d: rescans %d out of [0,%d]", n, keep, rescans, e.Chunks())
					}
					// Memoized repeat: same params, zero rescans.
					again, r2 := e.Range(keep)
					if again != got || r2 != 0 {
						t.Fatalf("n=%d keep=%d: memo returned %+v/%d", n, keep, again, r2)
					}
				}
			}
		})
	}
}

// TestInteriorSketchLocalizesRescans: on a clustered distribution with
// a display-budget keep, the sketch must answer from a small fraction
// of the chunks — the incremental claim, not just the exactness one.
func TestInteriorSketchLocalizesRescans(t *testing.T) {
	n := 64 * evalChunk
	dists := make([]float64, n)
	rng := rand.New(rand.NewSource(3))
	for i := range dists {
		if i/evalChunk == 5 { // low tail lives in one chunk
			dists[i] = rng.Float64()
		} else {
			dists[i] = 50 + rng.Float64()*50
		}
	}
	e := entryOf(dists)
	_, rescans := e.Range(100)
	if rescans == 0 || rescans > e.Chunks()/4 {
		t.Fatalf("rescanned %d of %d chunks, want small non-zero", rescans, e.Chunks())
	}
}

// labelLeaves assigns unique labels (the signature's leaf identity).
func labelLeaves(root *Node) {
	i := 0
	var walk func(*Node)
	walk = func(n *Node) {
		if n.Op == Leaf {
			n.Label = fmt.Sprintf("leaf%d", i)
			i++
			return
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(root)
}

// collectLeaves returns the tree's leaves in walk order.
func collectLeaves(root *Node) []*Node {
	var leaves []*Node
	var walk func(*Node)
	walk = func(n *Node) {
		if n.Op == Leaf {
			leaves = append(leaves, n)
			return
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(root)
	return leaves
}

// TestInteriorCacheHitBitIdentical: evaluating with a warm interior
// cache must reproduce the hookless evaluation bit for bit — combined
// vector and every leaf window — across option variants, weight drags,
// and the deferred root; and the cached entries themselves must come
// back byte-identical (the evaluation may only borrow them).
func TestInteriorCacheHitBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	variants := []EvalOptions{
		{},
		{Mode: PaperRaw},
		{And: ANDLp, LpP: 3},
		{LazyLeaves: true},
		{LazyLeaves: true, DeferRoot: true},
		{NaiveNormalize: true},
	}
	for trial := 0; trial < 30; trial++ {
		n := 50 + rng.Intn(2*evalChunk)
		tree := buildRandomTree(rng, n, 3)
		labelLeaves(tree)
		opts := variants[trial%len(variants)]
		opts.Budget = 1 + n/(1+rng.Intn(6))

		// Cold run fills the store.
		store := map[string]*InteriorEntry{}
		cold := opts
		cold.InteriorStore = func(sig string, e *InteriorEntry) { store[sig] = e }
		if _, err := Evaluate(tree, n, cold); err != nil {
			t.Fatal(err)
		}
		if tree.Op != Leaf && len(store) == 0 {
			t.Fatal("cold run stored no interior entries")
		}
		// Snapshot entry payloads to prove the warm run only borrows.
		snap := map[string][]float64{}
		for sig, e := range store {
			snap[sig] = append([]float64(nil), e.raw...)
		}

		// A weight drag that leaves subtrees reusable: perturb one leaf's
		// weight on half the trials (subtrees not containing it still hit).
		if trial%2 == 1 {
			leaves := collectLeaves(tree)
			leaves[rng.Intn(len(leaves))].Weight += 0.25
		}

		warm := opts
		fetches, hits := 0, 0
		warm.InteriorFetch = func(sig string) *InteriorEntry {
			fetches++
			if e := store[sig]; e != nil {
				hits++
				return e
			}
			return nil
		}
		got, err := Evaluate(tree, n, warm)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Evaluate(tree, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		if tree.Op != Leaf {
			if fetches == 0 {
				t.Fatal("warm run never consulted the cache")
			}
			if trial%2 == 0 && hits == 0 {
				t.Fatal("undisturbed rerun missed the cache")
			}
			if got.SketchHits != hits {
				t.Fatalf("SketchHits %d, fetch hits %d", got.SketchHits, hits)
			}
		}
		sameVec(t, "combined", ref.MaterializeCombined(), got.MaterializeCombined())
		for i, leaf := range collectLeaves(tree) {
			sameVec(t, fmt.Sprintf("leaf %d", i), ref.Vec(leaf), got.Vec(leaf))
		}
		// Direct interior children of the root materialize through Vec on
		// both paths (exercises the borrowed-pending copy under DeferRoot
		// and the borrowed-root/child scaling when eager).
		if tree.Op != Leaf {
			for i, ch := range tree.Children {
				if ch.Op == Leaf {
					continue
				}
				sameVec(t, fmt.Sprintf("interior child %d", i), ref.Vec(ch), got.Vec(ch))
			}
		}
		for sig, want := range snap {
			sameVec(t, "cached entry "+sig, want, store[sig].raw)
		}
	}
}

// TestInteriorSigExcludesOwnWeight: dragging a node's own weight must
// not change its signature (the raw vector is weight-of-self
// independent), while dragging a child's weight must.
func TestInteriorSigExcludesOwnWeight(t *testing.T) {
	n := 100
	mk := func() *Node {
		a := &Node{Op: Leaf, Label: "a", Weight: 1, Dists: make([]float64, n)}
		b := &Node{Op: Leaf, Label: "b", Weight: 2, Dists: make([]float64, n)}
		return &Node{Op: NodeAnd, Weight: 1, Children: []*Node{a, b}}
	}
	sigOf := func(root *Node) string {
		c := &fusedCtx{opts: EvalOptions{Budget: 10}, n: n}
		return c.sig(root)
	}
	base := mk()
	self := mk()
	self.Weight = 5
	if sigOf(base) != sigOf(self) {
		t.Fatal("own-weight drag changed the signature")
	}
	child := mk()
	child.Children[0].Weight = 5
	if sigOf(base) == sigOf(child) {
		t.Fatal("child-weight drag did not change the signature")
	}
	budget := &fusedCtx{opts: EvalOptions{Budget: 20}, n: n}
	if budget.sig(mk()) == sigOf(mk()) {
		t.Fatal("budget change did not change the signature")
	}
}
