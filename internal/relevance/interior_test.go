package relevance

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// cachedVec is what a map-backed EvalOptions.Interior holds for one
// key.
type cachedVec struct {
	raw   []float64
	codes *Codes
}

// interiorHit evaluates AND(part, x) the way the engine does (lazy
// leaves, deferred root) with part's raw combined vector answered by
// EvalOptions.Interior — raw itself, with its code plane or without —
// and returns the params the evaluator ranged part with and the rescans
// it reported.
func interiorHit(t *testing.T, raw []float64, budget int, coded bool) (NormParams, int) {
	t.Helper()
	n := len(raw)
	leaf := func(label string) *Node { return &Node{Op: Leaf, Label: label, Dists: make([]float64, n)} }
	part := &Node{Op: NodeOr, Children: []*Node{leaf("a"), leaf("b")}, Key: "part"}
	root := &Node{Op: NodeAnd, Children: []*Node{part, leaf("x")}}
	opts := EvalOptions{Budget: budget, NaiveNormalize: budget == 0, DeferRoot: true}
	opts.Interior = func(string, func() ([]float64, *Codes, error)) ([]float64, *Codes, error) {
		if coded {
			return raw, BuildCodes(raw), nil
		}
		return raw, nil, nil
	}
	res, err := Evaluate(root, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.SketchHits != 1 {
		t.Fatalf("SketchHits %d, want 1", res.SketchHits)
	}
	return res.lazy[part].p, res.SketchRescans
}

// TestInteriorEntryRangeMatchesNormRange: a cached subtree is ranged
// like a leaf. For every distribution shape (non-finite mixes, signed
// zeros, duplicate-heavy, degenerate) and random keep counts, the
// params of an interior hit equal NormRange over the cached vector, with
// and without its code plane, and the rescans say whether a pass over
// the vector answered: always without the plane, and with it exactly
// when the keep-th smallest finite value is not the minimum.
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
				case 3:
					d[i] = math.Copysign(0, -1)
				default:
					d[i] = rng.NormFloat64() * 50
				}
			}
			return d
		},
		"duplicates": func(n int) []float64 {
			// A handful of distinct values, both zeros among them.
			vals := []float64{0, math.Copysign(0, -1), 1, 1, 2.5, 255}
			d := make([]float64, n)
			for i := range d {
				d[i] = vals[rng.Intn(len(vals))]
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
			// Span overflows float64.
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
				budgets := []int{0, 1, 2, n / 2, n - 1, n, n + 5}
				for i := 0; i < 6; i++ {
					budgets = append(budgets, 1+rng.Intn(n))
				}
				fin := oracleSorted(dists)
				for _, budget := range budgets {
					keep := 0
					if budget != 0 {
						keep = KeepCount(budget, n, 1)
					}
					want := NormRange(dists, keep)
					gather := 0
					if o := oracleRange(fin, keep); !o.NoFinite {
						gather = b2i(fin[o.Kept-1] != fin[0])
					}
					for _, coded := range []bool{false, true} {
						got, rescans := interiorHit(t, dists, budget, coded)
						if !sameParams(want, got) {
							t.Fatalf("n=%d keep=%d coded=%v: hit %+v, reference %+v", n, keep, coded, got, want)
						}
						if wantRescans := map[bool]int{false: 1, true: gather}[coded]; rescans != wantRescans {
							t.Fatalf("n=%d keep=%d coded=%v: rescans %d, want %d", n, keep, coded, rescans, wantRescans)
						}
					}
				}
			}
		})
	}
}

// labelLeaves assigns unique labels (keyTree's leaf identity).
func labelLeaves(root *Node) {
	for i, leaf := range collectLeaves(root) {
		leaf.Label = fmt.Sprintf("leaf%d", i)
	}
}

// keyTree keys every interior node the way the engine's runKeys.interior
// does — by its operator and each child's key and weight, its own weight
// left out — with a leaf's label as its key, and returns root's key.
func keyTree(root *Node) string {
	if root.Op == Leaf {
		return root.Label
	}
	root.Key = fmt.Sprint(root.Op)
	for _, ch := range root.Children {
		root.Key += fmt.Sprintf("(%s|w%x)", keyTree(ch), ch.EffWeight())
	}
	return root.Key
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
// and the deferred root, with the cached vectors' code planes dropped on
// every other trial; and the cached vectors themselves must come back
// byte-identical (the evaluation may only read them).
func TestInteriorCacheHitBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	variants := []EvalOptions{
		{},
		{Mode: PaperRaw},
		{And: ANDLp, LpP: 3},
		{DeferRoot: true},
		{NaiveNormalize: true},
	}
	for trial := 0; trial < 30; trial++ {
		n := 50 + rng.Intn(2*evalChunk)
		tree := buildRandomTree(rng, n, 3)
		labelLeaves(tree)
		keyTree(tree)
		opts := variants[trial%len(variants)]
		opts.Budget = 1 + n/(1+rng.Intn(6))

		// Cold run fills the store.
		store := map[string]cachedVec{}
		cold := opts
		cold.Interior = func(key string, compute func() ([]float64, *Codes, error)) ([]float64, *Codes, error) {
			raw, codes, err := compute()
			if err == nil {
				store[key] = cachedVec{raw: raw, codes: codes}
			}
			return raw, codes, err
		}
		if _, err := Evaluate(tree, n, cold); err != nil {
			t.Fatal(err)
		}
		if tree.Op != Leaf && len(store) == 0 {
			t.Fatal("cold run stored no interior entries")
		}
		// Snapshot entry payloads to prove the warm run only borrows.
		snap := map[string][]float64{}
		for key, e := range store {
			snap[key] = append([]float64(nil), e.raw...)
			if trial%4 >= 2 {
				e.codes = nil
				store[key] = e
			}
		}

		// A weight drag that leaves subtrees reusable: perturb one leaf's
		// weight on half the trials (subtrees not containing it still hit).
		if trial%2 == 1 {
			leaves := collectLeaves(tree)
			leaves[rng.Intn(len(leaves))].Weight += 0.25
			keyTree(tree)
		}

		warm := opts
		fetches, hits := 0, 0
		warm.Interior = func(key string, compute func() ([]float64, *Codes, error)) ([]float64, *Codes, error) {
			fetches++
			if e, ok := store[key]; ok {
				hits++
				return e.raw, e.codes, nil
			}
			return compute()
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
		sameVec(t, "combined", ref.Vec(tree), got.Vec(tree))
		for i, leaf := range collectLeaves(tree) {
			sameVec(t, fmt.Sprintf("leaf %d", i), ref.Vec(leaf), got.Vec(leaf))
		}
		// Direct interior children of the root materialize through Vec on
		// both paths (cached or computed, every child is lazy).
		if tree.Op != Leaf {
			for i, ch := range tree.Children {
				if ch.Op == Leaf {
					continue
				}
				sameVec(t, fmt.Sprintf("interior child %d", i), ref.Vec(ch), got.Vec(ch))
			}
		}
		for key, want := range snap {
			sameVec(t, "cached entry "+key, want, store[key].raw)
		}
	}
}
