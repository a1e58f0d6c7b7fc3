package relevance

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestKeepCount(t *testing.T) {
	if KeepCount(100, 1000, 1) != 100 {
		t.Errorf("w=1: %d", KeepCount(100, 1000, 1))
	}
	if KeepCount(100, 1000, 0.5) != 200 {
		t.Errorf("w=0.5: %d", KeepCount(100, 1000, 0.5))
	}
	if KeepCount(100, 150, 0.5) != 150 {
		t.Errorf("cap at n: %d", KeepCount(100, 150, 0.5))
	}
	if KeepCount(100, 1000, 0) != 1000 {
		t.Errorf("tiny weight floors: %d", KeepCount(100, 1000, 0))
	}
	if KeepCount(0, 50, 1) != 50 {
		t.Errorf("zero budget keeps all: %d", KeepCount(0, 50, 1))
	}
	if KeepCount(100, 0, 1) != 0 {
		t.Errorf("empty data: %d", KeepCount(100, 0, 1))
	}
}

func TestNormalizeBasic(t *testing.T) {
	if p := NormRange([]float64{0, 5, 10}, 0); p.DMin != 0 || p.DMax != 10 {
		t.Fatalf("range: %+v", p)
	}
	n := Normalize([]float64{0, 5, 10}, 0)
	if n[0] != 0 || n[2] != Scale {
		t.Fatalf("endpoints: %v", n)
	}
	if math.Abs(n[1]-Scale/2) > 1e-9 {
		t.Fatalf("midpoint: %v", n[1])
	}
}

func TestNormalizeOutlierClamps(t *testing.T) {
	// One extreme value: with reduction-first (keep=4) the outlier
	// clamps to Scale instead of compressing everyone else near zero.
	dists := []float64{1, 2, 3, 4, 1e9}
	if p := NormRange(dists, 4); p.DMax != 4 {
		t.Fatalf("robust range: %+v", p)
	}
	robust := Normalize(dists, 4)
	if robust[4] != Scale {
		t.Fatalf("outlier should clamp: %v", robust[4])
	}
	if robust[1] < 50 {
		t.Fatalf("inliers should spread over the range: %v", robust)
	}
	naive := Normalize(dists, 0)
	if naive[1] > 1 {
		t.Fatalf("naive normalization should compress inliers: %v", naive)
	}
}

func TestNormalizeSpecials(t *testing.T) {
	n := Normalize([]float64{math.NaN(), math.Inf(1), math.Inf(-1), 5}, 0)
	if !math.IsNaN(n[0]) {
		t.Error("NaN passes through")
	}
	if n[1] != Scale {
		t.Error("+Inf clamps to Scale")
	}
	if n[2] != 0 {
		t.Error("-Inf clamps to 0")
	}
	// Constant nonzero distance: nothing fulfills, everything maps to
	// the dark end (the paper's "almost black in cases where all the
	// data are completely wrong results").
	c := Normalize([]float64{7, 7, 7}, 0)
	for _, v := range c {
		if v != Scale {
			t.Errorf("constant: %v", c)
		}
	}
	// Constant zero distance: everything is a correct answer (yellow).
	z := Normalize([]float64{0, 0}, 0)
	for _, v := range z {
		if v != 0 {
			t.Errorf("all-zero: %v", z)
		}
	}
	// All-NaN/empty.
	e := Normalize([]float64{math.NaN()}, 0)
	if !math.IsNaN(e[0]) {
		t.Error("all-NaN")
	}
	if got := Normalize(nil, 0); len(got) != 0 {
		t.Error("empty")
	}
}

// Property: Normalize maps finite inputs into [0, Scale] and preserves
// order among values within the kept range.
func TestNormalizeProperty(t *testing.T) {
	f := func(raw []float64, keepRaw uint8) bool {
		dists := make([]float64, 0, len(raw))
		for _, d := range raw {
			if !math.IsNaN(d) && !math.IsInf(d, 0) {
				dists = append(dists, math.Abs(d))
			}
		}
		if len(dists) == 0 {
			return true
		}
		keep := int(keepRaw)%len(dists) + 1
		n := Normalize(dists, keep)
		for i, v := range n {
			if v < 0 || v > Scale {
				return false
			}
			for j := range n[:i] {
				a, b := dists[j], dists[i]
				if a < b && n[j] > n[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestRelevanceFactor(t *testing.T) {
	if RelevanceFactor(0) != 1 {
		t.Error("exact answers have relevance 1")
	}
	if RelevanceFactor(math.NaN()) != 0 {
		t.Error("uncolorable items have relevance 0")
	}
	if !(RelevanceFactor(1) > RelevanceFactor(2)) {
		t.Error("relevance must decrease with distance")
	}
	rf := RelevanceFactors([]float64{0, 1, math.NaN()})
	if rf[0] != 1 || rf[2] != 0 {
		t.Errorf("factors: %v", rf)
	}
}

func TestCombineAnd(t *testing.T) {
	dists := [][]float64{{0, 100, 200}, {100, 100, 0}}
	got, err := CombineAnd(dists, []float64{1, 1}, WeightNormalized)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{50, 100, 100}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Weighted: first predicate 3x as important.
	got, _ = CombineAnd(dists, []float64{3, 1}, WeightNormalized)
	if math.Abs(got[0]-25) > 1e-9 { // (3·0 + 1·100)/4
		t.Fatalf("weighted: %v", got)
	}
	// Paper-raw mode: plain Σ w·d.
	got, _ = CombineAnd(dists, []float64{3, 1}, PaperRaw)
	if got[0] != 100 {
		t.Fatalf("raw: %v", got)
	}
	// NaN propagates.
	got, _ = CombineAnd([][]float64{{math.NaN()}, {1}}, nil, WeightNormalized)
	if !math.IsNaN(got[0]) {
		t.Fatal("NaN should propagate through AND")
	}
}

func TestCombineOr(t *testing.T) {
	// One fulfilled predicate (d=0) makes the item a correct answer.
	dists := [][]float64{{0, 100}, {255, 100}}
	got, err := CombineOr(dists, []float64{1, 1}, WeightNormalized)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Fatalf("zero component must zero the OR: %v", got)
	}
	if math.Abs(got[1]-100) > 1e-9 { // geometric mean of equal values
		t.Fatalf("geometric mean: %v", got)
	}
	// Weighted geometric mean: (4^1 · 16^1)^(1/2) = 8.
	got, _ = CombineOr([][]float64{{4}, {16}}, []float64{1, 1}, WeightNormalized)
	if math.Abs(got[0]-8) > 1e-9 {
		t.Fatalf("got %v", got)
	}
	// PaperRaw: plain product with weight exponents: 4·16 = 64.
	got, _ = CombineOr([][]float64{{4}, {16}}, []float64{1, 1}, PaperRaw)
	if math.Abs(got[0]-64) > 1e-9 {
		t.Fatalf("raw: %v", got)
	}
	// A fulfilled branch wins over an unknown one (SQL: true OR unknown
	// = true).
	got, _ = CombineOr([][]float64{{math.NaN()}, {0}}, nil, WeightNormalized)
	if got[0] != 0 {
		t.Fatalf("zero branch should beat NaN in OR: %v", got)
	}
	// Without a fulfilled branch, NaN makes the item uncolorable.
	got, _ = CombineOr([][]float64{{math.NaN()}, {5}}, nil, WeightNormalized)
	if !math.IsNaN(got[0]) {
		t.Fatal("NaN without a zero branch should propagate through OR")
	}
	// Zero weight ignores a predicate.
	got, _ = CombineOr([][]float64{{100}, {4}}, []float64{0, 1}, WeightNormalized)
	if math.Abs(got[0]-4) > 1e-9 {
		t.Fatalf("zero-weight predicate should vanish: %v", got)
	}
}

func TestCombineShapeErrors(t *testing.T) {
	if _, err := CombineAnd(nil, nil, WeightNormalized); err == nil {
		t.Error("no vectors")
	}
	if _, err := CombineAnd([][]float64{{1}, {1, 2}}, nil, WeightNormalized); err == nil {
		t.Error("ragged vectors")
	}
	if _, err := CombineAnd([][]float64{{1}}, []float64{1, 2}, WeightNormalized); err == nil {
		t.Error("weight count mismatch")
	}
	if _, err := CombineAnd([][]float64{{1}}, []float64{-1}, WeightNormalized); err == nil {
		t.Error("negative weight")
	}
	if _, err := CombineOr([][]float64{{1}}, []float64{math.NaN()}, WeightNormalized); err == nil {
		t.Error("NaN weight")
	}
}

// Property: AND result is bounded by child min/max; OR result never
// exceeds the max child (for values in [0, Scale]).
func TestCombineBoundsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		m := 2 + rng.Intn(4)
		n := 1 + rng.Intn(50)
		dists := make([][]float64, m)
		weights := make([]float64, m)
		for j := range dists {
			weights[j] = rng.Float64()*2 + 0.01
			dists[j] = make([]float64, n)
			for i := range dists[j] {
				dists[j][i] = rng.Float64() * Scale
			}
		}
		and, err := CombineAnd(dists, weights, WeightNormalized)
		if err != nil {
			t.Fatal(err)
		}
		or, err := CombineOr(dists, weights, WeightNormalized)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for j := 0; j < m; j++ {
				lo = math.Min(lo, dists[j][i])
				hi = math.Max(hi, dists[j][i])
			}
			if and[i] < lo-1e-9 || and[i] > hi+1e-9 {
				t.Fatalf("AND out of bounds: %v not in [%v,%v]", and[i], lo, hi)
			}
			if or[i] < 0 || or[i] > hi+1e-9 {
				t.Fatalf("OR out of bounds: %v > %v", or[i], hi)
			}
		}
	}
}

func TestCombineLpAndEuclidean(t *testing.T) {
	dists := [][]float64{{3}, {4}}
	got, err := CombineEuclidean(dists, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-5) > 1e-9 {
		t.Fatalf("3-4-5: %v", got)
	}
	if _, err := CombineLp(dists, nil, 0.5); err == nil {
		t.Error("p < 1 should fail")
	}
	got, err = CombineLp([][]float64{{1}, {1}}, nil, 1)
	if err != nil || math.Abs(got[0]-2) > 1e-9 {
		t.Fatalf("L1: %v %v", got, err)
	}
}

func TestEvaluateTree(t *testing.T) {
	// (p1 OR p2) AND p3 over 4 items.
	p1 := &Node{Op: Leaf, Label: "p1", Dists: []float64{0, 10, 20, 30}}
	p2 := &Node{Op: Leaf, Label: "p2", Dists: []float64{30, 0, 20, 10}}
	p3 := &Node{Op: Leaf, Label: "p3", Dists: []float64{0, 0, 5, 40}}
	or := &Node{Op: NodeOr, Label: "or", Children: []*Node{p1, p2}}
	root := &Node{Op: NodeAnd, Label: "root", Children: []*Node{or, p3}}
	res, err := Evaluate(root, 4, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Combined) != 4 {
		t.Fatalf("combined: %v", res.Combined)
	}
	// Items 0 and 1 fulfill one OR branch and p3 exactly → combined 0.
	if res.Combined[0] != 0 || res.Combined[1] != 0 {
		t.Fatalf("exact answers should stay 0: %v", res.Combined)
	}
	// Item 3 is the worst on both sides → Scale after normalization.
	if res.Combined[3] != Scale {
		t.Fatalf("worst item should hit Scale: %v", res.Combined)
	}
	// Every node has a normalized vector.
	for _, n := range []*Node{p1, p2, p3, or, root} {
		vec := res.Vec(n)
		if len(vec) != 4 {
			t.Fatalf("missing per-node vector for %s", n.Label)
		}
		for _, v := range vec {
			if v < 0 || v > Scale {
				t.Fatalf("node %s out of range: %v", n.Label, vec)
			}
		}
	}
}

func TestEvaluateErrors(t *testing.T) {
	if _, err := Evaluate(nil, 3, EvalOptions{}); err == nil {
		t.Error("nil tree")
	}
	bad := &Node{Op: Leaf, Dists: []float64{1}}
	if _, err := Evaluate(bad, 3, EvalOptions{}); err == nil {
		t.Error("length mismatch")
	}
	empty := &Node{Op: NodeAnd}
	if _, err := Evaluate(empty, 3, EvalOptions{}); err == nil {
		t.Error("childless interior node")
	}
	unknown := &Node{Op: NodeOp(99)}
	if _, err := Evaluate(unknown, 3, EvalOptions{}); err == nil {
		t.Error("unknown op")
	}
}

func TestEvaluateWeightInfluence(t *testing.T) {
	// Item A is good on p1, bad on p2; item B the reverse. Raising p1's
	// weight must rank A above B.
	mk := func(w1, w2 float64) []float64 {
		p1 := &Node{Op: Leaf, Label: "p1", Weight: w1, Dists: []float64{0, 100, 50}}
		p2 := &Node{Op: Leaf, Label: "p2", Weight: w2, Dists: []float64{100, 0, 50}}
		root := &Node{Op: NodeAnd, Children: []*Node{p1, p2}}
		res, err := Evaluate(root, 3, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Combined
	}
	heavy1 := mk(5, 1)
	if !(heavy1[0] < heavy1[1]) {
		t.Fatalf("w1=5: item A should beat B: %v", heavy1)
	}
	heavy2 := mk(1, 5)
	if !(heavy2[1] < heavy2[0]) {
		t.Fatalf("w2=5: item B should beat A: %v", heavy2)
	}
}

func TestEvaluateNaiveVsRobust(t *testing.T) {
	// The A1 ablation scenario: an outlier in p1 distorts naive
	// normalization so p1 loses its influence; reduction-first keeps
	// item ordering driven by both predicates.
	n := 100
	p1d := make([]float64, n)
	p2d := make([]float64, n)
	for i := 0; i < n; i++ {
		p1d[i] = float64(i)
		p2d[i] = float64(n - i)
	}
	p1d[n-1] = 1e12 // single exceptional value
	// p1Vec evaluates the query and returns p1's normalized vector.
	p1Vec := func(opts EvalOptions) []float64 {
		p1 := &Node{Op: Leaf, Label: "p1", Dists: append([]float64(nil), p1d...)}
		root := &Node{Op: NodeAnd, Children: []*Node{
			p1, {Op: Leaf, Label: "p2", Dists: append([]float64(nil), p2d...)},
		}}
		res, err := Evaluate(root, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Vec(p1)
	}
	// Under naive normalization p1's inlier values all collapse to ≈0,
	// so the combined ordering is dominated by p2 alone: item 0 (p2=100)
	// ranks worst. Under robust normalization item 0 is middling.
	spreadOf := func(vec []float64) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range vec[:n/2] {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		return hi - lo
	}
	// p1's normalized inlier spread should be much larger with robust
	// normalization.
	p1Robust := p1Vec(EvalOptions{Budget: 50})
	p1Naive := p1Vec(EvalOptions{Budget: 50, NaiveNormalize: true})
	if spreadOf(p1Robust) < 10*spreadOf(p1Naive) {
		t.Fatalf("robust spread %v should dwarf naive %v", spreadOf(p1Robust), spreadOf(p1Naive))
	}
}

// Property: evaluated distances are always within [0, Scale] or NaN, and
// sorting by combined distance equals sorting by relevance factor in
// reverse.
func TestEvaluateRangeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(60)
		mkLeaf := func() *Node {
			d := make([]float64, n)
			for i := range d {
				d[i] = rng.Float64() * 100
			}
			return &Node{Op: Leaf, Weight: rng.Float64()*2 + 0.1, Dists: d}
		}
		root := &Node{Op: NodeOr, Children: []*Node{
			mkLeaf(),
			{Op: NodeAnd, Children: []*Node{mkLeaf(), mkLeaf()}},
		}}
		res, err := Evaluate(root, n, EvalOptions{Budget: n / 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range res.Combined {
			if !math.IsNaN(v) && (v < 0 || v > Scale) {
				t.Fatalf("out of range: %v", v)
			}
		}
		rf := RelevanceFactors(res.Combined)
		byDist := make([]int, n)
		byRel := make([]int, n)
		for i := range byDist {
			byDist[i], byRel[i] = i, i
		}
		sort.SliceStable(byDist, func(a, b int) bool { return res.Combined[byDist[a]] < res.Combined[byDist[b]] })
		sort.SliceStable(byRel, func(a, b int) bool { return rf[byRel[a]] > rf[byRel[b]] })
		for i := range byDist {
			if res.Combined[byDist[i]] != res.Combined[byRel[i]] {
				t.Fatal("distance and relevance orderings disagree")
			}
		}
	}
}

func TestHelpers(t *testing.T) {
	vec := []float64{0, 1, math.NaN()}
	if CountNaN(vec) != 1 {
		t.Error("CountNaN")
	}
}
