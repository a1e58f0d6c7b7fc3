package relevance

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/reduce"
)

// encodeRef is the element-at-a-time code of v that the encoder's
// selected kernel replaced, kept as its reference.
func encodeRef(e codeEncoder, v float64) uint8 {
	switch {
	case math.IsNaN(v):
		return codeNaN
	case math.IsInf(v, -1):
		return codeNegInf
	case math.IsInf(v, 1):
		return codePosInf
	case v == e.mn:
		return codeMin
	}
	b := int((v - e.b.lo) * e.b.scale)
	if b < 0 || b > e.b.n-1 { // what an undividable span's NaN converts to
		b = e.b.n - 1
	}
	return uint8(codeBucket0 + b)
}

// checkCodes holds the code plane of v, coded in one, two and five runs
// of chunks, to encodeRef bit for bit, and every row to its code's
// interval, which for a reserved code is its one value.
func checkCodes(t *testing.T, what string, v []float64) {
	t.Helper()
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, x := range v {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			mn, mx = min(mn, x), max(mx, x)
		}
	}
	if lo, hi := FiniteExtremes(v); lo != mn || hi != mx {
		t.Fatalf("%s: FiniteExtremes = %v, %v, want %v, %v", what, lo, hi, mn, mx)
	}
	e := newCodeEncoder(mn, mx)
	for _, parts := range []int{1, 2, 5} {
		cp := NewCodes(len(v), mn, mx)
		for p := 0; p < parts; p++ {
			cp.Encode(v, p*cp.Chunks()/parts, (p+1)*cp.Chunks()/parts)
		}
		if len(cp.codes) != len(v) {
			t.Fatalf("%s: %d codes for %d rows", what, len(cp.codes), len(v))
		}
		for i, x := range v {
			c := cp.codes[i]
			if want := encodeRef(e, x); c != want {
				t.Fatalf("%s (%d parts): row %d = %v [%#x] codes %d, the reference %d", what, parts, i, x, math.Float64bits(x), c, want)
			}
			lo, hi := cp.lo[c], cp.hi[c]
			switch {
			case math.IsNaN(x):
				if !math.IsNaN(lo) || !math.IsNaN(hi) {
					t.Fatalf("%s: the NaN code's interval is [%v, %v]", what, lo, hi)
				}
			case !(lo <= x && x <= hi):
				t.Fatalf("%s: row %d = %v outside its code %d's [%v, %v]", what, i, x, c, lo, hi)
			case c == codeMin || c == codeNegInf || c == codePosInf:
				if lo != hi {
					t.Fatalf("%s: reserved code %d holds [%v, %v], not one value", what, c, lo, hi)
				}
			}
		}
	}
}

// TestCodePlane codes vectors of every awkward shape: the bit patterns
// of NaN, ±Inf, ±0 and denormals, a range leaf's spike of exact zeros,
// duplicates, one value, none finite, and extremes near ±MaxFloat64.
func TestCodePlane(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	shapes := map[string]func(n int) []float64{
		"awkward": func(n int) []float64 { return awkwardFloats(rng, n) },
		"range":   func(n int) []float64 { return rangeDistances(rng, n) },
		"dups": func(n int) []float64 {
			return fill(n, func() float64 { return float64(rng.Intn(4)) })
		},
		"equal":  func(n int) []float64 { return fill(n, func() float64 { return 7.25 }) },
		"nan":    func(n int) []float64 { return fill(n, math.NaN) },
		"signed": func(n int) []float64 { return fill(n, func() float64 { return rng.NormFloat64() * 40 }) },
		"extremes": func(n int) []float64 {
			return fill(n, func() float64 { return (rng.Float64()*2 - 1) * math.MaxFloat64 })
		},
		"denormal": func(n int) []float64 {
			return fill(n, func() float64 { return float64(rng.Intn(900)) * 5e-324 })
		},
	}
	for name, gen := range shapes {
		for _, n := range []int{0, 1, 7, evalChunk, 3*evalChunk + 11} {
			checkCodes(t, fmt.Sprintf("%s/%d", name, n), gen(n))
		}
	}
}

// checkCodeRange holds the range a leaf of v with plane cp is given to
// NormRange bit for bit — DMin's and DMax's sign of zero included — for
// every keep from -1 to n+1 (past 2000 rows, 300 of them and every keep
// around an edge between two codes' rows), and the plane's counts to the
// codes it wrote.
func checkCodeRange(t *testing.T, what string, v []float64, cp *Codes) {
	t.Helper()
	var counts [256]int32
	for _, c := range cp.codes {
		counts[c]++
	}
	if counts != cp.counts {
		t.Fatalf("%s: the counts do not count the codes", what)
	}
	stride := 1
	if len(v) > 2000 {
		stride = len(v) / 300
	}
	for _, keep := range codeRangeKeeps(cp, stride) {
		want := NormRange(v, keep)
		if got, _ := cp.Range(v, keep); !sameParams(got, want) {
			t.Fatalf("%s: keep %d: Range %+v [%#x %#x], NormRange %+v [%#x %#x]", what, keep,
				got, math.Float64bits(got.DMin), math.Float64bits(got.DMax),
				want, math.Float64bits(want.DMin), math.Float64bits(want.DMax))
		}
	}
}

// codeRangeKeeps is every stride-th keep from -1 to n+1 and, past a
// stride of 1, every keep around an edge between two codes' rows: where
// Range's branches and its crossing code change.
func codeRangeKeeps(cp *Codes, stride int) []int {
	n := len(cp.codes)
	var keeps []int
	for keep := -1; keep <= n+1; keep += stride {
		keeps = append(keeps, keep)
	}
	if stride == 1 {
		return keeps
	}
	edge := 0
	for _, c := range cp.counts[codeMin:codePosInf] {
		edge += int(c)
		keeps = append(keeps, edge-1, edge, edge+1)
	}
	keeps = append(keeps, 0, 1, n, n+1)
	slices.Sort(keeps)
	return slices.Compact(keeps)
}

// TestCodeRangeMatchesNormRange: a plane's counts answer the
// normalization range of the vector it codes as NormRange does, bit for
// bit, for every keep, over the contents that steer each branch — NaN,
// ±Inf, mixes of ±0 (the sign of a zero answer is the first zero's),
// duplicates, one value, -0 alone, a span too wide to bucket — and over
// a range leaf's plane, whose lo is 0 whether or not a row is. Counts
// coded in any split of the chunks, the runs concurrently, equal one
// serial Encode's.
func TestCodeRangeMatchesNormRange(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	negZero := math.Copysign(0, -1)
	shapes := []leafShape{
		{"specials", awkwardFloats},
		{"zeros", pick(0, negZero)},
		{"signed zeros", pick(negZero, 0, -1.5, 2, negZero, 0.25)},
		{"zeros at the top", pick(negZero, 0, -3, -1e-3)},
		{"zeros and specials", pick(0, negZero, math.NaN(), math.Inf(1), math.Inf(-1), 1)},
		{"duplicates", pick(0, 1, 1, 1, 2.5, 2.5, 255)},
		{"all equal", pick(7.25)},
		{"one finite", func(rng *rand.Rand, n int) []float64 {
			v := pick(math.NaN(), math.Inf(1), math.Inf(-1))(rng, n)
			v[rng.Intn(n)] = -4.5
			return v
		}},
		{"negative zero only", pick(negZero)},
		{"span overflow", func(rng *rand.Rand, n int) []float64 {
			return fill(n, func() float64 { return (rng.Float64()*2 - 1) * math.MaxFloat64 })
		}},
		{"range", rangeDistances},
		{"lognormal", logNormal},
	}
	for _, s := range shapes {
		for _, n := range []int{1, 2, 37, kernelMin + 1, 2*evalChunk + 5} {
			v := s.gen(rng, n)
			what := fmt.Sprintf("%s n=%d", s.name, n)
			checkCodeRange(t, what, v, BuildCodes(v))
			// A range leaf's kernel codes over [0, its maximum].
			if lo, hi := FiniteExtremes(v); lo >= 0 && lo <= hi {
				cp := NewCodes(n, 0, hi)
				cp.Encode(v, 0, cp.Chunks())
				checkCodeRange(t, what+" over [0, max]", v, cp)
			}
		}
	}
	// Every split of five chunks into runs, coded concurrently.
	v := pick(0, negZero, math.NaN(), math.Inf(1), 3, 3, 7.5, -2)(rng, 4*evalChunk+77)
	serial := BuildCodes(v)
	lo, hi := FiniteExtremes(v)
	for split := 0; split < 1<<(serial.Chunks()-1); split++ {
		cp := NewCodes(len(v), lo, hi)
		var wg sync.WaitGroup
		for c0 := 0; c0 < cp.Chunks(); {
			c1 := c0 + 1
			for ; c1 < cp.Chunks() && split>>(c1-1)&1 == 0; c1++ {
			}
			wg.Add(1)
			go func(c0, c1 int) {
				defer wg.Done()
				cp.Encode(v, c0, c1)
			}(c0, c1)
			c0 = c1
		}
		wg.Wait()
		if cp.counts != serial.counts || !slices.Equal(cp.codes, serial.codes) {
			t.Fatalf("split %b: the plane differs from the serial one", split)
		}
	}
	checkCodeRange(t, "split", v, serial)
}

// rowFilterChild draws a child vector of one of the kinds the filter
// must bound soundly: NaN, ±Inf and ±0 stretches, duplicates, one
// value, a range leaf that scales to two values (its exact answers
// outnumber its keep count: DMin == DMax == 0), and a range leaf over an
// ascending column (its exact answers one run of rows, the chunks
// outside it far from the cut).
func rowFilterChild(rng *rand.Rand, n int) []float64 {
	switch rng.Intn(8) {
	case 6:
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n-lo+1)
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(max(lo-i, i-hi, 0))
		}
		return v
	case 0:
		return fill(n, func() float64 {
			if rng.Intn(3) == 0 {
				return math.NaN()
			}
			return rng.Float64() * 50
		})
	case 1:
		return fill(n, func() float64 {
			return []float64{math.Inf(1), math.Inf(-1), 3, rng.Float64()}[rng.Intn(4)]
		})
	case 2:
		return fill(n, func() float64 {
			return []float64{0, math.Copysign(0, -1), rng.Float64() * 9}[rng.Intn(3)]
		})
	case 3:
		return fill(n, func() float64 { return float64(rng.Intn(3)) })
	case 4:
		return fill(n, func() float64 { return 4.5 })
	case 5:
		return fill(n, func() float64 {
			if rng.Intn(5) < 3 {
				return 0
			}
			return rng.Float64() * 40
		})
	}
	return rangeDistances(rng, n)
}

// viewLeaf is a range leaf of weight w over a column of n rows drawn at
// random, its code plane the view of the column's: an interior range, a
// wide one whose zeros spread over most of the column's codes (two of
// them put a clamp class of thousands of groups under a root's cut), and
// an open one whose bound is strict, over uniform, ascending and integer
// columns (whose values sit on the bounds) with NaN and ±Inf sprinkled
// in. A column the plane refuses a view gives a leaf without a plane.
func viewLeaf(rng *rand.Rand, n int, w float64) *Node {
	var gen func(i int) float64
	switch rng.Intn(3) {
	case 0:
		gen = func(int) float64 { return rng.Float64() * 100 }
	case 1:
		gen = func(i int) float64 { return float64(i)/float64(n)*100 + rng.Float64() }
	default:
		gen = func(int) float64 { return float64(rng.Intn(101)) }
	}
	col := make([]float64, n)
	for i := range col {
		col[i] = gen(i)
		if rng.Intn(50) == 0 {
			col[i] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
		}
	}
	lo, hi, edge := float64(20+rng.Intn(40)), 0.0, math.NaN()
	switch rng.Intn(4) {
	case 0: // interior
		hi = lo + float64(3+rng.Intn(20))
	case 1: // wide
		lo, hi = float64(rng.Intn(8)), float64(80+rng.Intn(20))
	case 2: // a > lo, strict
		hi, edge = math.Inf(1), lo
	default: // a < hi, strict
		lo, hi = math.Inf(-1), lo
		edge = hi
	}
	leaf := &Node{Op: Leaf, Weight: w, Dists: rangeLeaf(col, lo, hi, edge)}
	if view, ok := columnPlane(col).View(lo, hi, edge); ok {
		leaf.Codes = view
	}
	return leaf
}

// rowFilterKernels are the combiners the filter's terms follow.
var rowFilterKernels = []struct {
	name string
	op   NodeOp
	opts EvalOptions
}{
	{"AND", NodeAnd, EvalOptions{}},
	{"AND raw", NodeAnd, EvalOptions{Mode: PaperRaw}},
	{"OR", NodeOr, EvalOptions{}},
	{"Lp3", NodeAnd, EvalOptions{And: ANDLp, LpP: 3}},
	{"Euclidean", NodeAnd, EvalOptions{And: ANDEuclidean}},
}

// checkRowFilter ranks root over n rows both ways and holds the deferred
// ranking to the eager one bit for bit, every row's raw root value to
// its bounds, and the filter's survivors to the top max(k, keep) of the
// raw root values in the engine's order (value, ties by index, NaN last:
// FullSort's). Where the root has two children and no class bits, the
// filter over the groups of a PairIndex is held to the row passes bit for
// bit (sameFiltered), and the ranking with it to the eager one; grouped
// reports whether the filter over the groups ran.
func checkRowFilter(t *testing.T, what string, root *Node, n, k int, opts EvalOptions) (grouped bool) {
	t.Helper()
	eager, wantSorted, wantOrder := eagerRanking(t, root, n, k, opts)
	opts.DeferRoot = true
	res, err := Evaluate(root, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deferred() {
		return false // an undeferrable root is finished eagerly
	}
	rd := res.root
	K := n
	if rd.keep >= 1 {
		K = max(k, rd.keep)
	}
	rd.fillAll()
	raw := append([]float64(nil), rd.out...)
	f := rd.newRowFilter(nil)
	// Every row's exact value lies within its bounds: a NaN lower bound
	// is a row proven NaN, a NaN upper bound one the cut does not count.
	var lb, ub [filterBlock]float64
	for lo := 0; lo < n; lo += filterBlock {
		l, u := lb[:min(filterBlock, n-lo)], ub[:min(filterBlock, n-lo)]
		f.fill(l, lo, false)
		f.fill(u, lo, true)
		for j := range l {
			if x := raw[lo+j]; l[j] != l[j] && x == x || u[j] == u[j] && !(l[j] <= x && x <= u[j]) {
				t.Fatalf("%s: row %d = %v outside its bounds [%v, %v]", what, lo+j, x, l[j], u[j])
			}
		}
	}
	fr, err := rd.filter(f, K)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.codes) == 2 && f.flags == nil && f.terms() {
		valleys(t, what, f)
		// The same filter over the groups of the children's joint codes.
		g := *f
		g.pairs = groupPairs(f.codes[0], f.codes[1])
		gr, err := rd.filter(&g, K)
		if err != nil {
			t.Fatal(err)
		}
		sameFiltered(t, what+": grouped", fr, gr)
		grouped = true
	}
	kept := make(map[int]bool, len(fr.surv))
	for _, i := range fr.surv {
		kept[i] = true
	}
	sorted, order := reduce.SortWithIndex(raw)
	for r := 0; r < K && !math.IsNaN(sorted[r]); r++ {
		if !kept[order[r]] {
			t.Fatalf("%s (k %d, K %d): rank %d, row %d = %v, is not a survivor of the cut (%v, %d)",
				what, k, K, r, order[r], sorted[r], fr.T, fr.iT)
		}
	}

	got, err := Evaluate(root, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	rk, err := got.RankRoot(k, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < k; r++ {
		a, b := rk.Sorted[r], wantSorted[r]
		if rk.Order[r] != wantOrder[r] || math.Float64bits(a) != math.Float64bits(b) && !(math.IsNaN(a) && math.IsNaN(b)) {
			t.Fatalf("%s (k %d): rank %d is (%v, %d), the eager ranking's (%v, %d)", what, k, r, a, rk.Order[r], b, wantOrder[r])
		}
	}
	if want := CountNaN(eager.Combined); rk.NaNs != want {
		t.Fatalf("%s: NaNs = %d, want %d", what, rk.NaNs, want)
	}
	sameVec(t, what+": combined", eager.Combined, got.Vec(root))
	if len(root.Children) != 2 {
		return grouped
	}
	// The ranking with the filter over the groups: the children carry
	// their planes, and the ranking builds their index.
	pr := *root
	pr.Children = make([]*Node, 2)
	for j, ch := range root.Children {
		c := *ch
		if c.Op == Leaf && c.Codes == nil {
			c.Codes = BuildCodes(c.Dists)
		}
		pr.Children[j] = &c
	}
	gres, err := Evaluate(&pr, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	gk, err := gres.RankRoot(k, nil, nil, NewPairIndex)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < k; r++ {
		a, b := gk.Sorted[r], wantSorted[r]
		if gk.Order[r] != wantOrder[r] || math.Float64bits(a) != math.Float64bits(b) && !(math.IsNaN(a) && math.IsNaN(b)) {
			t.Fatalf("%s (k %d, grouped): rank %d is (%v, %d), the eager ranking's (%v, %d)", what, k, r, a, gk.Order[r], b, wantOrder[r])
		}
	}
	if gk.NaNs != rk.NaNs || gk.Refined != rk.Refined {
		t.Fatalf("%s (grouped): NaNs %d, refined %d; the row passes' %d, %d", what, gk.NaNs, gk.Refined, rk.NaNs, rk.Refined)
	}
	return grouped
}

// valleys holds the second child's lower and upper terms of a filter of
// two children to falling to its bottom code and rising from it.
func valleys(t *testing.T, what string, f *rowFilter) {
	t.Helper()
	for k, tab := range []*[256]float64{&f.lo[1], &f.hi[1]} {
		for c := 1; c < codeNaN; c++ {
			if c <= f.bot[k] && tab[c] > tab[c-1] || c > f.bot[k] && tab[c] < tab[c-1] {
				t.Fatalf("%s: the second child's terms (upper %v) do not fall to code %d and rise from it", what, k == 1, f.bot[k])
			}
		}
	}
}

// sameFiltered holds what the filter over the groups left of a ranking
// to what the row passes left, bit for bit: the cut, the survivors and
// their values, the NaN count and the rows that ran the kernel.
func sameFiltered(t *testing.T, what string, want, got *filtered) {
	t.Helper()
	if math.Float64bits(got.T) != math.Float64bits(want.T) || got.iT != want.iT {
		t.Fatalf("%s: cut (%v, %d), the row passes' (%v, %d)", what, got.T, got.iT, want.T, want.iT)
	}
	if !slices.Equal(got.surv, want.surv) {
		t.Fatalf("%s: survivors %v, the row passes' %v", what, got.surv, want.surv)
	}
	sameVec(t, what+": survivors' values", want.sv, got.sv)
	if got.nNaN != want.nNaN || got.refined != want.refined || !slices.Equal(got.touched, want.touched) {
		t.Fatalf("%s: NaNs %d, refined %d, touched %v; the row passes' %d, %d, %v", what,
			got.nNaN, got.refined, got.touched, want.nNaN, want.refined, want.touched)
	}
}

// TestRowFilterKeepsTopK: over children of every kind the filter must
// bound, under AND, OR (weights 0, 0.5, 1, 2, 3, 2.5), Lp3 and
// Euclidean, and k and the root's keep count from 1 to n, the rows the
// filter keeps hold the exact top max(k, keep), and the deferred ranking
// equals the eager one bit for bit.
func TestRowFilterKeepsTopK(t *testing.T) {
	// An OR row whose codes leave it NaN or zero (a NaN child, and a range
	// child's lowest bucket, whose lower edge scales to 0 when the child's
	// keep count reaches past its zeros) lies past a cut at (0, iT) when
	// at least K rows are exact zeros, and is NaN all the same: the NaN
	// count must still hold it.
	a, b := make([]float64, 20), make([]float64, 20)
	for i := range b {
		a[i], b[i] = float64(i), float64(30+i)
	}
	a[9] = math.NaN()
	for i := 0; i < 8; i++ {
		b[i] = 0
	}
	b[9] = 0.1
	checkRowFilter(t, "OR, NaN or zero past the cut", &Node{Op: NodeOr, Weight: 4, Children: []*Node{
		{Op: Leaf, Weight: 1, Dists: a}, {Op: Leaf, Weight: 1, Dists: b}}}, 20, 1, EvalOptions{Budget: 10})

	rng := rand.New(rand.NewSource(1998))
	weights := []float64{0, 0.5, 1, 2, 3, 2.5}
	grouped := 0
	for trial := 0; trial < 240; trial++ {
		n := 1 + rng.Intn(40)
		if trial%2 == 0 {
			n = 1 + rng.Intn(2*evalChunk+40)
		}
		kn := rowFilterKernels[trial%len(rowFilterKernels)]
		root := &Node{Op: kn.op, Weight: []float64{0.05, 0.5, 1, 4}[rng.Intn(4)]}
		not := rng.Intn(6) == 0
		if not {
			// A NOT root: one child under AND, so that the filter bounds a
			// single plane.
			root = &Node{Op: NodeAnd, Weight: root.Weight, Children: []*Node{
				{Op: Leaf, Weight: 1, Dists: rowFilterChild(rng, n)}}}
		}
		for j := 0; !not && j < 1+rng.Intn(3); j++ {
			child := &Node{Op: Leaf, Weight: weights[rng.Intn(len(weights))], Dists: rowFilterChild(rng, n)}
			switch rng.Intn(5) {
			case 0:
				child = viewLeaf(rng, n, child.Weight)
			case 1:
				child = &Node{Op: NodeOr, Weight: child.Weight, Children: []*Node{
					{Op: Leaf, Dists: rowFilterChild(rng, n)}, {Op: Leaf, Dists: rowFilterChild(rng, n)}}}
			}
			root.Children = append(root.Children, child)
		}
		if rng.Intn(2) == 0 {
			attachLeafStats(root)
		}
		opts := kn.opts
		opts.Budget = 1 + rng.Intn(n)
		opts.NaiveNormalize = rng.Intn(10) == 0
		for _, k := range []int{1, 1 + rng.Intn(n), n} {
			if checkRowFilter(t, fmt.Sprintf("trial %d %s n %d", trial, kn.name, n), root, n, k, opts) {
				grouped++
			}
		}
	}
	if grouped < 200 {
		t.Fatalf("the filter over the groups ran in %d checks", grouped)
	}
	// Two range leaves over columns, each a view of its column's plane:
	// the root's filter over the groups of the views' codes, whose terms
	// fall and rise, its crossing slot thousands of groups where both
	// ranges are wide.
	grouped = 0
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(3*evalChunk)
		kn := rowFilterKernels[trial%len(rowFilterKernels)]
		root := &Node{Op: kn.op, Weight: 1, Children: []*Node{
			viewLeaf(rng, n, weights[1+rng.Intn(len(weights)-1)]), viewLeaf(rng, n, weights[1+rng.Intn(len(weights)-1)])}}
		opts := kn.opts
		opts.Budget = 1 + rng.Intn(n)
		for _, k := range []int{1, 1 + rng.Intn(n), n} {
			if checkRowFilter(t, fmt.Sprintf("views %d %s n %d", trial, kn.name, n), root, n, k, opts) {
				grouped++
			}
		}
	}
	if grouped < 120 {
		t.Fatalf("the filter over the groups of two views ran in %d checks", grouped)
	}
}

// FuzzRowFilter gives the fuzzer two children's values, their weights,
// the kernel, the budget and k: the first byte picks the kernel (modulo
// the kernels) and which children are range leaves over their values as
// a column, each with the view of the column's plane (its top two bits:
// none, the first, the second or both; the range is from the
// column's first to its last value, the strict edge none, lo or hi as
// the weight's byte says), the next two the weights, the next two the
// budget and k, and the rest, eight bytes a row, the rows of the two
// children in turn. The seeds are twelve of plain children, then eight
// of views; the corpus's two files are of plain children.
func FuzzRowFilter(f *testing.F) {
	rng := rand.New(rand.NewSource(41))
	for seed := 0; seed < 20; seed++ {
		n := 1 + rng.Intn(30)
		first, draws := byte(seed), 6
		if seed >= 12 {
			first, draws = byte(64*(1+seed%3)+seed%len(rowFilterKernels)), 18
		}
		b := []byte{first, byte(rng.Intn(draws)), byte(rng.Intn(draws)), byte(rng.Intn(n)), byte(rng.Intn(n))}
		a, c := rowFilterChild(rng, n), rowFilterChild(rng, n)
		for i := 0; i < n; i++ {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a[i]))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c[i]))
		}
		f.Add(b)
	}
	weights := []float64{0, 0.5, 1, 2, 3, 2.5}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5+16 {
			return
		}
		kn := rowFilterKernels[int(data[0])%len(rowFilterKernels)]
		w0, w1 := weights[int(data[1])%len(weights)], weights[int(data[2])%len(weights)]
		budget, k := int(data[3]), int(data[4])
		var a, c []float64
		for rows := data[5:]; len(rows) >= 16; rows = rows[16:] {
			a = append(a, math.Float64frombits(binary.LittleEndian.Uint64(rows)))
			c = append(c, math.Float64frombits(binary.LittleEndian.Uint64(rows[8:])))
		}
		n := len(a)
		root := &Node{Op: kn.op, Weight: 1, Children: []*Node{
			{Op: Leaf, Weight: w0, Dists: a}, {Op: Leaf, Weight: w1, Dists: c}}}
		views := int(data[0]) >> 6
		for j, leaf := range root.Children {
			if views>>j&1 == 0 {
				continue
			}
			col := leaf.Dists
			lo, hi := col[0], col[n-1]
			edge := []float64{math.NaN(), lo, hi}[int(data[1+j])/len(weights)%3]
			leaf.Dists = rangeLeaf(col, lo, hi, edge)
			leaf.Codes, _ = columnPlane(col).View(lo, hi, edge)
		}
		opts := kn.opts
		opts.Budget = 1 + budget%n
		checkRowFilter(t, kn.name, root, n, 1+k%n, opts)
	})
}

// TestCutPairsZeroSigns: the cut over the groups equals the cut over the
// rows bit for bit for every K — a zero's sign included, which only the
// selection over the crossing slot's rows decides when the slot holds
// zeros of both signs and other values — over terms of hand-set tables
// that mix +0, -0, ties and values a slot apart, the second child's
// non-decreasing or, as a view's, falling to the zeros and then rising.
func TestCutPairsZeroSigns(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	negZero := math.Copysign(0, -1)
	for trial := range 40 {
		n := 1 + rng.Intn(2*filterBlock)
		f := &rowFilter{codes: [][]uint8{make([]uint8, n), make([]uint8, n)},
			lo: make([][256]float64, 2), hi: make([][256]float64, 2), or: trial%2 == 1}
		for j := range f.hi {
			// Non-decreasing terms: zeros of either sign, then ties and
			// small steps, so that a cut slot holds several values.
			x, falls := 0.0, j == 1 && trial%4 >= 2
			for c := range f.hi[j] {
				switch {
				case falls && c < 2:
					f.hi[j][c] = float64(2-c) * 1e-4
				case c < 3 || falls && c < 4:
					f.hi[j][c] = []float64{0, negZero}[rng.Intn(2)]
				default:
					x += float64(rng.Intn(2)) * 1e-4
					f.hi[j][c] = x
				}
			}
			f.lo[j] = f.hi[j]
		}
		f.shape()
		for i := range n {
			f.codes[0][i], f.codes[1][i] = uint8(rng.Intn(6)), uint8(rng.Intn(6))
		}
		valleys(t, fmt.Sprintf("trial %d", trial), f)
		var buf [filterBlock]float64
		rows := newCutHist(f.span())
		for lo := 0; lo < n; lo += filterBlock {
			u := buf[:min(filterBlock, n-lo)]
			f.fill(u, lo, true)
			rows.add(u)
		}
		g := *f
		g.pairs = groupPairs(f.codes[0], f.codes[1])
		groups := newCutHist(g.span())
		g.countPairs(groups)
		for K := 1; K <= n; K += 1 + rng.Intn(16) {
			T, iT := f.cut(rows, n, K, buf[:])
			gT, giT := math.Inf(1), math.MaxInt
			if s, need, ok := groups.find(K); ok {
				c := g.cutPairs(g.slotGroups(groups, s), need)
				if c.iT < 0 {
					c.iT = g.nthRow(c.at, c.m, make([]uint64, (n+63)/64))
				}
				gT, giT = c.T, c.iT
			}
			if math.Float64bits(gT) != math.Float64bits(T) || giT != iT {
				t.Fatalf("trial %d K %d: the groups cut at (%v, %d), the rows at (%v, %d)", trial, K, gT, giT, T, iT)
			}
		}
	}
}
