package experiments

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/colormap"
	"repro/internal/reduce"
	"repro/internal/relevance"
)

// AblationNormalize isolates the section 5.2 design choice of
// reduction-first normalization: "a single data item with an
// exceptionally high or low value may cause a completely different
// transformation ... the corresponding selection predicate may have
// little or no impact on the overall answer". One outlier is injected
// into one of two balanced predicates; the experiment measures how much
// normalized spread the contaminated predicate retains.
func AblationNormalize(outDir string) (*Report, error) {
	r := &Report{
		ID:    "A1",
		Title: "ablation — reduction-first vs naive normalization",
		Expectation: "with naive normalization the outlier predicate collapses to " +
			"≈0 influence; reduction-first preserves its spread",
	}
	n := 2000
	p1 := make([]float64, n)
	p2 := make([]float64, n)
	for i := 0; i < n; i++ {
		p1[i] = float64(i % 100)
		p2[i] = float64((n - i) % 100)
	}
	p1[n-1] = 1e12 // the single exceptional value
	// spread evaluates the query and measures p1's normalized spread.
	spread := func(opts relevance.EvalOptions) (float64, error) {
		p1n := &relevance.Node{Op: relevance.Leaf, Label: "p1", Dists: append([]float64(nil), p1...)}
		root := &relevance.Node{Op: relevance.NodeAnd, Children: []*relevance.Node{
			p1n, {Op: relevance.Leaf, Label: "p2", Dists: append([]float64(nil), p2...)},
		}}
		res, err := relevance.Evaluate(root, n, opts)
		if err != nil {
			return 0, err
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range res.Vec(p1n)[:n-1] { // inliers only
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		return hi - lo, nil
	}
	sr, err := spread(relevance.EvalOptions{Budget: n / 2})
	if err != nil {
		return nil, err
	}
	sn, err := spread(relevance.EvalOptions{Budget: n / 2, NaiveNormalize: true})
	if err != nil {
		return nil, err
	}
	r.addf("p1 normalized inlier spread: reduction-first %.1f, naive %.5f (of %g)", sr, sn, relevance.Scale)
	ratio := math.Inf(1)
	if sn > 0 {
		ratio = sr / sn
	}
	r.addf("influence ratio: %.0fx", ratio)
	r.Pass = sr > 100 && (sn < 1 || ratio > 100)
	return r, nil
}

// AblationORMean isolates the section 5.2 choice of the weighted
// geometric mean for OR (vs the arithmetic mean used for AND): with the
// geometric mean, an item fulfilling any single OR predicate combines
// to distance 0, matching boolean OR semantics.
func AblationORMean(outDir string) (*Report, error) {
	r := &Report{
		ID:    "A2",
		Title: "ablation — geometric vs arithmetic mean for OR",
		Expectation: "geometric mean ranks every item fulfilling ≥1 predicate " +
			"above all items fulfilling none; the arithmetic mean does not",
	}
	rng := rand.New(rand.NewSource(17))
	n := 3000
	dists := make([][]float64, 3)
	fulfills := make([]bool, n)
	for j := range dists {
		dists[j] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := range dists {
			dists[j][i] = 20 + 200*rng.Float64()
		}
		if i%4 == 0 { // fulfills exactly one predicate, badly misses others
			dists[i%3][i] = 0
			fulfills[i] = true
		}
	}
	weights := []float64{1, 1, 1}
	geo, err := relevance.CombineOr(dists, weights, relevance.WeightNormalized)
	if err != nil {
		return nil, err
	}
	arith, err := relevance.CombineAnd(dists, weights, relevance.WeightNormalized) // arithmetic stand-in for OR
	if err != nil {
		return nil, err
	}
	frac := func(combined []float64) float64 {
		worstFulfilling := math.Inf(-1)
		bestNot := math.Inf(1)
		for i, f := range fulfills {
			if f {
				worstFulfilling = math.Max(worstFulfilling, combined[i])
			} else {
				bestNot = math.Min(bestNot, combined[i])
			}
		}
		// Fraction of fulfilling items ranked above every non-fulfilling
		// item.
		count := 0
		total := 0
		for i, f := range fulfills {
			if !f {
				continue
			}
			total++
			if combined[i] < bestNot {
				count++
			}
		}
		if total == 0 {
			return 0
		}
		return float64(count) / float64(total)
	}
	fg, fa := frac(geo), frac(arith)
	r.addf("fulfilling items ranked above all non-fulfilling: geometric %.2f, arithmetic %.2f", fg, fa)
	r.Pass = fg == 1 && fa < 0.9
	return r, nil
}

// AblationReduce isolates the section 5.1 choice of the gap heuristic
// over the plain α-quantile for multi-peak distance densities: cutting
// at the gap devotes the whole colormap to the interesting lower group,
// so more distinct color levels separate its items.
func AblationReduce(outDir string) (*Report, error) {
	r := &Report{
		ID:    "A3",
		Title: "ablation — α-quantile vs gap heuristic on bimodal distances",
		Expectation: "the gap cut spends all color levels on the lower group; the " +
			"quantile cut wastes most levels bridging the gap",
	}
	rng := rand.New(rand.NewSource(18))
	var dists []float64
	const lower = 1200
	for i := 0; i < lower; i++ {
		dists = append(dists, 1+0.4*rng.NormFloat64())
	}
	for i := 0; i < 3800; i++ {
		dists = append(dists, 120+2*rng.NormFloat64())
	}
	sort.Float64s(dists)
	budget := 1500
	p := reduce.DisplayFraction(budget, len(dists), 0)
	quantCut := reduce.QuantileCut(len(dists), p)
	gapCut := reduce.Cut(dists, budget, 0)
	cm := colormap.VisDB(colormap.DefaultLevels)
	levelsUsed := func(cut, focus int) int {
		if cut <= 0 {
			return 0
		}
		norm := relevance.Normalize(dists[:cut], 0)
		used := map[int]bool{}
		for i := 0; i < focus && i < len(norm); i++ {
			used[cm.LevelOfNorm(norm[i]/relevance.Scale)] = true
		}
		return len(used)
	}
	lq := levelsUsed(quantCut, lower)
	lg := levelsUsed(gapCut, lower)
	r.addf("cut: quantile %d items, gap %d items (lower group: %d)", quantCut, gapCut, lower)
	r.addf("distinct color levels across the lower group: quantile %d, gap %d", lq, lg)
	r.Pass = gapCut <= lower+60 && lg > 4*lq
	return r, nil
}

// AblationANDCombiner exercises the section 5.2 remark that "for
// special applications other specific distance functions such as the
// Euclidean, Lp or the Mahalanobis distance in n-dimensional space may
// be used": it compares the default weighted arithmetic mean against
// the Euclidean combiner on a workload where one predicate is far off —
// the Euclidean norm penalizes a single large deviation more than the
// mean does, changing which near miss ranks first.
func AblationANDCombiner(outDir string) (*Report, error) {
	r := &Report{
		ID:    "A4",
		Title: "extension — Euclidean vs arithmetic AND combination (§5.2 remark)",
		Expectation: "the Euclidean norm ranks balanced near-misses above " +
			"single-large-deviation ones; the arithmetic mean treats them equally",
	}
	// Two synthetic items: A misses two predicates by 100 each;
	// B misses one predicate by 200 and fulfills the other. Equal mean
	// (100), different Euclidean (100·√2 ≈ 141 vs 141.4... vs 200/√2).
	dists := [][]float64{
		{100, 200, 0},
		{100, 0, 0},
	}
	mean, err := relevance.CombineAnd(dists, nil, relevance.WeightNormalized)
	if err != nil {
		return nil, err
	}
	euc, err := relevance.CombineEuclidean(dists, nil)
	if err != nil {
		return nil, err
	}
	r.addf("item A (100,100): mean %.1f, euclidean %.1f", mean[0], euc[0])
	r.addf("item B (200,0):   mean %.1f, euclidean %.1f", mean[1], euc[1])
	meanTies := mean[0] == mean[1]
	eucPrefersBalanced := euc[0] < euc[1]
	r.addf("arithmetic mean ties: %v; euclidean prefers the balanced near-miss: %v",
		meanTies, eucPrefersBalanced)
	r.Pass = meanTies && eucPrefersBalanced
	return r, nil
}
