package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/arrange"
	"repro/internal/colormap"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/query"
	"repro/internal/reduce"
	"repro/internal/relevance"
	"repro/internal/render"
	"repro/internal/session"
	"repro/internal/stats"
)

// paperQuery is the example query of section 4.1.
const paperQuery = `
SELECT Temperature, Solar_Radiation, Humidity, Ozone
FROM Weather, Air-Pollution
WHERE (Temperature > 15.0 OR Solar_Radiation > 600 OR Humidity < 60)
  AND CONNECT with-time-diff(120)`

// fig4Options sizes the engine so the display budget matches figure 4:
// a 165×165 item grid holds 27,225 items ≈ the paper's 27,224 displayed
// (≈40% of the 68,376 objects).
func fig4Options() core.Options {
	return core.Options{GridW: 165, GridH: 165}
}

// fig4Data generates the environmental catalog whose cross product is
// exactly 68,376 items: 2,849 hourly weather rows × 24 air-pollution
// rows (pollution sampled every 119 hours, on the hour, so the
// 120-minute time-difference connection has exact matches; the
// offset-interval scenario is exercised separately in C4).
func fig4Data() (*core.Engine, error) {
	cat, _, err := datagen.Environmental(datagen.EnvConfig{
		Hours: 2849, PollutionEvery: 119, OffsetMinutes: 0, Seed: 1994,
	})
	if err != nil {
		return nil, err
	}
	return core.New(cat, nil, fig4Options()), nil
}

// Fig1a regenerates figure 1a: the normal (spiral) arrangement. 65,536
// synthetic relevance factors on a 256×256 window, yellow center,
// approximate answers spiraling outward.
func Fig1a(outDir string) (*Report, error) {
	r := &Report{
		ID:    "F1a",
		Title: "figure 1a — rectangular-spiral arrangement",
		Expectation: "correct answers yellow in the middle, approximate answers " +
			"spiral-shaped around them, colors darkening outward",
	}
	const w, h = 256, 256
	rng := rand.New(rand.NewSource(41))
	dists := make([]float64, w*h)
	exact := w * h / 50 // 2% exact answers
	for i := range dists {
		if i < exact {
			dists[i] = 0
		} else {
			dists[i] = math.Abs(rng.NormFloat64())
		}
	}
	sorted, _ := reduce.SortWithIndex(relevance.Normalize(dists, 0))
	cm := colormap.VisDB(colormap.DefaultLevels)
	win := render.NewWindow("figure 1a", w, h, 1)
	cells := arrange.Spiral(w, h)
	for k, cell := range cells {
		win.SetCell(cell, cm.AtNorm(sorted[k]/relevance.Scale))
	}
	im := win.Image()
	if err := r.saveImage(outDir, "fig1a.png", im); err != nil {
		return nil, err
	}
	// Invariants: the center is yellow, rings are monotone in distance,
	// the outermost ring is darker than the center.
	center := arrange.Center(w, h)
	centerLum := colormap.Luminance(im.At(center.X, center.Y))
	cornerLum := colormap.Luminance(im.At(0, 0))
	monotone := true
	prevRing := 0
	for k, cell := range cells {
		ring := arrange.Ring(w, h, cell)
		if ring < prevRing {
			monotone = false
		}
		prevRing = ring
		if k > 0 && sorted[k] < sorted[k-1] {
			monotone = false
		}
	}
	r.addf("%d items on a %dx%d window; center luminance %.2f, corner %.2f; spiral monotone: %v",
		w*h, w, h, centerLum, cornerLum, monotone)
	r.Pass = monotone && centerLum > 0.5 && cornerLum < centerLum
	return r, nil
}

// Fig1b regenerates figure 1b: the 2D arrangement for signed distances
// with two attributes assigned to the axes.
func Fig1b(outDir string) (*Report, error) {
	r := &Report{
		ID:    "F1b",
		Title: "figure 1b — 2D arrangement with signed distances",
		Expectation: "direction of the distance encoded by location (negative left/" +
			"bottom, positive right/top), absolute value by color, yellow region centered",
	}
	const w, h = 128, 128
	rng := rand.New(rand.NewSource(42))
	n := w * h * 3 / 4
	type item struct {
		sx, sy int
		d      float64
	}
	items := make([]item, n)
	for i := range items {
		dx := rng.NormFloat64()
		dy := rng.NormFloat64()
		items[i] = item{sx: sign(dx), sy: sign(dy), d: math.Hypot(dx, dy)}
		if i < n/40 {
			items[i] = item{0, 0, 0} // exact answers
		}
	}
	sort.Slice(items, func(a, b int) bool { return items[a].d < items[b].d })
	quadItems := make([]arrange.QuadItem, n)
	dists := make([]float64, n)
	for i, it := range items {
		quadItems[i] = arrange.QuadItem{SignX: it.sx, SignY: it.sy}
		dists[i] = it.d
	}
	norm := relevance.Normalize(dists, 0)
	cm := colormap.VisDB(colormap.DefaultLevels)
	cells := arrange.Quad2D(w, h, quadItems)
	win := render.NewWindow("figure 1b", w, h, 1)
	placed := 0
	misplaced := 0
	c := arrange.Center(w, h)
	for i, cell := range cells {
		if cell == arrange.Unplaced {
			continue
		}
		placed++
		win.SetCell(cell, cm.AtNorm(norm[i]/relevance.Scale))
		if quadItems[i].SignX > 0 && cell.X < c.X {
			misplaced++
		}
		if quadItems[i].SignX < 0 && cell.X >= c.X {
			misplaced++
		}
	}
	if err := r.saveImage(outDir, "fig1b.png", win.Image()); err != nil {
		return nil, err
	}
	r.addf("%d/%d items placed, %d direction violations; exact answers at center rings", placed, n, misplaced)
	r.Pass = placed > n*9/10 && misplaced == 0
	return r, nil
}

func sign(v float64) int {
	switch {
	case v < -0.05:
		return -1
	case v > 0.05:
		return 1
	default:
		return 0
	}
}

// Fig2 regenerates figure 2: two density functions of distance values
// and the display-reduction heuristics of section 5.1 — the α-quantile
// for the unimodal density (a), the gap heuristic cutting between the
// groups for the bimodal density (b).
func Fig2(outDir string) (*Report, error) {
	r := &Report{
		ID:    "F2",
		Title: "figure 2 — distance densities and display reduction",
		Expectation: "for multi-peak densities present only the lower group so " +
			"graduate differences are enhanced; plain α-quantile otherwise",
	}
	rng := rand.New(rand.NewSource(43))
	uni := make([]float64, 4000)
	for i := range uni {
		uni[i] = rng.ExpFloat64()
	}
	sort.Float64s(uni)
	var bi []float64
	for i := 0; i < 600; i++ {
		bi = append(bi, 1+0.1*rng.NormFloat64())
	}
	for i := 0; i < 3400; i++ {
		bi = append(bi, 60+3*rng.NormFloat64())
	}
	sort.Float64s(bi)
	budget := 1200
	uniCut := reduce.Cut(uni, budget, 0)
	uniQuant := reduce.QuantileCut(len(uni), reduce.DisplayFraction(budget, len(uni), 0))
	biCut := reduce.Cut(bi, budget, 0)
	r.addf("(a) unimodal: cut %d of %d (quantile %d)", uniCut, len(uni), uniQuant)
	r.addf("(b) bimodal: cut %d of %d (lower group holds 600)", biCut, len(bi))
	hu := stats.NewHistogram(uni, 60)
	hb := stats.NewHistogram(bi, 60)
	r.addf("density (a):\n%s", strings.TrimRight(hu.ASCII(6), "\n"))
	r.addf("density (b):\n%s", strings.TrimRight(hb.ASCII(6), "\n"))
	r.Pass = uniCut == uniQuant && biCut <= 620 && biCut >= 550
	return r, nil
}

// Fig3 regenerates figure 3: the query-specification window for the
// paper's environmental example, rendered as the GRADI query
// representation.
func Fig3(outDir string) (*Report, error) {
	r := &Report{
		ID:    "F3",
		Title: "figure 3 — query specification window",
		Expectation: "three OR-connected conditions AND the with-time-diff(120) " +
			"connection; single boxes for conditions, labeled connection",
	}
	q, err := query.Parse(paperQuery)
	if err != nil {
		return nil, err
	}
	art := query.Gradi(q)
	r.Measured = append(r.Measured, strings.Split(strings.TrimRight(art, "\n"), "\n")...)
	r.Pass = strings.Contains(art, "AND") &&
		strings.Contains(art, "OR") &&
		strings.Contains(art, "[Temperature > 15]") &&
		strings.Contains(art, "[Solar_Radiation > 600]") &&
		strings.Contains(art, "[Humidity < 60]") &&
		strings.Contains(art, "with-time-diff(120)")
	return r, nil
}

// Fig4 regenerates figure 4: the query visualization and modification
// window over 68,376 objects with ≈27,224 (≈40%) displayed.
func Fig4(outDir string) (*Report, error) {
	r := &Report{
		ID:    "F4",
		Title: "figure 4 — query visualization and modification window",
		Expectation: "# objects 68,376; # displayed 27,224 (≈40%); overall window " +
			"plus one window per top-level predicate, positionally aligned",
	}
	eng, err := fig4Data()
	if err != nil {
		return nil, err
	}
	s, err := session.NewSQL(eng.Catalog(), nil, eng.Options(), paperQuery)
	if err != nil {
		return nil, err
	}
	res := s.Result()
	st := res.Stats()
	im, err := s.Image(2)
	if err != nil {
		return nil, err
	}
	if err := r.saveImage(outDir, "fig4.png", im); err != nil {
		return nil, err
	}
	ws, err := res.Windows()
	if err != nil {
		return nil, err
	}
	r.addf("# objects %d, # displayed %d (%.1f%%), # results %d, windows %d",
		st.NumObjects, st.NumDisplayed, st.PctDisplayed*100, st.NumResults, len(ws))
	for _, info := range res.PredicateInfos() {
		r.addf("slider [%s]: db %.4g..%.4g query %.4g..%.4g results %d",
			info.Label, info.MinDB, info.MaxDB, info.QueryLo, info.QueryHi, info.NumResults)
	}
	pctOK := math.Abs(st.PctDisplayed-0.40) < 0.03
	r.Pass = st.NumObjects == 68376 && pctOK && len(ws) == 3 && st.NumResults > 0
	return r, nil
}

// Fig5 regenerates figure 5: drilling into the OR part of the figure-4
// query, keeping the overall arrangement.
func Fig5(outDir string) (*Report, error) {
	r := &Report{
		ID:    "F5",
		Title: "figure 5 — visualization of the OR part",
		Expectation: "double-clicking the OR box yields a window for the OR result " +
			"plus one per OR predicate, with the same arrangement as figure 4",
	}
	eng, err := fig4Data()
	if err != nil {
		return nil, err
	}
	res, err := eng.RunSQL(paperQuery)
	if err != nil {
		return nil, err
	}
	root, ok := res.Query.Where.(*query.BoolExpr)
	if !ok {
		return nil, fmt.Errorf("unexpected root %T", res.Query.Where)
	}
	orPart := root.Children[0]
	ws, err := res.DrillDownWindows(orPart, false)
	if err != nil {
		return nil, err
	}
	im := render.Compose(ws, 2, 6)
	if err := r.saveImage(outDir, "fig5.png", im); err != nil {
		return nil, err
	}
	// Alignment check: a displayed item occupies the same cell in the
	// figure-4 overall window and in every figure-5 window.
	aligned := true
	for rank := 0; rank < res.Displayed && rank < 500; rank++ {
		cell := res.CellOfRank(rank)
		for _, w := range ws {
			if _, ok := w.CellAt(cell); !ok {
				aligned = false
			}
		}
	}
	r.addf("OR drill-down windows: %d (overall-OR + %d predicates); alignment with fig4: %v",
		len(ws), len(ws)-1, aligned)
	indep, err := res.DrillDownWindows(orPart, true)
	if err != nil {
		return nil, err
	}
	if err := r.saveImage(outDir, "fig5_independent.png", render.Compose(indep, 2, 6)); err != nil {
		return nil, err
	}
	r.addf("independent re-arrangement variant: %d windows", len(indep))
	r.Pass = len(ws) == 4 && aligned
	return r, nil
}
