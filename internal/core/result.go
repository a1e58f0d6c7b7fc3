package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/arrange"
	"repro/internal/colormap"
	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/reduce"
	"repro/internal/relevance"
	"repro/internal/render"
	"repro/internal/topk"
)

// Result is the outcome of running a visual feedback query.
type Result struct {
	Engine  *Engine
	Query   *query.Query
	Binding *query.Binding
	Space   *itemSpace
	Eval    *relevance.Result
	// N is the totality of data items considered (rows, or cross-product
	// pairs for multi-table queries) — the "# objects" panel field.
	N int
	// Order maps display rank → item index, in relevance order
	// (ascending combined distance); sorted holds the distances in rank
	// order. Order[:Displayed] is the picture. Beyond it, Order is the
	// rest of the ranking the engine produced: the ranked prefix on the
	// default selection path (at least the display budget), every item
	// under Options.FullSort. Under Arrange2D, Order holds only the
	// displayed band members. Use TopK for the head of the ranking at any
	// depth.
	Order  []int
	sorted []float64
	// rankOrder and rankSorted are the ranking itself, which Stats and
	// TopK read and only TopK extends: the same slices as Order and
	// sorted until the 2D placement narrows the picture or TopK ranks
	// deeper.
	rankOrder  []int
	rankSorted []float64
	// Displayed is the number of ranked items that fit the display after
	// the section 5.1 reduction — the "# displayed" panel field.
	Displayed int
	// Timings holds the per-stage wall-clock breakdown of this run.
	Timings StageTimings

	root   *relevance.Node
	mu     sync.Mutex // guards the ranking's extension and the Relevance memoization
	nodeOf map[query.Expr]*relevance.Node
	// evaluated maps the condition of each condition leaf to the
	// condition the leaf evaluated — itself, or its inverted copy under a
	// negation — for the 2D placement's signed distances (signedOf). A
	// condition evaluated as a boolean fallback has no entry.
	evaluated map[*query.Cond]*query.Cond
	cells     []arrange.Point // rank → cell

	// relevance memoizes the Relevance accessor.
	relevance []float64
	// cache is set on cached runs: the session-level predicate cache
	// serving this run. keys builds every structural cache key of the run
	// (see runKeys); the tree's nodes carry theirs.
	cache *RunCache
	keys  runKeys

	// checkpoint is the run's cancellation poll (nil on uncanceled
	// runs): the tree build polls it at node entry and between distance
	// chunks, so a request deadline interrupts the Distances stage too.
	checkpoint func() error
}

// poll reports the run's cancellation verdict (nil-safe).
func (r *Result) poll() error {
	if r.checkpoint == nil {
		return nil
	}
	return r.checkpoint()
}

// Combined returns the normalized combined distance per item — the
// full n-sized scaled vector, the root's Vec. On the default
// rank-before-scale path the spiral never needs it (ranking happens on
// raw values, windows read only displayed ranks), so it materializes
// lazily on first use and is memoized; the 2D placement reads it for its
// band's members, and FullSort runs have it eagerly. Like every vector
// of a cached run's Result, it is valid until the session's next
// recalculation. Safe for concurrent use. Prefer DistanceOfRank for
// ranked access — it never forces materialization.
func (r *Result) Combined() []float64 { return r.Eval.Vec(r.root) }

// DistanceOfRank returns the combined (scaled) distance of the item at
// display rank k — res.Combined()[res.Order[k]] without materializing
// the combined vector. Valid for the exactly-ranked prefix (display
// ranks always qualify); NaN outside it.
func (r *Result) DistanceOfRank(k int) float64 {
	if k < 0 || k >= len(r.Order) {
		return math.NaN()
	}
	return r.sorted[k]
}

// Relevance returns the per-item relevance factors — "the relevance
// factor is determined as the inverse of that distance value" —
// materialized on first use and memoized. Dropping the eager
// materialization removes an unconditional n-sized allocation (8 MB at
// n = 1e6) from runs that only consume the ranking. Safe for
// concurrent use.
func (r *Result) Relevance() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.relevance == nil {
		r.relevance = relevance.RelevanceFactors(r.Combined())
	}
	return r.relevance
}

// setNode records the relevance node of an expression.
func (r *Result) setNode(e query.Expr, n *relevance.Node) { r.nodeOf[e] = n }

// setEvaluated records the condition a condition leaf evaluated.
func (r *Result) setEvaluated(orig, c *query.Cond) {
	if r.evaluated == nil {
		r.evaluated = make(map[*query.Cond]*query.Cond)
	}
	r.evaluated[orig] = c
}

// buildPlacement assigns window cells to the displayed ranks.
func (r *Result) buildPlacement() {
	opt := r.Engine.opt
	if opt.Arrangement == Arrange2D {
		r.build2DPlacement()
	} else {
		r.cells = arrange.Place(opt.GridW, opt.GridH, r.Displayed)
	}
}

// build2DPlacement implements figure 1b: the signed distances of the two
// axis predicates give each item a quadrant; within quadrants items sit
// by rank from the center outward. When both axis predicates carry
// signed distances, the displayed set is refined with the combined
// two-dimensional α-quantiles of section 5.1, so both directions stay
// represented in the band around zero.
func (r *Result) build2DPlacement() {
	opt := r.Engine.opt
	sx, sortedX := r.signedOf(opt.AxisX)
	sy, sortedY := r.signedOf(opt.AxisY)
	if sx != nil && sy != nil && r.N > 0 {
		r.apply2DQuantiles(reduce.Items2D(sx, sy, sortedX, sortedY, float64(r.Displayed)/float64(r.N)))
	}
	items := make([]arrange.QuadItem, r.Displayed)
	for rank := 0; rank < r.Displayed; rank++ {
		item := r.Order[rank]
		items[rank] = arrange.QuadItem{SignX: signOf(sx, item), SignY: signOf(sy, item)}
	}
	r.cells = arrange.Quad2D(opt.GridW, opt.GridH, items)
}

// apply2DQuantiles narrows the picture to the members of the combined
// two-dimensional α-quantile band in2D (item indices in input order):
// the Displayed most relevant of them, or all of them when fewer are
// colorable. The ranking Stats and TopK read is left as it is.
func (r *Result) apply2DQuantiles(in2D []int) {
	if len(in2D) == 0 {
		return
	}
	// The band's combined distances alone: the root vector stays
	// unmaterialized.
	dists := r.Eval.RootValues(in2D)
	members, vals := in2D[:0], dists[:0]
	for j, item := range in2D {
		// Uncolorable items stay out of the display even when their
		// axis distances fall inside the bands.
		if d := dists[j]; !math.IsNaN(d) {
			members, vals = append(members, item), append(vals, d)
		}
	}
	if len(members) == 0 {
		return
	}
	// vals is in item order, so the selection's tie rule (by index) is
	// the ranking's.
	sorted, order := topk.SelectKWithIndex(vals, min(r.Displayed, len(members)))
	for rank, j := range order {
		order[rank] = members[j]
	}
	r.sorted, r.Order, r.Displayed = sorted, order, len(order)
}

// signedOf returns the signed distances of the axis condition on attr
// — the first one query.Binding.CondOn names (the rule a range op
// addresses conditions by) among those with a condition leaf — over the
// condition its leaf evaluated, and their sorted sample (axisEntry); nil
// when there is none (a boolean fallback has no signed distances). They
// are computed here, reusing the leaf's distances where a string
// condition would repeat its edit distances, and a cached run keeps them
// with their sample under their own key (runKeys.axis), so a weight drag
// neither computes nor sorts them again.
func (r *Result) signedOf(attr string) (signed, sorted []float64) {
	c := r.Binding.CondOn(attr, func(c *query.Cond) bool {
		_, ok := r.evaluated[c]
		return ok
	})
	if c == nil {
		return nil, nil
	}
	leaf := r.nodeOf[c]
	compute := func() (leafEntry, error) {
		signed := make([]float64, r.N)
		if _, _, _, err := r.Engine.condData(r.evaluated[c], r.Binding.Attrs[c], r.Space, leaf.Dists, signed); err != nil {
			return leafEntry{}, err
		}
		return axisEntry(signed), nil
	}
	le, err := r.cache.fetch(r.keys.axis(leaf.Key), r.N, axisEntry, compute)
	if err != nil {
		return nil, nil // the leaf computed over the same inputs; unreachable
	}
	return le.raw, le.sorted
}

// axisEntry is the entry of an axis's signed distances: the vector and
// the sorted sample the 2D bands are cut from (relevance.SortedValues).
func axisEntry(signed []float64) leafEntry {
	return leafEntry{raw: signed, sorted: relevance.SortedValues(signed)}
}

func signOf(signed []float64, item int) int {
	if signed == nil || item >= len(signed) {
		return 0
	}
	v := signed[item]
	switch {
	case math.IsNaN(v) || v == 0:
		return 0
	case v < 0:
		return -1
	default:
		return 1
	}
}

// Stats summarizes the overall-result panel of figures 4/5.
type PanelStats struct {
	NumObjects   int     // # objects: totality of considered items
	NumDisplayed int     // # displayed
	PctDisplayed float64 // % displayed
	NumResults   int     // # of results: items fulfilling the query exactly
}

// Stats computes the overall panel fields. The exact-match count
// comes from the ranking whenever its prefix provably contains every
// zero (its last entry is nonzero or NaN — zeros rank first, so none can
// hide beyond it); only a selection saturated with exact answers falls
// back to materializing the combined vector. Serving summaries therefore
// stay free of the n-wide scale pass the rank-before-scale path avoids.
func (r *Result) Stats() PanelStats {
	r.mu.Lock()
	ranked := r.rankSorted
	r.mu.Unlock()
	exact := 0
	if k := len(ranked); k > 0 && ranked[k-1] != 0 {
		// Monotone prefix (ascending, NaNs last): count the leading
		// zeros.
		exact = sort.Search(k, func(i int) bool { return ranked[i] != 0 })
	} else if k > 0 || r.N > 0 {
		for _, d := range r.Combined() {
			if d == 0 {
				exact++
			}
		}
	}
	pct := 0.0
	if r.N > 0 {
		pct = float64(r.Displayed) / float64(r.N)
	}
	return PanelStats{
		NumObjects:   r.N,
		NumDisplayed: r.Displayed,
		PctDisplayed: pct,
		NumResults:   exact,
	}
}

// PredicateInfo carries the per-slider panel fields of section 4.3.
type PredicateInfo struct {
	Label  string
	Weight float64
	// MinDB/MaxDB: attribute extremes in the database, displayed
	// outside the slider spectrum.
	MinDB, MaxDB float64
	// FirstDisplayed/LastDisplayed: lowest and highest attribute value
	// among the visualized data items, displayed inside the spectrum.
	FirstDisplayed, LastDisplayed float64
	// QueryLo/QueryHi: the current query range.
	QueryLo, QueryHi float64
	// NumResults: items fulfilling this predicate exactly.
	NumResults int
	// Numeric reports whether the attribute fields are meaningful.
	Numeric bool
	// Kind is the bound attribute's datatype (valid when the predicate
	// is a simple condition); it selects the slider variant of
	// section 4.3.
	Kind dataset.Kind
	// Categories and SelectedCats describe the enumeration slider of
	// ordinal/nominal attributes: the category labels and which are
	// currently selected by the condition.
	Categories   []string
	SelectedCats []bool
}

// PredicateInfos returns slider info for every top-level selection
// predicate, in query order.
func (r *Result) PredicateInfos() []PredicateInfo {
	var out []PredicateInfo
	for _, p := range query.Predicates(r.Query.Where) {
		info := PredicateInfo{Label: p.Label(), Weight: p.Weight(),
			MinDB: math.NaN(), MaxDB: math.NaN(),
			FirstDisplayed: math.NaN(), LastDisplayed: math.NaN(),
			QueryLo: math.NaN(), QueryHi: math.NaN()}
		if node, ok := r.nodeOf[p]; ok {
			// Interior nodes (e.g. an OR part) have no raw leaf
			// distances; count exact answers on the evaluated vector.
			vec := r.Eval.Vec(node)
			if vec == nil {
				vec = node.Dists
			}
			for _, d := range vec {
				if d == 0 {
					info.NumResults++
				}
			}
		}
		if c, ok := p.(*query.Cond); ok {
			if attr, ok := r.Binding.Attrs[c]; ok {
				info.Kind = attr.Kind
				if lo, hi, ok := sliderRange(c, attr.Kind); ok {
					info.Numeric = true
					if col := r.column(attr); col != nil {
						// The column keeps its extremes: an O(1) read.
						if dbLo, dbHi, ok := col.MinMax(); ok {
							info.MinDB, info.MaxDB = dbLo, dbHi
						}
					}
					info.QueryLo, info.QueryHi = lo, hi
					first, last := math.Inf(1), math.Inf(-1)
					any := false
					valueOf := r.attrValue(attr)
					for rank := 0; rank < r.Displayed; rank++ {
						v := valueOf(r.Order[rank])
						if math.IsNaN(v) {
							continue
						}
						any = true
						first = math.Min(first, v)
						last = math.Max(last, v)
					}
					if any {
						info.FirstDisplayed, info.LastDisplayed = first, last
					} else {
						info.FirstDisplayed, info.LastDisplayed = math.NaN(), math.NaN()
					}
				}
				if attr.Kind == dataset.KindOrdinal || attr.Kind == dataset.KindNominal {
					info.Categories, info.SelectedCats = r.categorySelection(c, attr)
				}
			}
		}
		out = append(out, info)
	}
	return out
}

// sliderRange is the query range a numeric condition's slider marks:
// numericRange's interval, for every operator but the pointwise <>.
func sliderRange(c *query.Cond, kind dataset.Kind) (lo, hi float64, ok bool) {
	if !kind.IsNumeric() {
		return 0, 0, false
	}
	lo, hi, pointwise, err := numericRange(c)
	return lo, hi, err == nil && !pointwise
}

// column returns the bound attribute's column, or nil.
func (r *Result) column(attr query.BoundAttr) *dataset.Column {
	t, err := r.Space.tableByName(attr.Table)
	if err != nil {
		return nil
	}
	col, _ := t.Column(attr.Attr)
	return col
}

// attrValue returns a per-item reader of an attribute's value, straight
// from the catalog (the item's row of the attribute's table; NaN for
// nulls and non-numeric kinds). The panel fields need at most the
// display budget of them, which is why a cached leaf keeps no copy of
// its column.
func (r *Result) attrValue(attr query.BoundAttr) func(item int) float64 {
	col := r.column(attr)
	return func(item int) float64 {
		row, err := r.Space.rowFor(item, attr.Table)
		if col == nil || err != nil {
			return math.NaN()
		}
		v, _ := col.Value(row).AsFloat() // NaN when not ok
		return v
	}
}

// colorFor maps a normalized distance to its display color.
func (r *Result) colorFor(norm float64) colormap.RGB {
	if math.IsNaN(norm) {
		return colormap.UncolorableColor
	}
	return r.Engine.opt.Map.AtNorm(norm / relevance.Scale)
}

// OverallWindow renders the overall-result window: rank k's cell gets
// the color of the k-th smallest combined distance, yielding the yellow
// center with spiral-shaped approximate answers of figure 1a.
func (r *Result) OverallWindow() *render.Window {
	return r.window("overall result", nil, r.Order, r.cells, r.Displayed, nil, -1)
}

// WindowFor renders the window of one query part: the cells keep the
// overall ordering ("we do not sort the distances, but keep the same
// ordering of data items as in the overall result window") and show the
// part's own normalized distances.
func (r *Result) WindowFor(e query.Expr) (*render.Window, error) {
	return r.partWindow(e, r.Order, r.cells, r.Displayed, nil, -1)
}

// partWindow draws the window of query part e, colored by the part's
// own normalized distances, over an arrangement (see window).
func (r *Result) partWindow(e query.Expr, order []int, cells []arrange.Point, shown int, keep map[int]bool, selected int) (*render.Window, error) {
	node, err := r.nodeFor(e)
	if err != nil {
		return nil, err
	}
	vec := r.Eval.Vec(node)
	if vec == nil {
		return nil, fmt.Errorf("core: expression %q not evaluated", e.Label())
	}
	return r.window(e.Label(), vec, order, cells, shown, keep, selected), nil
}

// window draws every window: the first shown ranks of order at their
// cells, each colored by its item's entry of vec — by its overall
// distance, the ranked prefix, when vec is nil — for the items keep
// holds (a color-range projection; every item when nil), and the cell of
// item selected highlighted (none when selected is negative).
func (r *Result) window(title string, vec []float64, order []int, cells []arrange.Point, shown int, keep map[int]bool, selected int) *render.Window {
	opt := r.Engine.opt
	w := render.NewWindow(title, opt.GridW, opt.GridH, arrange.BlockSide(opt.PixelsPerItem))
	for rank := 0; rank < shown && rank < len(cells); rank++ {
		item, cell := order[rank], cells[rank]
		if item == selected && cell != arrange.Unplaced {
			w.Highlight(cell)
		}
		if keep != nil && !keep[item] {
			continue
		}
		d := r.sorted[rank]
		if vec != nil {
			d = vec[item]
		}
		w.SetCell(cell, r.colorFor(d))
	}
	return w
}

// Windows returns the overall window followed by one window per
// top-level selection predicate — the visualization part of figure 4.
func (r *Result) Windows() ([]*render.Window, error) { return r.WindowsOf(nil, -1) }

// WindowsOf returns the windows of Windows as a session shows them:
// only the displayed items keep holds (every one when nil) are colored,
// and the cell of item selected (none when negative) is highlighted in
// each.
func (r *Result) WindowsOf(keep map[int]bool, selected int) ([]*render.Window, error) {
	out := []*render.Window{r.window("overall result", nil, r.Order, r.cells, r.Displayed, keep, selected)}
	for _, p := range query.Predicates(r.Query.Where) {
		w, err := r.partWindow(p, r.Order, r.cells, r.Displayed, keep, selected)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// Image composes the windows into one image with the given column count
// (2 matches the paper's 2×2 layout for three predicates).
func (r *Result) Image(cols int) (*render.Image, error) {
	ws, err := r.Windows()
	if err != nil {
		return nil, err
	}
	return render.Compose(ws, cols, 6), nil
}

// categorySelection computes the enumeration-slider state of a
// categorical condition: the attribute's categories and which of them
// the condition currently selects.
func (r *Result) categorySelection(c *query.Cond, attr query.BoundAttr) (labels []string, selected []bool) {
	t, err := r.Engine.cat.Table(attr.Table)
	if err != nil {
		return nil, nil
	}
	idx := t.Schema().Index(attr.Attr)
	if idx < 0 {
		return nil, nil
	}
	labels = append([]string(nil), t.Schema()[idx].Categories...)
	selected = make([]bool, len(labels))
	match := func(label string) bool {
		switch c.Op {
		case query.OpEq:
			return label == c.Value.S
		case query.OpNe:
			return label != c.Value.S
		case query.OpIn:
			for _, v := range c.List {
				if v.S == label {
					return true
				}
			}
			return false
		case query.OpGt, query.OpGe, query.OpLt, query.OpLe:
			// Ordinal comparisons select by rank.
			rank := indexOf(labels, label)
			target := indexOf(labels, c.Value.S)
			if rank < 0 || target < 0 {
				return false
			}
			switch c.Op {
			case query.OpGt:
				return rank > target
			case query.OpGe:
				return rank >= target
			case query.OpLt:
				return rank < target
			default:
				return rank <= target
			}
		default:
			return false
		}
	}
	for i, l := range labels {
		selected[i] = match(l)
	}
	return labels, selected
}

func indexOf(ss []string, s string) int {
	for i, v := range ss {
		if v == s {
			return i
		}
	}
	return -1
}

// SliderSpecs builds the query-modification sliders: each spectrum is
// "just a different arrangement of the colored distances" with the
// query range marked. The slider kind follows the attribute datatype
// (section 4.3): discrete ticks for integers, enumerations for
// ordinal/nominal attributes, continuous ranges otherwise.
func (r *Result) SliderSpecs() []render.SliderSpec {
	infos := r.PredicateInfos()
	specs := make([]render.SliderSpec, 0, len(infos))
	for _, info := range infos {
		s := render.SliderSpec{
			Title:    info.Label,
			Spectrum: r.Engine.opt.Map.Spectrum(128),
			MarkLo:   -1,
			MarkHi:   -1,
		}
		switch {
		case len(info.Categories) > 0:
			s.Kind = render.SliderEnumeration
			s.Labels = info.Categories
			s.Selected = info.SelectedCats
		case info.Kind == dataset.KindInt:
			s.Kind = render.SliderDiscrete
			if info.Numeric && info.MaxDB > info.MinDB {
				ticks := int(info.MaxDB - info.MinDB)
				if ticks > 32 {
					ticks = 32
				}
				if ticks < 2 {
					ticks = 2
				}
				s.Ticks = ticks
			}
		}
		if info.Numeric && info.MaxDB > info.MinDB {
			span := info.MaxDB - info.MinDB
			if !math.IsInf(info.QueryLo, 0) && !math.IsNaN(info.QueryLo) {
				s.MarkLo = clamp01((info.QueryLo - info.MinDB) / span)
			}
			if !math.IsInf(info.QueryHi, 0) && !math.IsNaN(info.QueryHi) {
				s.MarkHi = clamp01((info.QueryHi - info.MinDB) / span)
			}
			if info.Kind == dataset.KindTime {
				// Time attributes coerce to Unix seconds internally;
				// the slider caption shows readable instants.
				s.Caption = fmt.Sprintf("%s .. %s",
					time.Unix(int64(info.MinDB), 0).UTC().Format("2006-01-02 15:04"),
					time.Unix(int64(info.MaxDB), 0).UTC().Format("2006-01-02 15:04"))
			} else {
				s.Caption = fmt.Sprintf("%.4g .. %.4g", info.MinDB, info.MaxDB)
			}
			// A closed range doubles as a median±deviation slider (the
			// rightmost slider of figure 4).
			if s.MarkLo >= 0 && s.MarkHi >= 0 && s.Kind == render.SliderContinuous &&
				!math.IsInf(info.QueryLo, 0) && !math.IsInf(info.QueryHi, 0) {
				s.Median = (s.MarkLo + s.MarkHi) / 2
				s.Deviation = (s.MarkHi - s.MarkLo) / 2
			}
		}
		specs = append(specs, s)
	}
	return specs
}

func clamp01(v float64) float64 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ItemAt returns the item index displayed at a window cell, for tuple
// selection (section 4.3).
func (r *Result) ItemAt(cell arrange.Point) (int, bool) {
	if cell == arrange.Unplaced {
		return 0, false
	}
	// A click is a human-rate event: scan the displayed ranks (both
	// arrangements hand every cell to at most one rank).
	for rank := 0; rank < r.Displayed && rank < len(r.cells); rank++ {
		if r.cells[rank] == cell {
			return r.Order[rank], true
		}
	}
	return 0, false
}

// CellOfItem returns the window cell of an item, if displayed.
func (r *Result) CellOfItem(item int) (arrange.Point, bool) {
	for rank := 0; rank < r.Displayed && rank < len(r.cells); rank++ {
		if r.Order[rank] == item {
			c := r.cells[rank]
			return c, c != arrange.Unplaced
		}
	}
	return arrange.Unplaced, false
}

// SelectedTuple materializes the underlying row(s) of an item: one row
// for single-table queries, the left and right rows for cross-product
// items — the "selected tuple" panel field.
type SelectedTuple struct {
	Tables []string
	Rows   [][]dataset.Value
}

// Tuple returns the selected tuple for an item index.
func (r *Result) Tuple(item int) (SelectedTuple, error) {
	if item < 0 || item >= r.N {
		return SelectedTuple{}, fmt.Errorf("core: item %d out of range [0,%d)", item, r.N)
	}
	st := SelectedTuple{}
	if r.Space.pairs == nil {
		t := r.Space.tables[0]
		st.Tables = []string{t.Name()}
		st.Rows = [][]dataset.Value{t.Row(item)}
		return st, nil
	}
	p := r.Space.pairs[item]
	lt, rt := r.Space.tables[0], r.Space.tables[1]
	st.Tables = []string{lt.Name(), rt.Name()}
	st.Rows = [][]dataset.Value{lt.Row(p.Left), rt.Row(p.Right)}
	return st, nil
}

// ItemsInColorRange returns the displayed items whose color level for
// the given query part lies within [loLevel, hiLevel] — the projection
// used "to focus on sets of data items with a specific color"
// (section 4.3). A nil expression selects on the overall result's
// colors.
func (r *Result) ItemsInColorRange(e query.Expr, loLevel, hiLevel int) ([]int, error) {
	var vec []float64
	if e != nil {
		node, err := r.nodeFor(e)
		if err != nil {
			return nil, err
		}
		vec = r.Eval.Vec(node)
	}
	m := r.Engine.opt.Map
	var items []int
	for rank := 0; rank < r.Displayed; rank++ {
		item := r.Order[rank]
		var norm float64
		if e == nil {
			// The overall colors of displayed ranks come straight from
			// the ranked prefix — no need to materialize Combined.
			norm = r.DistanceOfRank(rank)
		} else {
			norm = vec[item]
		}
		if math.IsNaN(norm) {
			continue
		}
		level := m.LevelOfNorm(norm / relevance.Scale)
		if level >= loLevel && level <= hiLevel {
			items = append(items, item)
		}
	}
	return items, nil
}

// TopK returns the item indices of the k most relevant items (the head
// of the ranking) — the programmatic consumption path for similarity
// retrieval (section 4.5); k is clamped to N. It is the same list under
// either arrangement. When k exceeds the ranking the engine produced
// (the selection prefix on the default path), the ranking is extended
// with another selection pass over the combined distances; the picture
// (Order, DistanceOfRank, the windows) is unchanged by the extension.
// Safe for concurrent use.
func (r *Result) TopK(k int) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	k = min(max(k, 0), r.N)
	if k > len(r.rankOrder) {
		r.rankSorted, r.rankOrder = topk.SelectKWithIndex(r.Combined(), k)
	}
	out := make([]int, k)
	copy(out, r.rankOrder[:k])
	return out
}

// Pair returns the (left row, right row) of a cross-product item; ok is
// false for single-table queries or out-of-range items.
func (r *Result) Pair(item int) (left, right int, ok bool) {
	if r.Space == nil || r.Space.pairs == nil || item < 0 || item >= len(r.Space.pairs) {
		return 0, 0, false
	}
	p := r.Space.pairs[item]
	return p.Left, p.Right, true
}

// CellOfRank returns the window cell of display rank k (Unplaced when
// out of range).
func (r *Result) CellOfRank(k int) arrange.Point {
	if k < 0 || k >= len(r.cells) {
		return arrange.Unplaced
	}
	return r.cells[k]
}

// nodeFor returns the evaluated node of query part e.
func (r *Result) nodeFor(e query.Expr) (*relevance.Node, error) {
	if node, ok := r.nodeOf[e]; ok {
		return node, nil
	}
	if e == nil {
		return nil, fmt.Errorf("core: no data for a nil query part")
	}
	return nil, fmt.Errorf("core: no data for expression %q", e.Label())
}

// NormOf returns the normalized distance of an item for a query part.
func (r *Result) NormOf(e query.Expr, item int) (float64, error) {
	node, err := r.nodeFor(e)
	if err != nil {
		return 0, err
	}
	vec := r.Eval.Vec(node)
	if item < 0 || item >= len(vec) {
		return 0, fmt.Errorf("core: item %d out of range", item)
	}
	return vec[item], nil
}

// DrillDownWindows implements the figure-5 interaction: double-clicking
// a boolean operator box yields a visualization window for that query
// part — its overall result plus one window per child predicate. With
// independent == false the arrangement of data items "is the same
// arrangement as for the overall result of the whole query"; with
// independent == true the items are re-arranged "according to the
// relevance factors calculated for the query part only".
func (r *Result) DrillDownWindows(e query.Expr, independent bool) ([]*render.Window, error) {
	node, err := r.nodeFor(e)
	if err != nil {
		return nil, err
	}
	parts := append([]query.Expr{e}, query.Predicates(e)...)
	if len(query.Predicates(e)) == 1 && query.Predicates(e)[0] == e {
		parts = []query.Expr{e} // leaf drill-down: just the one window
	}
	order, cells, shown, title := r.Order, r.cells, r.Displayed, "overall "+e.Label()
	if independent {
		// Re-rank by the part's own distances. The part only ever displays
		// up to the window capacity, so that many ranks are selected: the
		// head of the full sort, ties by item.
		vec := r.Eval.Vec(node)
		opt := r.Engine.opt
		capacity := opt.GridW * opt.GridH
		_, order = topk.SelectKWithIndex(vec, min(capacity, len(vec)))
		shown = min(r.Displayed, capacity, len(vec)-relevance.CountNaN(vec))
		cells = arrange.Place(opt.GridW, opt.GridH, shown)
		title += " (independent)"
	}
	out := make([]*render.Window, len(parts))
	for i, p := range parts {
		if out[i], err = r.partWindow(p, order, cells, shown, nil, -1); err != nil {
			return nil, err
		}
	}
	out[0].Title = title
	return out, nil
}
