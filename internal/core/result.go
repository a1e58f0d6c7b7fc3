package core

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
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
	// Order maps display rank → item index (ascending combined
	// distance, i.e. descending relevance); sorted holds the distances
	// in rank order. Every entry is in exact relevance order: on the
	// default selection path Order holds the ranked prefix only — at
	// least the display budget — and the unranked items are not listed.
	// Use TopK to obtain the head of the ranking at any depth, or
	// Options.FullSort for a fully sorted Order of all N items.
	Order  []int
	sorted []float64
	// sortedReordered marks sorted as re-filtered into display order by
	// the 2D-quantile refinement (no longer ascending).
	sortedReordered bool
	// Displayed is the number of ranked items that fit the display after
	// the section 5.1 reduction — the "# displayed" panel field.
	Displayed int
	// Timings holds the per-stage wall-clock breakdown of this run.
	Timings StageTimings

	root   *relevance.Node
	mu     sync.Mutex // guards rank extension and the Relevance memoization
	nodeOf map[query.Expr]*relevance.Node
	// signed holds the signed distances of the conditions that have them
	// (an Arrange2D run's), which the 2D placement reads.
	signed map[query.Expr][]float64
	cells  []arrange.Point // rank → cell

	// relevance memoizes the Relevance accessor.
	relevance []float64
	// cache is set on cached runs: the session-level predicate cache
	// serving this run. keys builds every structural cache key of the run
	// from the item-space fingerprint (see runKeys), and leafID records
	// each relevance leaf's full cache key — the content-precise identity
	// the interior-normalization signatures embed in place of the label,
	// and together the identity the carried selection threshold is valid
	// for (leafSetSig).
	cache  *RunCache
	keys   runKeys
	leafID map[*relevance.Node]string

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
// rank-before-scale path the engine never needs it (ranking happens on
// raw values, windows read only displayed ranks), so it materializes
// lazily on first use and is memoized; FullSort/Arrange2D runs have it
// eagerly. Like every vector of a cached run's Result, it is valid until
// the session's next recalculation. Safe for concurrent use. Prefer
// DistanceOfRank for ranked access — it never forces materialization.
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

// setSigned records the signed distances of a condition.
func (r *Result) setSigned(e query.Expr, signed []float64) {
	if r.signed == nil {
		r.signed = make(map[query.Expr][]float64)
	}
	r.signed[e] = signed
}

// setLeafID records a leaf node's full cache key.
func (r *Result) setLeafID(n *relevance.Node, key string) {
	if r.leafID == nil {
		r.leafID = make(map[*relevance.Node]string)
	}
	r.leafID[n] = key
}

// leafIDOf answers relevance.EvalOptions.LeafID: the leaf's full cache
// key, or empty (label fallback) for leaves built without one.
func (r *Result) leafIDOf(n *relevance.Node) string { return r.leafID[n] }

// leafSetSig names the set of leaves the run read: the item space and
// the leaf keys in sorted order, so reordering or reweighting the query
// over the same leaves keeps it and moving any leaf changes it. Called
// once the tree is built, when nothing writes leafID any more.
func (r *Result) leafSetSig() string {
	return r.keys.space + "\n" + strings.Join(slices.Sorted(maps.Values(r.leafID)), "\n")
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
	sx := r.signedOf(opt.AxisX)
	sy := r.signedOf(opt.AxisY)
	if sx != nil && sy != nil && r.N > 0 {
		r.apply2DQuantiles(sx, sy)
	}
	items := make([]arrange.QuadItem, r.Displayed)
	for rank := 0; rank < r.Displayed; rank++ {
		item := r.Order[rank]
		items[rank] = arrange.QuadItem{SignX: signOf(sx, item), SignY: signOf(sy, item)}
	}
	r.cells = arrange.Quad2D(opt.GridW, opt.GridH, items)
}

// apply2DQuantiles refines the displayed set with the combined
// two-dimensional α-quantiles and reorders Order so the selected items
// (in relevance order) come first. Note that with Arrange2D, Order is
// therefore the display order, not a pure relevance ranking beyond the
// displayed prefix.
func (r *Result) apply2DQuantiles(sx, sy []float64) {
	p := float64(r.Displayed) / float64(r.N)
	in2D := reduce.Items2D(sx, sy, p)
	if len(in2D) == 0 {
		return
	}
	combined := r.Combined()
	keep := make(map[int]bool, len(in2D))
	for _, item := range in2D {
		// Uncolorable items stay out of the display even when their
		// axis distances fall inside the bands.
		if !math.IsNaN(combined[item]) {
			keep[item] = true
		}
	}
	if len(keep) == 0 {
		return
	}
	newOrder := make([]int, 0, len(r.Order))
	for _, item := range r.Order {
		if keep[item] {
			newOrder = append(newOrder, item)
		}
	}
	for _, item := range r.Order {
		if !keep[item] {
			newOrder = append(newOrder, item)
		}
	}
	if len(keep) < r.Displayed {
		r.Displayed = len(keep)
	}
	r.Order = newOrder
	sorted := make([]float64, len(newOrder))
	for i, item := range newOrder {
		sorted[i] = combined[item]
	}
	r.sorted = sorted
	// sorted is now in DISPLAY order (band members first), not ascending
	// distance order — consumers that rely on monotone prefixes (the
	// Stats exact-match shortcut) must fall back to the full vector.
	r.sortedReordered = true
}

// signedOf finds the signed-distance vector of the condition on the
// named attribute, or nil: of several, the first in query order that
// has one — the rule Session.FindCond uses.
func (r *Result) signedOf(attr string) []float64 {
	if attr == "" {
		return nil
	}
	var found []float64
	query.Walk(r.Query.Where, func(e query.Expr) {
		c, ok := e.(*query.Cond)
		if !ok || found != nil {
			return
		}
		if b := r.Binding.Attrs[c]; c.Attr == attr || b.Attr == attr || b.Qualified() == attr {
			found = r.signed[c]
		}
	})
	return found
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
// comes from the ranked prefix whenever the prefix provably contains
// every zero (its last entry is nonzero or NaN — zeros rank first, so
// none can hide beyond it); only a selection saturated with exact
// answers falls back to materializing the combined vector. Serving
// summaries therefore stay free of the n-wide scale pass the
// rank-before-scale path avoids.
func (r *Result) Stats() PanelStats {
	exact := 0
	if k := len(r.sorted); !r.sortedReordered && k > 0 && r.sorted[k-1] != 0 {
		// Monotone prefix (ascending, NaNs last): count the leading
		// zeros.
		exact = sort.Search(k, func(i int) bool { return r.sorted[i] != 0 })
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
	opt := r.Engine.opt
	w := render.NewWindow("overall result", opt.GridW, opt.GridH, arrange.BlockSide(opt.PixelsPerItem))
	for rank := 0; rank < r.Displayed && rank < len(r.cells); rank++ {
		w.SetCell(r.cells[rank], r.colorFor(r.sorted[rank]))
	}
	return w
}

// WindowFor renders the window of one query part: the cells keep the
// overall ordering ("we do not sort the distances, but keep the same
// ordering of data items as in the overall result window") and show the
// part's own normalized distances.
func (r *Result) WindowFor(e query.Expr) (*render.Window, error) {
	node, err := r.nodeFor(e)
	if err != nil {
		return nil, err
	}
	vec := r.Eval.Vec(node)
	if vec == nil {
		return nil, fmt.Errorf("core: expression %q not evaluated", e.Label())
	}
	opt := r.Engine.opt
	w := render.NewWindow(e.Label(), opt.GridW, opt.GridH, arrange.BlockSide(opt.PixelsPerItem))
	for rank := 0; rank < r.Displayed && rank < len(r.cells); rank++ {
		item := r.Order[rank]
		w.SetCell(r.cells[rank], r.colorFor(vec[item]))
	}
	return w, nil
}

// Windows returns the overall window followed by one window per
// top-level selection predicate — the visualization part of figure 4.
func (r *Result) Windows() ([]*render.Window, error) {
	out := []*render.Window{r.OverallWindow()}
	for _, p := range query.Predicates(r.Query.Where) {
		w, err := r.WindowFor(p)
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
// retrieval (section 4.5); k is clamped to N. When k exceeds the
// materialized selection prefix (all that Order holds on the selection
// path), the ranking is extended with another selection pass over the
// combined distances; the already-ranked prefix is unchanged by the
// extension. Concurrent TopK calls are synchronized, but an extension
// replaces the Order/sorted slices — goroutines reading the exported
// Order field directly must not race with deeper TopK calls (rank with
// Options.FullSort when that sharing pattern is needed).
func (r *Result) TopK(k int) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if k > r.N {
		k = r.N
	}
	if k < 0 {
		k = 0
	}
	if k > len(r.Order) {
		r.sorted, r.Order = topk.SelectKWithIndex(r.Combined(), k)
	}
	out := make([]int, k)
	copy(out, r.Order[:k])
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

// ColorFor exposes the colormap mapping used by the windows.
func (r *Result) ColorFor(norm float64) colormap.RGB { return r.colorFor(norm) }

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
	if !independent {
		out := make([]*render.Window, 0, len(parts))
		for i, p := range parts {
			w, err := r.WindowFor(p)
			if err != nil {
				return nil, err
			}
			if i == 0 {
				w.Title = "overall " + e.Label()
			}
			out = append(out, w)
		}
		return out, nil
	}
	// Independent arrangement: re-rank by the part's own distances. The
	// part only ever displays up to the window capacity, so the default
	// path selects that many ranks instead of sorting all n.
	vec := r.Eval.Vec(node)
	opt := r.Engine.opt
	capacity := opt.GridW * opt.GridH
	var order []int
	if r.Engine.fullSort() {
		_, order = reduce.SortWithIndex(vec)
	} else {
		k := capacity
		if k > len(vec) {
			k = len(vec)
		}
		_, order = topk.SelectKWithIndex(vec, k)
	}
	displayed := r.Displayed
	if displayed > capacity {
		displayed = capacity
	}
	if colorable := len(vec) - relevance.CountNaN(vec); displayed > colorable {
		displayed = colorable
	}
	cells := arrange.Place(opt.GridW, opt.GridH, displayed)
	out := make([]*render.Window, 0, len(parts))
	for i, p := range parts {
		pnode, err := r.nodeFor(p)
		if err != nil {
			return nil, err
		}
		pvec := r.Eval.Vec(pnode)
		w := render.NewWindow(p.Label(), opt.GridW, opt.GridH, arrange.BlockSide(opt.PixelsPerItem))
		if i == 0 {
			w.Title = "overall " + e.Label() + " (independent)"
		}
		for rank := 0; rank < displayed; rank++ {
			w.SetCell(cells[rank], r.colorFor(pvec[order[rank]]))
		}
		out = append(out, w)
	}
	return out, nil
}
