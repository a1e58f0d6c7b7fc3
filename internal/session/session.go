// Package session implements the interactive layer of VisDB
// (section 4.3 of the paper): dynamic query modification through
// sliders and direct range edits, weighting-factor changes,
// percentage-displayed control, tuple selection with cross-window
// highlighting, color-range projection, the auto-recalculate toggle,
// and the figure-5 drill-down into arbitrary query parts. The original
// system drove these from mouse events; here they are methods on a
// deterministic state machine, so every interaction is scriptable and
// testable.
package session

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/arrange"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/query"
	"repro/internal/render"
)

// Session holds one interactive exploration of a query. A Session
// models a single user's interface state and is not safe for concurrent
// use; run one goroutine per session.
type Session struct {
	cat *dataset.Catalog
	reg *distance.Registry
	opt core.Options
	q   *query.Query
	res *core.Result
	// cache is the session's side of the predicate cache of the
	// incremental feedback loop: it pins the leaf distance vectors the
	// current picture reads (keyed structurally, weights excluded) and
	// pools the evaluation buffers, so a weight-only rerun recomputes
	// nothing below the combination stage and a slider drag recomputes
	// at most one leaf. The vectors live in a tier bounded by entries
	// and bytes — the catalog's when the session was opened with
	// NewShared, so leaves other sessions already computed are never
	// recomputed here, else the session's own — and no edit invalidates
	// there: the range an edit leaves stays until it ages out, so an
	// undo or a return to an earlier range recomputes nothing either.
	cache *core.RunCache
	// bind is the cached query binding: resolved once per query AST and
	// reused across recalculations (the engine treats bindings as
	// read-only). SetQuery and Undo install a new AST, which
	// invalidates it by identity.
	bind *query.Binding

	autoRecalc bool
	dirty      bool
	// Recalcs counts engine runs, for the incremental-cost experiments
	// and the auto-recalculate-off tests.
	Recalcs int

	selectedItem int // -1 when nothing selected
	projExpr     query.Expr
	projLo       int
	projHi       int
	hasProj      bool

	// history holds serialized query snapshots for Undo; the paper's
	// interface lets the user return to earlier query states via the
	// query specification process.
	history []string

	// runCtx, when non-nil, bounds every engine run started by this
	// session: a recalculation observes the context's deadline or
	// cancellation between evaluation chunks and aborts with an error
	// wrapping context.DeadlineExceeded / context.Canceled. The serving
	// layer installs a fresh per-request context before each operation.
	runCtx context.Context
}

// New starts a session on a parsed query and runs it once.
func New(cat *dataset.Catalog, reg *distance.Registry, opt core.Options, q *query.Query) (*Session, error) {
	return NewShared(cat, reg, opt, q, nil)
}

// NewShared starts a session whose predicate cache is backed by a
// catalog-level shared tier: leaf distance vectors (and their quantile
// indexes) any session on the same SharedCache already computed are
// served instead of recomputed, and leaves computed here become
// available to every other session. Sessions themselves stay
// single-goroutine; any number of them may run concurrently against
// one shared cache. All sessions on one SharedCache must use the same
// catalog and distance registry. A nil shared is identical to New.
func NewShared(cat *dataset.Catalog, reg *distance.Registry, opt core.Options, q *query.Query, shared *core.SharedCache) (*Session, error) {
	return NewSharedCtx(nil, cat, reg, opt, q, shared)
}

// NewSharedCtx is NewShared with the initial recalculation bounded by
// ctx (see SetRunContext); the bound does not outlive construction.
func NewSharedCtx(ctx context.Context, cat *dataset.Catalog, reg *distance.Registry, opt core.Options, q *query.Query, shared *core.SharedCache) (*Session, error) {
	cache := core.NewRunCache()
	if shared != nil {
		cache.AttachShared(shared)
	}
	s := &Session{cat: cat, reg: reg, opt: opt, q: q, autoRecalc: true, selectedItem: -1,
		cache: cache, runCtx: ctx}
	if err := s.Recalculate(); err != nil {
		return nil, err
	}
	s.runCtx = nil
	return s, nil
}

// NewSQL starts a session from dialect text.
func NewSQL(cat *dataset.Catalog, reg *distance.Registry, opt core.Options, src string) (*Session, error) {
	return NewSQLSharedCtx(nil, cat, reg, opt, src, nil)
}

// NewSQLSharedCtx starts a session from dialect text over shared (see
// NewShared), with the initial recalculation bounded by ctx (see
// SetRunContext); the bound does not outlive construction.
func NewSQLSharedCtx(ctx context.Context, cat *dataset.Catalog, reg *distance.Registry, opt core.Options, src string, shared *core.SharedCache) (*Session, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	return NewSharedCtx(ctx, cat, reg, opt, q, shared)
}

// Result returns the current result. When auto-recalculate is off and
// modifications are pending, the result is stale (Dirty reports true).
// The result's evaluation vectors live in the session's pooled buffers:
// they are valid until the next recalculation, which recycles them.
// Hold on to Run output from a standalone Engine instead if a result
// must outlive the interaction loop.
func (s *Session) Result() *core.Result { return s.res }

// Query returns the live query AST (mutated by the modification
// methods).
func (s *Session) Query() *query.Query { return s.q }

// Dirty reports whether modifications await recalculation.
func (s *Session) Dirty() bool { return s.dirty }

// AutoRecalc reports the auto-recalculate mode.
func (s *Session) AutoRecalc() bool { return s.autoRecalc }

// SetAutoRecalc toggles the "auto recalculate off" option the paper
// offers "for large databases or if complex distance functions are
// used". Turning it back on triggers a pending recalculation.
func (s *Session) SetAutoRecalc(on bool) error {
	s.autoRecalc = on
	if on && s.dirty {
		return s.Recalculate()
	}
	return nil
}

// SetRunContext bounds subsequent engine runs by ctx: a recalculation
// polls the context between evaluation chunks and aborts once it is
// done. A nil ctx (the default) removes the bound. Cancellation is
// safe: the session keeps serving its previous result, pooled buffers
// are reclaimed, and leaf vectors already computed stay cached, so a
// retry of the same operation resumes instead of starting over.
func (s *Session) SetRunContext(ctx context.Context) { s.runCtx = ctx }

// Recalculate re-runs the query through the engine. Reruns are
// incremental: leaf distance vectors unchanged since the previous run
// come from the session cache, evaluation buffers are pooled, and the
// query binding is resolved once per query AST and reused — range and
// weight modifications mutate the AST in place, which leaves the
// binding (keyed by condition identity) intact, while SetQuery and
// Undo parse a fresh AST and therefore rebind.
func (s *Session) Recalculate() error {
	e := core.New(s.cat, s.reg, s.opt)
	if s.bind == nil || s.bind.Query != s.q {
		b, err := query.Bind(s.q, s.cat)
		if err != nil {
			return err
		}
		s.bind = b
	}
	res, err := e.RunCtx(s.runCtx, s.q, s.bind, s.cache)
	if err != nil {
		return err
	}
	s.res = res
	s.dirty = false
	s.Recalcs++
	// A recomputation invalidates the tuple selection if the item is no
	// longer displayed.
	if s.selectedItem >= 0 {
		if _, ok := res.CellOfItem(s.selectedItem); !ok {
			s.selectedItem = -1
		}
	}
	return nil
}

// maybeRecalc recomputes if auto mode is on; otherwise marks the
// session dirty.
func (s *Session) maybeRecalc() error {
	if s.autoRecalc {
		return s.Recalculate()
	}
	s.dirty = true
	return nil
}

// snapshot records the current query state for Undo. Modification
// methods call it before mutating.
func (s *Session) snapshot() {
	s.history = append(s.history, s.q.String())
	// Bound the history so pathological slider storms stay cheap.
	const maxHistory = 256
	if len(s.history) > maxHistory {
		s.history = s.history[len(s.history)-maxHistory:]
	}
}

// popSnapshot discards the most recent Undo snapshot. Modification
// methods call it when the recalculation their mutation triggered
// fails and the mutation is rolled back: the aborted edit must not
// become an Undo step.
func (s *Session) popSnapshot() {
	if len(s.history) > 0 {
		s.history = s.history[:len(s.history)-1]
	}
}

// CanUndo reports whether an earlier query state exists.
func (s *Session) CanUndo() bool { return len(s.history) > 0 }

// Undo restores the most recent query snapshot (reverting the last
// range, weight or structural modification) and recomputes. The query
// AST is rebuilt, so condition pointers obtained earlier via FindCond
// become stale; projections and selections are cleared. Nothing was
// invalidated when the reverted edit was made, so the leaves of the
// restored query are normally still in the tier and an undo costs what
// a weight change costs.
func (s *Session) Undo() error {
	if len(s.history) == 0 {
		return fmt.Errorf("session: nothing to undo")
	}
	src := s.history[len(s.history)-1]
	s.history = s.history[:len(s.history)-1]
	q, err := query.Parse(src)
	if err != nil {
		return fmt.Errorf("session: corrupt history entry: %w", err)
	}
	oldQ := s.q
	oldSel := s.selectedItem
	oldProjExpr, oldProjLo, oldProjHi, oldProj := s.projExpr, s.projLo, s.projHi, s.hasProj
	s.q = q
	s.ClearProjection()
	s.ClearSelection()
	if err := s.Recalculate(); err != nil {
		// Failed undo: put the popped snapshot back and reinstate the
		// query it would have reverted, so the session is exactly as
		// before the call and the undo can be retried.
		s.q = oldQ
		s.projExpr, s.projLo, s.projHi, s.hasProj = oldProjExpr, oldProjLo, oldProjHi, oldProj
		s.selectedItem = oldSel
		s.history = append(s.history, src)
		return err
	}
	return nil
}

// SetQuery replaces the whole query (the "switch back to the query
// specification process" menu option, section 4.3), keeping the old
// state undoable. Projections and selections are cleared, since they
// reference the old query's parts.
func (s *Session) SetQuery(src string) error {
	q, err := query.Parse(src)
	if err != nil {
		return err
	}
	oldQ := s.q
	oldSel := s.selectedItem
	oldProjExpr, oldProjLo, oldProjHi, oldProj := s.projExpr, s.projLo, s.projHi, s.hasProj
	s.snapshot()
	s.q = q
	s.ClearProjection()
	s.ClearSelection()
	if err := s.maybeRecalc(); err != nil {
		// Failed (for example timed-out) recalculation: reinstate the
		// previous AST — its binding revalidates by identity — along with
		// the projection and selection that referenced it, and drop the
		// snapshot so the aborted edit is not undoable. The session keeps
		// serving its previous result.
		s.q = oldQ
		s.projExpr, s.projLo, s.projHi, s.hasProj = oldProjExpr, oldProjLo, oldProjHi, oldProj
		s.selectedItem = oldSel
		s.popSnapshot()
		return err
	}
	return nil
}

// FindCond locates a top-level (or nested) condition whose attribute
// matches name — a convenience for slider interactions addressed by
// attribute.
func (s *Session) FindCond(attr string) (*query.Cond, error) {
	var found *query.Cond
	query.Walk(s.q.Where, func(e query.Expr) {
		if c, ok := e.(*query.Cond); ok && found == nil {
			if c.Attr == attr || strings.HasSuffix(c.Attr, "."+attr) {
				found = c
			}
		}
	})
	if found == nil {
		return nil, fmt.Errorf("session: no condition on attribute %q", attr)
	}
	return found, nil
}

// SetRange moves a condition's query range (the slider drag or direct
// edit of the 'query' field). Open sides use ±Inf: the condition
// becomes >=, <= or BETWEEN accordingly. For time-typed attributes the
// bounds are interpreted as Unix seconds, so time sliders use the same
// numeric interface. A drag to the range the condition already
// expresses is a no-op: nothing is snapshotted, no recalculation runs.
// The range being left is not invalidated anywhere — it ages out of the
// tier's cold end like the intermediate positions of a continuous drag
// do — so coming back to it is a hit. The carried selection threshold
// is keyed by the leaves a run read, so the run over the moved leaf
// starts without one and nothing is reset by hand.
func (s *Session) SetRange(c *query.Cond, lo, hi float64) error {
	if err := s.checkPart(c); err != nil {
		return err
	}
	if math.IsNaN(lo) || math.IsNaN(hi) || lo > hi {
		return fmt.Errorf("session: invalid range [%v, %v]", lo, hi)
	}
	if math.IsInf(lo, -1) && math.IsInf(hi, 1) {
		return fmt.Errorf("session: range cannot be open on both sides")
	}
	lit := dataset.Float
	if s.res != nil {
		if attr, ok := s.res.Binding.Attrs[c]; ok {
			// Numeric ranges only: rebinding used to catch a numeric
			// literal landing on a string condition, but the binding is
			// now resolved once per query, so the kind check lives here.
			if attr.Kind.IsStringy() || attr.Kind == dataset.KindBool {
				return fmt.Errorf("session: range slider needs a numeric or time attribute, %s is %v", attr.Qualified(), attr.Kind)
			}
			if attr.Kind == dataset.KindTime {
				lit = func(v float64) dataset.Value {
					return dataset.Time(time.Unix(int64(v), 0).UTC())
				}
			}
		}
	}
	// Build the target form first, so the no-op check compares the
	// exact literals that would be installed.
	newOp := query.OpBetween
	var v, newLo, newHi dataset.Value
	switch {
	case math.IsInf(hi, 1):
		newOp, v = query.OpGe, lit(lo)
	case math.IsInf(lo, -1):
		newOp, v = query.OpLe, lit(hi)
	default:
		newLo, newHi = lit(lo), lit(hi)
	}
	if c.Op == newOp {
		same := false
		if newOp == query.OpBetween {
			same = sameValue(c.Lo, newLo) && sameValue(c.Hi, newHi)
		} else {
			same = sameValue(c.Value, v)
		}
		if same {
			return nil
		}
	}
	s.snapshot()
	oldOp, oldLo, oldHi, oldV := c.Op, c.Lo, c.Hi, c.Value
	c.Op = newOp
	if newOp == query.OpBetween {
		c.Lo, c.Hi = newLo, newHi
	} else {
		c.Value = v
	}
	if err := s.maybeRecalc(); err != nil {
		// Failed recalculation: restore the condition in place (callers'
		// AST pointers stay valid) and drop the snapshot. Leaf vectors
		// the aborted run did finish are in the tier under the new
		// range's key, so retrying the same drag resumes rather than
		// restarts.
		c.Op, c.Lo, c.Hi, c.Value = oldOp, oldLo, oldHi, oldV
		s.popSnapshot()
		return err
	}
	return nil
}

// checkPart refuses a query part that is not a node of the live query
// — nil, a nil pointer, or a part SetQuery or Undo replaced — before
// anything dereferences it.
func (s *Session) checkPart(e query.Expr) error {
	found := false
	query.Walk(s.q.Where, func(x query.Expr) { found = found || x == e })
	if !found {
		return fmt.Errorf("session: the query part is not in the current query")
	}
	return nil
}

// SetRangeByAttr finds the first condition on the named attribute and
// moves its range — the remote-protocol form of the slider drag, where
// a condition is addressed by attribute name instead of AST pointer
// (pointers do not travel over a wire, and they go stale across
// SetQuery/Undo anyway).
func (s *Session) SetRangeByAttr(attr string, lo, hi float64) error {
	c, err := s.FindCond(attr)
	if err != nil {
		return err
	}
	return s.SetRange(c, lo, hi)
}

// sameValue reports whether two literals are interchangeable in a
// condition: equal kind and equal numeric value (floats, ints, times,
// bools coerce through AsFloat) or equal string payload.
func sameValue(a, b dataset.Value) bool {
	if a.Kind != b.Kind || a.Null != b.Null {
		return false
	}
	if af, ok := a.AsFloat(); ok {
		bf, ok := b.AsFloat()
		return ok && af == bf
	}
	return a.S == b.S
}

// SetMedianDeviation moves a condition's range via the median-and-
// deviation slider of figure 4 ("a different type of slider where the
// medium value and some allowed deviation can be manipulated
// graphically"): the range becomes [median−dev, median+dev].
func (s *Session) SetMedianDeviation(c *query.Cond, median, dev float64) error {
	if dev < 0 || math.IsNaN(median) || math.IsNaN(dev) {
		return fmt.Errorf("session: invalid median/deviation %v ± %v", median, dev)
	}
	return s.SetRange(c, median-dev, median+dev)
}

// SetWeight updates a query part's weighting factor (section 5.2).
// Setting the weight the part already has (an unset weight reads as 1)
// is a no-op: no snapshot, no recalculation.
func (s *Session) SetWeight(e query.Expr, w float64) error {
	if err := s.checkPart(e); err != nil {
		return err
	}
	if w < 0 || math.IsNaN(w) {
		return fmt.Errorf("session: invalid weight %v", w)
	}
	if e.Weight() == w {
		return nil
	}
	old := e.Weight()
	s.snapshot()
	e.SetWeight(w)
	if err := s.maybeRecalc(); err != nil {
		e.SetWeight(old)
		s.popSnapshot()
		return err
	}
	return nil
}

// SetPercentDisplayed fixes the displayed fraction (the overall-result
// slider of figure 5). Note the paper's warning: "changing the
// percentage of data being displayed may completely change the
// visualization since the distance values are normalized according to
// the new range".
func (s *Session) SetPercentDisplayed(pct float64) error {
	if pct < 0 || pct > 1 || math.IsNaN(pct) {
		return fmt.Errorf("session: invalid percentage %v", pct)
	}
	old := s.opt.PercentDisplayed
	s.opt.PercentDisplayed = pct
	if err := s.maybeRecalc(); err != nil {
		s.opt.PercentDisplayed = old
		return err
	}
	return nil
}

// Select marks the data item at a window cell as the selected tuple; it
// is highlighted in all windows and its attribute values become
// available via SelectedTuple. Selecting an empty cell clears the
// selection.
func (s *Session) Select(cell arrange.Point) {
	if item, ok := s.res.ItemAt(cell); ok {
		s.selectedItem = item
	} else {
		s.selectedItem = -1
	}
}

// SelectItem selects a data item directly by index.
func (s *Session) SelectItem(item int) error {
	if item < 0 || item >= s.res.N {
		return fmt.Errorf("session: item %d out of range", item)
	}
	s.selectedItem = item
	return nil
}

// ClearSelection drops the tuple selection.
func (s *Session) ClearSelection() { s.selectedItem = -1 }

// SelectedItem returns the selected item index, or -1.
func (s *Session) SelectedItem() int { return s.selectedItem }

// SelectedTuple returns the attribute values of the selected tuple.
func (s *Session) SelectedTuple() (core.SelectedTuple, bool) {
	if s.selectedItem < 0 {
		return core.SelectedTuple{}, false
	}
	tup, err := s.res.Tuple(s.selectedItem)
	if err != nil {
		return core.SelectedTuple{}, false
	}
	return tup, true
}

// ProjectColorRange restricts the display to items whose color for the
// given query part lies within [loLevel, hiLevel] — "to focus on sets
// of data items with a specific color ... in the other visualizations
// the same data items are displayed" (section 4.3). A nil expression
// projects on the overall result's colors.
func (s *Session) ProjectColorRange(e query.Expr, loLevel, hiLevel int) error {
	if _, err := s.res.ItemsInColorRange(e, loLevel, hiLevel); err != nil {
		return err
	}
	s.projExpr, s.projLo, s.projHi, s.hasProj = e, loLevel, hiLevel, true
	return nil
}

// ClearProjection removes the color-range projection.
func (s *Session) ClearProjection() { s.hasProj = false }

// Windows renders the current windows with the projection filter and
// selection highlight applied.
func (s *Session) Windows() ([]*render.Window, error) {
	parts := append([]query.Expr{nil}, query.Predicates(s.q.Where)...)
	var keep map[int]bool
	if s.hasProj {
		items, err := s.res.ItemsInColorRange(s.projExpr, s.projLo, s.projHi)
		if err != nil {
			return nil, err
		}
		keep = make(map[int]bool, len(items))
		for _, it := range items {
			keep[it] = true
		}
	}
	out := make([]*render.Window, 0, len(parts))
	for _, p := range parts {
		w, err := s.buildWindow(p, keep)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

// buildWindow renders one window (p == nil means the overall result)
// honoring projection and highlighting.
func (s *Session) buildWindow(p query.Expr, keep map[int]bool) (*render.Window, error) {
	opt := s.res.Engine.Options()
	title := "overall result"
	if p != nil {
		title = p.Label()
	}
	w := render.NewWindow(title, opt.GridW, opt.GridH, arrange.BlockSide(opt.PixelsPerItem))
	for rank := 0; rank < s.res.Displayed; rank++ {
		item := s.res.Order[rank]
		if keep != nil && !keep[item] {
			continue
		}
		cell := s.res.CellOfRank(rank)
		if cell == arrange.Unplaced {
			continue
		}
		var norm float64
		if p == nil {
			// The overall window's distances come straight from the
			// ranked prefix — the rank-before-scale path never needs the
			// full combined vector for display.
			norm = s.res.DistanceOfRank(rank)
		} else {
			var err error
			norm, err = s.res.NormOf(p, item)
			if err != nil {
				return nil, err
			}
		}
		w.SetCell(cell, s.res.ColorFor(norm))
	}
	if s.selectedItem >= 0 {
		if cell, ok := s.res.CellOfItem(s.selectedItem); ok {
			w.Highlight(cell)
		}
	}
	return w, nil
}

// Image composes the current windows plus the query-modification
// sliders into one picture — the full figure-4 layout.
func (s *Session) Image(cols int) (*render.Image, error) {
	ws, err := s.Windows()
	if err != nil {
		return nil, err
	}
	vis := render.Compose(ws, cols, 6)
	sliders := render.Sliders(s.res.SliderSpecs(), 140, 10)
	return render.SideBySide(vis, sliders, 10), nil
}

// DrillDown opens the figure-5 interaction: windows for a sub-part of
// the query, either keeping the overall arrangement or re-arranged
// independently.
func (s *Session) DrillDown(e query.Expr, independent bool) ([]*render.Window, error) {
	if err := s.checkPart(e); err != nil {
		return nil, err
	}
	return s.res.DrillDownWindows(e, independent)
}

// PanelText renders the stats panel of figures 4/5 as text: overall
// counts plus the per-predicate slider fields.
func (s *Session) PanelText() string {
	var b strings.Builder
	st := s.res.Stats()
	fmt.Fprintf(&b, "# objects    %d\n", st.NumObjects)
	fmt.Fprintf(&b, "# displayed  %d\n", st.NumDisplayed)
	fmt.Fprintf(&b, "%% displayed  %.1f\n", st.PctDisplayed*100)
	fmt.Fprintf(&b, "# of results %d\n", st.NumResults)
	if s.dirty {
		b.WriteString("(stale: auto recalculate off)\n")
	}
	for _, info := range s.res.PredicateInfos() {
		fmt.Fprintf(&b, "\n[%s]  weight %.3g  results %d\n", info.Label, info.Weight, info.NumResults)
		if info.Numeric {
			fmt.Fprintf(&b, "  db range    %.4g .. %.4g\n", info.MinDB, info.MaxDB)
			fmt.Fprintf(&b, "  displayed   %.4g .. %.4g\n", info.FirstDisplayed, info.LastDisplayed)
			fmt.Fprintf(&b, "  query range %.4g .. %.4g\n", info.QueryLo, info.QueryHi)
		}
	}
	if tup, ok := s.SelectedTuple(); ok {
		b.WriteString("\nselected tuple:\n")
		for i, tbl := range tup.Tables {
			fmt.Fprintf(&b, "  %s: ", tbl)
			for j, v := range tup.Rows[i] {
				if j > 0 {
					b.WriteString(", ")
				}
				b.WriteString(v.String())
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
