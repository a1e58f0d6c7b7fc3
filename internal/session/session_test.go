package session

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/arrange"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/render"
)

func testCatalog(t *testing.T) *dataset.Catalog {
	t.Helper()
	cat := dataset.NewCatalog()
	tbl, err := dataset.NewTable("T", dataset.Schema{
		{Name: "x", Kind: dataset.KindFloat},
		{Name: "y", Kind: dataset.KindFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := tbl.AppendRow(dataset.Float(float64(i)), dataset.Float(float64(19-i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	return cat
}

func newSession(t *testing.T) *Session {
	t.Helper()
	s, err := NewSQL(testCatalog(t), nil, core.Options{GridW: 8, GridH: 8},
		`SELECT x FROM T WHERE x > 15 AND y > 10`)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewRunsOnce(t *testing.T) {
	s := newSession(t)
	if s.Recalcs != 1 || s.Dirty() {
		t.Fatalf("recalcs=%d dirty=%v", s.Recalcs, s.Dirty())
	}
	if s.Result() == nil || s.Result().N != 20 {
		t.Fatal("initial result")
	}
}

func TestSliderChangesResults(t *testing.T) {
	s := newSession(t)
	before := s.Result().Stats().NumResults // x>15 AND y>10 → impossible (x>15 → y<4)
	if before != 0 {
		t.Fatalf("before: %d", before)
	}
	c, err := s.FindCond("x")
	if err != nil {
		t.Fatal(err)
	}
	// Widen x to >= 5: rows 5..8 satisfy both (y=14..11 > 10).
	if err := s.SetRange(c, 5, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	after := s.Result().Stats().NumResults
	if after != 4 {
		t.Fatalf("after widening: %d, want 4", after)
	}
	if s.Recalcs != 2 {
		t.Fatalf("auto recalc should have run: %d", s.Recalcs)
	}
}

func TestSetRangeForms(t *testing.T) {
	s := newSession(t)
	c, _ := s.FindCond("x")
	if err := s.SetRange(c, 2, 5); err != nil {
		t.Fatal(err)
	}
	if c.Op != query.OpBetween || c.Lo.F != 2 || c.Hi.F != 5 {
		t.Fatalf("between form: %+v", c)
	}
	if err := s.SetRange(c, math.Inf(-1), 7); err != nil {
		t.Fatal(err)
	}
	if c.Op != query.OpLe || c.Value.F != 7 {
		t.Fatalf("<= form: %+v", c)
	}
	if err := s.SetRange(c, 3, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if c.Op != query.OpGe || c.Value.F != 3 {
		t.Fatalf(">= form: %+v", c)
	}
	if err := s.SetRange(c, 5, 2); err == nil {
		t.Error("reversed range should fail")
	}
	if err := s.SetRange(c, math.Inf(-1), math.Inf(1)); err == nil {
		t.Error("doubly-open range should fail")
	}
	if err := s.SetRange(c, math.NaN(), 1); err == nil {
		t.Error("NaN should fail")
	}
}

func TestAutoRecalcOff(t *testing.T) {
	s := newSession(t)
	if err := s.SetAutoRecalc(false); err != nil {
		t.Fatal(err)
	}
	c, _ := s.FindCond("x")
	if err := s.SetRange(c, 0, 10); err != nil {
		t.Fatal(err)
	}
	if !s.Dirty() {
		t.Fatal("should be dirty")
	}
	if s.Recalcs != 1 {
		t.Fatalf("no recalc should have happened: %d", s.Recalcs)
	}
	if !strings.Contains(s.PanelText(), "stale") {
		t.Error("panel should flag staleness")
	}
	// Turning auto back on flushes the pending recalculation.
	if err := s.SetAutoRecalc(true); err != nil {
		t.Fatal(err)
	}
	if s.Dirty() || s.Recalcs != 2 {
		t.Fatalf("dirty=%v recalcs=%d", s.Dirty(), s.Recalcs)
	}
}

func TestSetWeight(t *testing.T) {
	s := newSession(t)
	preds := query.Predicates(s.Query().Where)
	if err := s.SetWeight(preds[0], 3); err != nil {
		t.Fatal(err)
	}
	if preds[0].Weight() != 3 {
		t.Fatal("weight not applied")
	}
	if err := s.SetWeight(preds[0], -1); err == nil {
		t.Error("negative weight should fail")
	}
	if err := s.SetWeight(preds[0], math.NaN()); err == nil {
		t.Error("NaN weight should fail")
	}
}

func TestSetMedianDeviation(t *testing.T) {
	s := newSession(t)
	c, _ := s.FindCond("x")
	if err := s.SetMedianDeviation(c, 10, 3); err != nil {
		t.Fatal(err)
	}
	if c.Op != query.OpBetween || c.Lo.F != 7 || c.Hi.F != 13 {
		t.Fatalf("median±dev form: %+v", c)
	}
	if err := s.SetMedianDeviation(c, 5, -1); err == nil {
		t.Error("negative deviation should fail")
	}
	if err := s.SetMedianDeviation(c, math.NaN(), 1); err == nil {
		t.Error("NaN median should fail")
	}
	if !s.AutoRecalc() {
		t.Error("AutoRecalc accessor")
	}
}

func TestSetRangeOnTimeAttribute(t *testing.T) {
	cat := dataset.NewCatalog()
	tbl, _ := dataset.NewTable("TS", dataset.Schema{
		{Name: "ts", Kind: dataset.KindTime},
	})
	base := time.Date(1994, 5, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		_ = tbl.AppendRow(dataset.Time(base.Add(time.Duration(i) * time.Hour)))
	}
	_ = cat.AddTable(tbl)
	s, err := NewSQL(cat, nil, core.Options{GridW: 4, GridH: 4},
		`SELECT ts FROM TS WHERE ts > '1994-05-01T05:00:00Z'`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.FindCond("ts")
	if err != nil {
		t.Fatal(err)
	}
	// Slider moves express time in Unix seconds; the session converts
	// to time literals so the binder keeps accepting the query.
	lo := float64(base.Add(2 * time.Hour).Unix())
	hi := float64(base.Add(6 * time.Hour).Unix())
	if err := s.SetRange(c, lo, hi); err != nil {
		t.Fatal(err)
	}
	if got := s.Result().Stats().NumResults; got != 5 { // hours 2..6
		t.Fatalf("time slider results: %d", got)
	}
	if c.Lo.Kind != dataset.KindTime {
		t.Fatalf("literal kind: %v", c.Lo.Kind)
	}
}

func TestSetPercentDisplayed(t *testing.T) {
	s := newSession(t)
	if err := s.SetPercentDisplayed(0.25); err != nil {
		t.Fatal(err)
	}
	if got := s.Result().Displayed; got != 5 {
		t.Fatalf("displayed: %d, want 5", got)
	}
	if err := s.SetPercentDisplayed(1.5); err == nil {
		t.Error("pct > 1 should fail")
	}
}

func TestSelectionAndHighlight(t *testing.T) {
	s := newSession(t)
	res := s.Result()
	item := res.TopK(1)[0]
	if err := s.SelectItem(item); err != nil {
		t.Fatal(err)
	}
	tup, ok := s.SelectedTuple()
	if !ok || len(tup.Rows) != 1 {
		t.Fatal("selected tuple")
	}
	// Highlight appears in every window at the item's cell.
	cell, _ := res.CellOfItem(item)
	ws, err := s.Windows()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		im := w.Image()
		px := im.At(cell.X*w.Block, cell.Y*w.Block)
		if px.R != 255 || px.G != 255 || px.B != 255 {
			t.Fatalf("window %q: cell not highlighted", w.Title)
		}
	}
	// Select by cell round trip.
	s.ClearSelection()
	if s.SelectedItem() != -1 {
		t.Fatal("clear selection")
	}
	s.Select(cell)
	if s.SelectedItem() != item {
		t.Fatalf("select by cell: %d vs %d", s.SelectedItem(), item)
	}
	// Selecting an empty cell clears.
	s.Select(arrange.Point{X: 9999, Y: 9999})
	if s.SelectedItem() != -1 {
		t.Fatal("empty cell should clear selection")
	}
	if err := s.SelectItem(-5); err == nil {
		t.Error("bad item should fail")
	}
	if _, ok := s.SelectedTuple(); ok {
		t.Error("no selection should report !ok")
	}
}

func TestColorProjection(t *testing.T) {
	s := newSession(t)
	preds := query.Predicates(s.Query().Where)
	if err := s.ProjectColorRange(preds[0], 0, 0); err != nil {
		t.Fatal(err)
	}
	wsProj, err := s.Windows()
	if err != nil {
		t.Fatal(err)
	}
	s.ClearProjection()
	wsAll, err := s.Windows()
	if err != nil {
		t.Fatal(err)
	}
	// Projection must show at most as many cells as the full view, and
	// more than zero (the yellow items survive).
	nProj := litCells(wsProj)
	nAll := litCells(wsAll)
	if nProj > nAll {
		t.Fatalf("projection enlarged display: %d > %d", nProj, nAll)
	}
	if nProj == 0 {
		t.Fatal("projection should keep the yellow items")
	}
	// Unknown expression errors.
	if err := s.ProjectColorRange(&query.Cond{Attr: "zz"}, 0, 0); err == nil {
		t.Error("unknown expr should fail")
	}
	// Nil expression projects on the overall result; the full band
	// keeps every displayed item.
	if err := s.ProjectColorRange(nil, 0, 255); err != nil {
		t.Fatalf("overall projection: %v", err)
	}
	wsOverall, err := s.Windows()
	if err != nil {
		t.Fatal(err)
	}
	if litCells(wsOverall) != nAll {
		t.Fatalf("full-band overall projection should keep everything: %d vs %d", litCells(wsOverall), nAll)
	}
}

// litCells counts explicitly set cells across windows.
func litCells(ws []*render.Window) int {
	n := 0
	for _, w := range ws {
		for y := 0; y < w.GridH; y++ {
			for x := 0; x < w.GridW; x++ {
				if _, ok := w.CellAt(arrange.Point{X: x, Y: y}); ok {
					n++
				}
			}
		}
	}
	return n
}

func TestDrillDown(t *testing.T) {
	s, err := NewSQL(testCatalog(t), nil, core.Options{GridW: 8, GridH: 8},
		`SELECT x FROM T WHERE (x > 15 OR y > 15) AND x < 19`)
	if err != nil {
		t.Fatal(err)
	}
	orPart := s.Query().Where.(*query.BoolExpr).Children[0]
	ws, err := s.DrillDown(orPart, false)
	if err != nil {
		t.Fatal(err)
	}
	// Overall-OR + 2 predicate windows.
	if len(ws) != 3 {
		t.Fatalf("drill-down windows: %d", len(ws))
	}
	if !strings.Contains(ws[0].Title, "overall") {
		t.Fatalf("first title: %s", ws[0].Title)
	}
	indep, err := s.DrillDown(orPart, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(indep) != 3 || !strings.Contains(indep[0].Title, "independent") {
		t.Fatalf("independent drill-down: %d windows", len(indep))
	}
}

func TestPanelText(t *testing.T) {
	s := newSession(t)
	txt := s.PanelText()
	for _, want := range []string{"# objects    20", "# displayed", "% displayed", "# of results", "query range"} {
		if !strings.Contains(txt, want) {
			t.Errorf("panel missing %q:\n%s", want, txt)
		}
	}
	item := s.Result().TopK(1)[0]
	_ = s.SelectItem(item)
	if !strings.Contains(s.PanelText(), "selected tuple") {
		t.Error("panel should show the selected tuple")
	}
}

func TestImageComposition(t *testing.T) {
	s := newSession(t)
	im, err := s.Image(2)
	if err != nil {
		t.Fatal(err)
	}
	if im.W == 0 || im.H == 0 {
		t.Fatal("empty session image")
	}
}

func TestFindCondErrors(t *testing.T) {
	s := newSession(t)
	if _, err := s.FindCond("nope"); err == nil {
		t.Error("unknown attribute should fail")
	}
	c, err := s.FindCond("y")
	if err != nil || c.Attr != "y" {
		t.Fatalf("FindCond(y): %+v %v", c, err)
	}
}

// TestRangeOpAddressesTheQualifiedAttribute: a range op names a
// condition the way a 2D arrangement names an axis — "x" or "T.x" — and
// both mean the first condition on the attribute in query order.
func TestRangeOpAddressesTheQualifiedAttribute(t *testing.T) {
	s, err := NewSQL(testCatalog(t), nil, core.Options{GridW: 8, GridH: 8},
		`SELECT x FROM T WHERE y > 10 AND x > 15 AND x < 18`)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetRangeByAttr("T.x", 3, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range query.Predicates(s.Query().Where) {
		got = append(got, p.Label())
	}
	if want := "y > 10, x >= 3, x < 18"; strings.Join(got, ", ") != want {
		t.Fatalf("after the range op: %q, want %q", got, want)
	}
	for _, attr := range []string{"x", "T.x"} {
		if c, err := s.FindCond(attr); err != nil || c.Label() != "x >= 3" {
			t.Fatalf("FindCond(%q): %v, %v", attr, c, err)
		}
	}
	// The axis "T.x" is the condition the range op moved: items sit where
	// the axis "x" puts them.
	place := func(axis string) *core.Result {
		opt := core.Options{GridW: 8, GridH: 8, Arrangement: core.Arrange2D, AxisX: axis, AxisY: "y"}
		s2, err := New(testCatalog(t), nil, opt, s.Query())
		if err != nil {
			t.Fatal(err)
		}
		return s2.Result()
	}
	byName, byQualified := place("x"), place("T.x")
	for rank := 0; rank < byName.Displayed; rank++ {
		if byName.CellOfRank(rank) != byQualified.CellOfRank(rank) {
			t.Fatalf("rank %d: axis x places it at %v, axis T.x at %v", rank, byName.CellOfRank(rank), byQualified.CellOfRank(rank))
		}
	}
}

func TestNewSQLParseError(t *testing.T) {
	if _, err := NewSQL(testCatalog(t), nil, core.Options{}, `garbage`); err == nil {
		t.Error("parse error should propagate")
	}
}
