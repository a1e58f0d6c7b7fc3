package core

import (
	"math"
	"testing"

	"repro/internal/arrange"
	"repro/internal/colormap"
	"repro/internal/query"
	"repro/internal/relevance"
)

func TestEngineAccessors(t *testing.T) {
	cat := smallCatalog(t)
	e := New(cat, nil, Options{GridW: 8, GridH: 8})
	if e.Catalog() != cat {
		t.Error("Catalog accessor")
	}
	if e.Options().GridW != 8 {
		t.Error("Options accessor")
	}
}

func TestBooleanNegationOnStringOps(t *testing.T) {
	e := New(smallCatalog(t), nil, Options{GridW: 8, GridH: 8})
	// String comparisons under NOT exercise the boolean-evaluation path
	// for every operator (ordered string ops are not invertible for
	// ordinal matrices only; plain strings invert, so force boolean
	// evaluation with IN/BETWEEN forms too).
	cases := []struct {
		sql  string
		want int // exact results
	}{
		// NOT (name BETWEEN 'b' AND 'e') → boolean path: only beta and
		// delta fall lexicographically inside ('epsilon' > 'e').
		{`SELECT x FROM T WHERE NOT (name BETWEEN 'b' AND 'e')`, 8},
		// NOT (name IN (...)) → boolean path.
		{`SELECT x FROM T WHERE NOT (name IN ('alpha', 'beta'))`, 8},
		// NOT (level = 'mid') on an ordinal column.
		{`SELECT x FROM T WHERE NOT (level = 'mid')`, 7},
	}
	for _, tc := range cases {
		res, err := e.RunSQL(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if got := res.Stats().NumResults; got != tc.want {
			t.Errorf("%s: %d results, want %d", tc.sql, got, tc.want)
		}
	}
}

func TestResultAccessors(t *testing.T) {
	e := New(smallCatalog(t), nil, Options{GridW: 8, GridH: 8})
	res, err := e.RunSQL(`SELECT x FROM T WHERE x > 6`)
	if err != nil {
		t.Fatal(err)
	}
	// Single-table results have no pairs.
	if _, _, ok := res.Pair(0); ok {
		t.Error("Pair on single-table should report !ok")
	}
	if res.CellOfRank(-1) != arrange.Unplaced || res.CellOfRank(1<<30) != arrange.Unplaced {
		t.Error("CellOfRank bounds")
	}
	if res.CellOfRank(0) == arrange.Unplaced {
		t.Error("rank 0 should be placed")
	}
	cond := res.Query.Where.(*query.Cond)
	norm, err := res.NormOf(cond, 7)
	if err != nil || norm != 0 {
		t.Errorf("NormOf exact item: %v %v", norm, err)
	}
	if _, err := res.NormOf(cond, -1); err == nil {
		t.Error("NormOf out of range")
	}
	if _, err := res.NormOf(&query.Cond{Attr: "zz"}, 0); err == nil {
		t.Error("NormOf unknown expr")
	}
	if res.ColorFor(0) != e.opt.Map.At(0) {
		t.Error("ColorFor exact")
	}
	if res.ColorFor(math.NaN()) != colormap.UncolorableColor {
		t.Error("ColorFor NaN")
	}
	if res.ColorFor(relevance.Scale) != e.opt.Map.At(e.opt.Map.Levels()-1) {
		t.Error("ColorFor far end")
	}
}

func TestPairOnCrossProduct(t *testing.T) {
	e := New(envCatalog(t), nil, Options{GridW: 8, GridH: 8})
	res, err := e.RunSQL(`SELECT Temperature FROM Weather, Air-Pollution WHERE CONNECT with-time-diff(30)`)
	if err != nil {
		t.Fatal(err)
	}
	l, r, ok := res.Pair(0)
	if !ok || l != 0 || r != 0 {
		t.Fatalf("Pair(0): %d %d %v", l, r, ok)
	}
	if _, _, ok := res.Pair(res.N); ok {
		t.Error("out-of-range pair")
	}
}

func TestDrillDownLeaf(t *testing.T) {
	e := New(smallCatalog(t), nil, Options{GridW: 8, GridH: 8})
	res, err := e.RunSQL(`SELECT x FROM T WHERE x > 6 AND y > 2`)
	if err != nil {
		t.Fatal(err)
	}
	leaf := res.Query.Where.(*query.BoolExpr).Children[0]
	ws, err := res.DrillDownWindows(leaf, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 1 {
		t.Fatalf("leaf drill-down windows: %d", len(ws))
	}
	indep, err := res.DrillDownWindows(leaf, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(indep) != 1 {
		t.Fatalf("independent leaf drill-down: %d", len(indep))
	}
	if _, err := res.DrillDownWindows(&query.Cond{Attr: "zz"}, false); err == nil {
		t.Error("unknown expression should error")
	}
}

func TestDrillDownIndependentReordersByPart(t *testing.T) {
	e := New(smallCatalog(t), nil, Options{GridW: 8, GridH: 8})
	// Overall ranking is dominated by x>6 (weight 5); drilling into
	// y>6 independently must place y-exact items at the center.
	res, err := e.RunSQL(`SELECT x FROM T WHERE x > 6 WEIGHT 5 AND y > 6 WEIGHT 0.2`)
	if err != nil {
		t.Fatal(err)
	}
	yPred := res.Query.Where.(*query.BoolExpr).Children[1]
	ws, err := res.DrillDownWindows(yPred, true)
	if err != nil {
		t.Fatal(err)
	}
	center := arrange.Center(8, 8)
	c, ok := ws[0].CellAt(center)
	if !ok {
		t.Fatal("center cell not set")
	}
	if c != e.opt.Map.At(0) {
		t.Fatalf("independent arrangement should center the part's exact answers, got %+v", c)
	}
}
