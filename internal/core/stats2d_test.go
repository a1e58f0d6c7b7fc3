package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// TestStats2DQuantileReorderExact: the exact-match count must survive
// the 2D-quantile display reordering, which breaks the ascending-
// prefix invariant the Stats shortcut relies on (regression: the
// prefix binary search miscounted after apply2DQuantiles).
func TestStats2DQuantileReorderExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tbl, err := dataset.NewTable("T", dataset.Schema{
		{Name: "x", Kind: dataset.KindFloat},
		{Name: "y", Kind: dataset.KindFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if err := tbl.AppendRow(dataset.Float(rng.Float64()*100), dataset.Float(rng.Float64()*100)); err != nil {
			t.Fatal(err)
		}
	}
	cat := dataset.NewCatalog()
	if err := cat.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	e := New(cat, nil, Options{GridW: 12, GridH: 12, Arrangement: Arrange2D, AxisX: "x", AxisY: "y"})
	res, err := e.RunSQL(`SELECT x FROM T WHERE x BETWEEN 40 AND 45 OR y BETWEEN 90 AND 95`)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, d := range res.Combined() {
		if d == 0 {
			want++
		}
	}
	if got := res.Stats().NumResults; got != want {
		t.Fatalf("NumResults = %d, want %d", got, want)
	}
}

// TestArrange2DTwoConditionsOnAnAxisIsDeterministic: with two conditions
// on the x axis's attribute, the 2D arrangement places items by the
// signed distances of the first one in query order —
// query.Binding.CondOn, the rule a range op uses — on every run, so the
// same query on one engine places every item in the same cell every time
// (it used to pick one of the two at map-iteration order and move items
// between runs).
func TestArrange2DTwoConditionsOnAnAxisIsDeterministic(t *testing.T) {
	cat, err := datagen.Traffic(5000, 7)
	if err != nil {
		t.Fatal(err)
	}
	e := New(cat, nil, Options{GridW: 32, GridH: 32, Arrangement: Arrange2D, AxisX: "a", AxisY: "b"})
	const sql = `SELECT a FROM S WHERE a > 60 AND a < 40 AND b < 30`
	first, err := e.RunSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run < 30; run++ {
		res, err := e.RunSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		if res.Displayed != first.Displayed {
			t.Fatalf("run %d displays %d items, run 0 %d", run, res.Displayed, first.Displayed)
		}
		for rank := 0; rank < first.Displayed; rank++ {
			if res.Order[rank] != first.Order[rank] || res.CellOfRank(rank) != first.CellOfRank(rank) {
				t.Fatalf("run %d, rank %d: item %d at %v, run 0 item %d at %v", run, rank,
					res.Order[rank], res.CellOfRank(rank), first.Order[rank], first.CellOfRank(rank))
			}
		}
	}
}

// TestArrange2DAxisSkipsABooleanFallback: NOT (a IN …) has no inverse,
// so its leaf is a boolean fallback without signed distances. The x axis
// is then placed by the next condition on a, the first one with a
// condition leaf, exactly as where that condition stands alone; the axis
// is not turned off.
func TestArrange2DAxisSkipsABooleanFallback(t *testing.T) {
	cat, err := datagen.Traffic(5000, 7)
	if err != nil {
		t.Fatal(err)
	}
	e := New(cat, nil, Options{GridW: 32, GridH: 32, Arrangement: Arrange2D, AxisX: "a", AxisY: "b"})
	res, err := e.RunSQL(`SELECT a FROM S WHERE NOT (a IN (1, 2)) AND a > 5 AND b < 30`)
	if err != nil {
		t.Fatal(err)
	}
	alone, err := e.RunSQL(`SELECT a FROM S WHERE a > 5 AND b < 30`)
	if err != nil {
		t.Fatal(err)
	}
	got, want := res.signedOf("a"), alone.signedOf("a")
	if got == nil || want == nil {
		t.Fatalf("x axis off: %v with the fallback, %v without", got == nil, want == nil)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("item %d: signed distance %v, want a > 5's %v", i, got[i], want[i])
		}
	}
}

// TestStringAxisReusesItsLeafDistances: the signed distances of a string
// axis are computed from its leaf's distances (condData's known) and
// equal, bit for bit, those computed from scratch, for every operator,
// distance and negation.
func TestStringAxisReusesItsLeafDistances(t *testing.T) {
	cat := smallCatalog(t)
	for _, tc := range []struct{ axis, where string }{
		{"name", `name = 'gama'`},
		{"name", `name IN ('alpha', 'zeta', 'beth')`},
		{"name", `name <> 'beta'`},
		{"name", `name > 'delta'`},
		{"name", `name BETWEEN 'b' AND 'e'`},
		{"name", `NOT (name < 'delta')`},
		{"level", `level = 'mid'`},
		{"level", `level IN ('low', 'high')`},
		{"level", `level < 'high'`},
	} {
		e := New(cat, nil, Options{GridW: 4, GridH: 4, Arrangement: Arrange2D, AxisX: tc.axis, AxisY: "x"})
		res, err := e.RunSQL(`SELECT x FROM T WHERE ` + tc.where + ` AND x > 3`)
		if err != nil {
			t.Fatal(err)
		}
		c := res.Binding.CondOn(tc.axis, nil)
		want := make([]float64, res.N)
		if _, _, _, err := e.condData(res.evaluated[c], res.Binding.Attrs[c], res.Space, nil, want); err != nil {
			t.Fatal(err)
		}
		got := res.signedOf(tc.axis)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: item %d signed %v, from scratch %v", tc.where, i, got[i], want[i])
			}
		}
	}
}
