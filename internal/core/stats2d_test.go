package core

import (
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
// on the x axis's attribute, the 2D arrangement reads the signed vector
// of the first one in query order — the rule Session.FindCond uses — on
// every run, so the same query on one engine places every item in the
// same cell every time (it used to pick one of the two at map-iteration
// order and move items between runs).
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
