package core

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// TestStrictBoundaryLeafRanksLikeFullSort: a strict range whose column
// never lies beyond it — a third of the rows on the boundary, the rest
// inside — has no distance above 0 but the boundary rows' small positive
// one, which its code plane must bound too; with few exact answers the
// selection's cut depends on those rows' bounds.
func TestStrictBoundaryLeafRanksLikeFullSort(t *testing.T) {
	cat := dataset.NewCatalog()
	tbl, err := dataset.NewTable("S", dataset.Schema{
		{Name: "x", Kind: dataset.KindFloat},
		{Name: "y", Kind: dataset.KindFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(40))
	for i := 0; i < 5000; i++ {
		x := 50 + 50*rng.Float64()
		if i%3 == 0 {
			x = 50
		}
		if err := tbl.AppendRow(dataset.Float(x), dataset.Float(100*rng.Float64())); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		`SELECT x FROM S WHERE x > 50 AND y < 5`,
		`SELECT x FROM S WHERE x > 50 OR y < 5`,
	} {
		sel, err := New(cat, nil, Options{GridW: 16, GridH: 16}).RunSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		full, err := New(cat, nil, Options{GridW: 16, GridH: 16, FullSort: true}).RunSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		if sel.Displayed != full.Displayed {
			t.Fatalf("%s: Displayed %d, FullSort %d", sql, sel.Displayed, full.Displayed)
		}
		for rank := range sel.rankOrder {
			if sel.rankOrder[rank] != full.rankOrder[rank] || sel.rankSorted[rank] != full.rankSorted[rank] {
				t.Fatalf("%s: rank %d is (%d, %v), FullSort's (%d, %v)", sql, rank,
					sel.rankOrder[rank], sel.rankSorted[rank], full.rankOrder[rank], full.rankSorted[rank])
			}
		}
	}
}
