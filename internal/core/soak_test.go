package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// TestSoakLargePipeline pushes half a million rows through the full
// pipeline and checks the global invariants. Skipped in -short mode.
func TestSoakLargePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test in -short mode")
	}
	const n = 500000
	rng := rand.New(rand.NewSource(500))
	tbl, err := dataset.NewTable("Big", dataset.Schema{
		{Name: "a", Kind: dataset.KindFloat},
		{Name: "b", Kind: dataset.KindFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		va := dataset.Float(rng.NormFloat64() * 100)
		if i%1000 == 0 {
			va = dataset.Null(dataset.KindFloat)
		}
		if err := tbl.AppendRow(va, dataset.Float(rng.Float64()*1000)); err != nil {
			t.Fatal(err)
		}
	}
	cat := dataset.NewCatalog()
	if err := cat.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	e := New(cat, nil, Options{GridW: 256, GridH: 256})
	res, err := e.RunSQL(`SELECT a FROM Big WHERE a > 150 OR b < 10 AND a BETWEEN -50 AND 50`)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != n {
		t.Fatalf("N = %d", res.N)
	}
	// Invariants: monotone ranking, displayed ≤ capacity, displayed
	// items colorable, all values in range.
	if res.Displayed > 256*256 {
		t.Fatalf("displayed %d exceeds capacity", res.Displayed)
	}
	prev := math.Inf(-1)
	for rank := 0; rank < res.Displayed; rank++ {
		d := res.Combined()[res.Order[rank]]
		if math.IsNaN(d) {
			t.Fatalf("uncolorable item displayed at rank %d", rank)
		}
		if d < prev {
			t.Fatalf("ranking not monotone at rank %d", rank)
		}
		prev = d
	}
	for _, d := range res.Combined() {
		if !math.IsNaN(d) && (d < 0 || d > 255) {
			t.Fatalf("combined out of range: %v", d)
		}
	}
	st := res.Stats()
	if st.NumResults < 0 || st.NumResults > n {
		t.Fatalf("stats: %+v", st)
	}
	if _, err := res.Image(2); err != nil {
		t.Fatal(err)
	}
}
