package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/arrange"
	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/reduce"
)

// specialCatalog is an n-row table T with a uniform x, a normal y and a
// uniform z — each with nulls, x and y with ±Inf too — and a string s.
// A third of z is null, so an AND's band on x and y holds fewer colorable
// items than the display takes.
func specialCatalog(t *testing.T, n int) *dataset.Catalog {
	t.Helper()
	rng := rand.New(rand.NewSource(39))
	tbl, err := dataset.NewTable("T", dataset.Schema{
		{Name: "x", Kind: dataset.KindFloat},
		{Name: "y", Kind: dataset.KindFloat},
		{Name: "z", Kind: dataset.KindFloat},
		{Name: "s", Kind: dataset.KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	special := func(v float64, nulls, infs int) dataset.Value {
		switch k := rng.Intn(100); {
		case k < nulls:
			return dataset.Null(dataset.KindFloat)
		case k < nulls+infs:
			return dataset.Float(math.Inf(1 - 2*rng.Intn(2)))
		}
		return dataset.Float(v)
	}
	words := []string{"meyer", "maier", "mayer", "meier", "smith", "schmidt", "miller", "muller"}
	for i := 0; i < n; i++ {
		if err := tbl.AppendRow(
			special(rng.Float64()*100, 3, 2),
			special(50+rng.NormFloat64()*20, 4, 2),
			special(rng.Float64()*100, 33, 0),
			dataset.Str(words[rng.Intn(len(words))]+words[rng.Intn(len(words))][:rng.Intn(3)]),
		); err != nil {
			t.Fatal(err)
		}
	}
	cat := dataset.NewCatalog()
	if err := cat.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	return cat
}

// reference2D is the 2D arrangement as it was before it ranked like the
// spiral: a full sort of every item (a FullSort spiral run), the band of
// Items2D over freshly sorted axes, the band's members moved to the
// front of the whole ranking, and the displayed ranks placed by their
// signs. The returned Result draws, counts and reports that picture.
func reference2D(t *testing.T, cat *dataset.Catalog, opt Options, q *query.Query) *Result {
	t.Helper()
	refOpt := opt
	refOpt.Arrangement, refOpt.FullSort = ArrangeSpiral, true
	ref, err := New(cat, nil, refOpt).RunCtx(context.Background(), q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	signed := func(attr string) []float64 {
		c := ref.Binding.CondOn(attr, func(c *query.Cond) bool {
			_, ok := ref.evaluated[c]
			return ok
		})
		if c == nil {
			return nil
		}
		out := make([]float64, ref.N)
		if _, _, _, err := ref.Engine.condData(nil, ref.evaluated[c], ref.Binding.Attrs[c], ref.Space, nil, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	sorted := func(xs []float64) []float64 {
		var out []float64
		for _, x := range xs {
			if !math.IsNaN(x) {
				out = append(out, x)
			}
		}
		sort.Float64s(out)
		return out
	}
	sx, sy := signed(opt.AxisX), signed(opt.AxisY)
	if sx != nil && sy != nil && ref.N > 0 {
		in2D := reduce.Items2D(sx, sy, sorted(sx), sorted(sy), float64(ref.Displayed)/float64(ref.N))
		combined := ref.Combined()
		keep := map[int]bool{}
		for _, item := range in2D {
			if !math.IsNaN(combined[item]) {
				keep[item] = true
			}
		}
		if len(keep) > 0 {
			var order []int
			for _, first := range []bool{true, false} {
				for _, item := range ref.Order {
					if keep[item] == first {
						order = append(order, item)
					}
				}
			}
			ref.Displayed = min(ref.Displayed, len(keep))
			ref.Order, ref.sorted = order, make([]float64, len(order))
			for rank, item := range order {
				ref.sorted[rank] = combined[item]
			}
		}
	}
	items := make([]arrange.QuadItem, ref.Displayed)
	for rank := range items {
		item := ref.Order[rank]
		items[rank] = arrange.QuadItem{SignX: signOf(sx, item), SignY: signOf(sy, item)}
	}
	ref.cells = arrange.Quad2D(opt.GridW, opt.GridH, items)
	return ref
}

// same2D asserts that a 2D result shows the reference's picture: the
// displayed items in rank order, their distances by bits, their cells,
// every window's cells, the panel and the sliders.
func same2D(t *testing.T, what string, got, ref *Result) {
	t.Helper()
	if got.Displayed != ref.Displayed {
		t.Fatalf("%s: %d displayed, the reference %d", what, got.Displayed, ref.Displayed)
	}
	for rank := 0; rank < ref.Displayed; rank++ {
		if got.Order[rank] != ref.Order[rank] {
			t.Fatalf("%s: rank %d is item %d, the reference's %d", what, rank, got.Order[rank], ref.Order[rank])
		}
		if a, b := got.DistanceOfRank(rank), ref.DistanceOfRank(rank); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: rank %d at distance %v, the reference's %v", what, rank, a, b)
		}
		if got.CellOfRank(rank) != ref.CellOfRank(rank) {
			t.Fatalf("%s: rank %d in cell %v, the reference's %v", what, rank, got.CellOfRank(rank), ref.CellOfRank(rank))
		}
	}
	gw, err := got.Windows()
	if err != nil {
		t.Fatal(err)
	}
	rw, err := ref.Windows()
	if err != nil {
		t.Fatal(err)
	}
	sameWindowCells(t, what, gw, rw)
	if a, b := got.Stats(), ref.Stats(); a != b {
		t.Fatalf("%s: stats %+v, the reference's %+v", what, a, b)
	}
	if a, b := fmt.Sprintf("%+v", got.PredicateInfos()), fmt.Sprintf("%+v", ref.PredicateInfos()); a != b {
		t.Fatalf("%s: predicate infos\n%s\nthe reference's\n%s", what, a, b)
	}
}

// TestArrange2DMatchesReference: the 2D arrangement ranks through the
// spiral's selection and takes its band from the axes' cached quantile
// indexes, and shows, step for step, the picture the full sort and the
// band-first reorder show: over seeded weight and range drags on axis
// and non-axis conditions, on a session-like cache and on a fresh
// uncached engine, for an AND and an OR query, a fixed percent
// displayed, a string axis, one axis missing, and each of those with
// FullSort on and off.
func TestArrange2DMatchesReference(t *testing.T) {
	cat := specialCatalog(t, 6000)
	const (
		and = `SELECT x FROM T WHERE x BETWEEN 20 AND 60 AND y BETWEEN 30 AND 50 AND z BETWEEN 10 AND 40`
		or  = `SELECT x FROM T WHERE x BETWEEN 20 AND 60 OR y BETWEEN 30 AND 50 WEIGHT 2 OR z BETWEEN 10 AND 40`
		str = `SELECT x FROM T WHERE s = 'meyer' USING edit AND y BETWEEN 30 AND 50 AND z BETWEEN 10 AND 40`
	)
	grid := Options{GridW: 24, GridH: 24, Arrangement: Arrange2D, AxisX: "x", AxisY: "y"}
	percent, strAxis, oneAxis := grid, grid, grid
	percent.PercentDisplayed = 0.04
	strAxis.AxisX = "s"
	oneAxis.AxisY = "w"
	rng := rand.New(rand.NewSource(39))
	for _, v := range []struct {
		name string
		opt  Options
		sql  string
	}{
		{"and", grid, and},
		{"or", grid, or},
		{"percent", percent, and},
		{"string-axis", strAxis, str},
		{"one-axis", oneAxis, or},
	} {
		for _, fullSort := range []bool{false, true} {
			opt := v.opt
			opt.FullSort = fullSort
			name := fmt.Sprintf("%s/fullsort=%v", v.name, fullSort)
			q, err := query.Parse(v.sql)
			if err != nil {
				t.Fatal(err)
			}
			e, cache := New(cat, nil, opt), NewRunCache()
			b, err := query.Bind(q, cat)
			if err != nil {
				t.Fatal(err)
			}
			preds := query.Predicates(q.Where)
			for step := 0; step < 10; step++ {
				what := fmt.Sprintf("%s, step %d", name, step)
				if step > 0 {
					// A weight drag or, on a BETWEEN condition, a range drag.
					p := preds[rng.Intn(len(preds))]
					if c, ok := p.(*query.Cond); ok && c.Op == query.OpBetween && rng.Intn(2) == 0 {
						lo := float64(rng.Intn(80))
						c.Lo, c.Hi = dataset.Float(lo), dataset.Float(lo+float64(5+rng.Intn(40)))
						what += ", range " + c.Label()
					} else {
						p.SetWeight([]float64{0.5, 1, 2, 3, 5}[rng.Intn(5)])
						what += fmt.Sprintf(", weight %v on %s", p.Weight(), p.Label())
					}
				}
				ref := reference2D(t, cat, opt, q)
				got, err := e.RunCtx(context.Background(), q, b, cache)
				if err != nil {
					t.Fatal(err)
				}
				same2D(t, what+" (cached)", got, ref)
				fresh, err := New(cat, nil, opt).RunCtx(context.Background(), q, b, nil)
				if err != nil {
					t.Fatal(err)
				}
				same2D(t, what+" (uncached)", fresh, ref)
			}
		}
	}
}
