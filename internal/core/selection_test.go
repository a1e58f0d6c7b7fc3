package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arrange"
	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/reduce"
	"repro/internal/relevance"
	"repro/internal/render"
)

// selectionCatalog builds an n-row catalog with numeric and string
// columns, including values parked exactly on strict-operator
// boundaries and a few NaN-yielding nulls.
func selectionCatalog(t testing.TB, n int) *dataset.Catalog {
	t.Helper()
	cat := dataset.NewCatalog()
	tbl, err := dataset.NewTable("S", dataset.Schema{
		{Name: "a", Kind: dataset.KindFloat},
		{Name: "b", Kind: dataset.KindFloat},
		{Name: "c", Kind: dataset.KindFloat},
		{Name: "tag", Kind: dataset.KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1994))
	tags := []string{"alpha", "beta", "gamma", "delta"}
	for i := 0; i < n; i++ {
		a := rng.Float64() * 100
		if i%97 == 0 {
			a = 50 // exactly on the strict `a > 50` boundary
		}
		bv := dataset.Float(rng.Float64() * 100)
		if i%89 == 0 {
			bv = dataset.Null(dataset.KindFloat)
		}
		if err := tbl.AppendRow(
			dataset.Float(a),
			bv,
			dataset.Float(rng.Float64()*100),
			dataset.Str(tags[rng.Intn(len(tags))]),
		); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	return cat
}

var selectionQueries = []string{
	`SELECT a FROM S WHERE a > 50 AND b < 40 OR c BETWEEN 20 AND 30`,
	`SELECT a FROM S WHERE a > 50 WEIGHT 2 AND tag = 'beta' AND c < 70`,
	`SELECT a FROM S WHERE NOT (a > 50) AND b < 40`,
	`SELECT a FROM S WHERE a IN (10, 50, 90) OR b >= 25`,
}

// TestSelectionMatchesFullSort: the default selection path must produce
// exactly the display the full sort produces — same Displayed count,
// same ranked prefix, same panel stats.
func TestSelectionMatchesFullSort(t *testing.T) {
	cat := selectionCatalog(t, 5000)
	for _, sql := range selectionQueries {
		for _, workers := range []int{1, 8} {
			sel := withWorkers(New(cat, nil, Options{GridW: 16, GridH: 16}), workers)
			full := withWorkers(New(cat, nil, Options{GridW: 16, GridH: 16, FullSort: true}), workers)
			rs, err := sel.RunSQL(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			rf, err := full.RunSQL(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			if rs.Displayed != rf.Displayed {
				t.Fatalf("%s (workers=%d): Displayed %d (select) vs %d (full sort)",
					sql, workers, rs.Displayed, rf.Displayed)
			}
			for rank := 0; rank < rs.Displayed; rank++ {
				if rs.Order[rank] != rf.Order[rank] {
					t.Fatalf("%s (workers=%d): rank %d item %d vs %d",
						sql, workers, rank, rs.Order[rank], rf.Order[rank])
				}
			}
			if rs.Stats() != rf.Stats() {
				t.Fatalf("%s: stats diverged: %+v vs %+v", sql, rs.Stats(), rf.Stats())
			}
			if rs.Timings.Select <= 0 || rs.Timings.Sort != 0 {
				t.Fatalf("%s: selection run has Sort=%v Select=%v", sql, rs.Timings.Sort, rs.Timings.Select)
			}
			if rf.Timings.Sort <= 0 || rf.Timings.Select != 0 {
				t.Fatalf("%s: full-sort run has Sort=%v Select=%v", sql, rf.Timings.Sort, rf.Timings.Select)
			}
		}
	}
}

// TestEagerRootsSelectLikeFullSort: a root the evaluator finishes
// eagerly — a leaf root, and the roots whose transform could overflow
// (relevance's TestUndeferrableRootsFinishEagerly weights) — is ranked
// by a selection of the display budget, not by the full sort: Select
// is timed, Sort, RootCombine and Scale are not. Its ranked prefix is
// exactly the first selectBudget(n) ranks of a fresh FullSort engine's,
// bit for bit, and so are its display and TopK past the budget.
func TestEagerRootsSelectLikeFullSort(t *testing.T) {
	cat := selectionCatalog(t, 5000)
	for _, tc := range []struct {
		sql string
		opt Options
	}{
		{`SELECT a FROM S WHERE c BETWEEN 20 AND 30`, Options{}},
		{`SELECT a FROM S WHERE b < 40`, Options{}}, // NaN rows (null b)
		{`SELECT a FROM S WHERE a > 50 WEIGHT 1e307 AND b < 40 WEIGHT 1e308`, Options{}},
		{`SELECT a FROM S WHERE a > 50 WEIGHT 1e-300 OR b < 40 WEIGHT 1e-300`, Options{}},
		{`SELECT a FROM S WHERE a > 50 WEIGHT 1e305 AND b < 40 WEIGHT 1e306`, Options{And: relevance.ANDLp, LpP: 3}},
	} {
		opt := tc.opt
		opt.GridW, opt.GridH = 16, 16
		sel := New(cat, nil, opt)
		opt.FullSort = true
		full := New(cat, nil, opt)
		rs, err := sel.RunSQL(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		rf, err := full.RunSQL(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if rs.Eval.Deferred() {
			t.Fatalf("%s: the root was deferred", tc.sql)
		}
		tm := rs.Timings
		if tm.Select <= 0 || tm.Sort != 0 || tm.RootCombine != 0 || tm.Scale != 0 {
			t.Fatalf("%s: an eager root's run has Select=%v Sort=%v RootCombine=%v Scale=%v",
				tc.sql, tm.Select, tm.Sort, tm.RootCombine, tm.Scale)
		}
		k := sel.selectBudget(rs.N)
		if len(rs.rankOrder) != k || len(rs.rankSorted) != k {
			t.Fatalf("%s: ranked %d/%d items, want the budget %d", tc.sql, len(rs.rankOrder), len(rs.rankSorted), k)
		}
		for r := 0; r < k; r++ {
			a, b := rs.rankSorted[r], rf.rankSorted[r]
			if rs.rankOrder[r] != rf.rankOrder[r] || math.Float64bits(a) != math.Float64bits(b) && !(math.IsNaN(a) && math.IsNaN(b)) {
				t.Fatalf("%s: rank %d is (%v, %d), the full sort's (%v, %d)", tc.sql, r, a, rs.rankOrder[r], b, rf.rankOrder[r])
			}
		}
		if rs.Displayed != rf.Displayed || rs.Stats() != rf.Stats() {
			t.Fatalf("%s: Displayed %d, stats %+v; the full sort's %d, %+v", tc.sql, rs.Displayed, rs.Stats(), rf.Displayed, rf.Stats())
		}
		for r := 0; r < rs.Displayed; r++ {
			if rs.Order[r] != rf.Order[r] {
				t.Fatalf("%s: displayed rank %d is item %d, the full sort's %d", tc.sql, r, rs.Order[r], rf.Order[r])
			}
		}
		if got, want := rs.TopK(2*k), rf.TopK(2*k); !slices.Equal(got, want) {
			t.Fatalf("%s: TopK(%d) past the budget diverges from the full sort's", tc.sql, 2*k)
		}
	}
}

// withWorkers sets how many goroutines chunk e's leaf passes — what
// GOMAXPROCS decides outside the tests — so the serial and the chunked
// path are both checked on any machine.
func withWorkers(e *Engine, workers int) *Engine {
	e.workers = workers
	return e
}

// TestWorkersBitIdentical: chunked (workers > 1) and serial (workers
// == 1) runs must produce bit-identical Result.Combined(), identical
// ranked prefixes and identical display counts, across numeric, string,
// negated and join-bearing queries.
func TestWorkersBitIdentical(t *testing.T) {
	cat := selectionCatalog(t, 5000)
	for _, sql := range selectionQueries {
		serial := withWorkers(New(cat, nil, Options{GridW: 16, GridH: 16}), 1)
		parallel := withWorkers(New(cat, nil, Options{GridW: 16, GridH: 16}), 8)
		rs, err := serial.RunSQL(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		rp, err := parallel.RunSQL(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		cs, cp := rs.Combined(), rp.Combined()
		if len(cs) != len(cp) {
			t.Fatalf("%s: Combined lengths differ", sql)
		}
		for i := range cs {
			if math.Float64bits(cs[i]) != math.Float64bits(cp[i]) {
				t.Fatalf("%s: Combined[%d] = %x (serial) vs %x (parallel)",
					sql, i, math.Float64bits(cs[i]), math.Float64bits(cp[i]))
			}
		}
		if rs.Displayed != rp.Displayed {
			t.Fatalf("%s: Displayed %d vs %d", sql, rs.Displayed, rp.Displayed)
		}
		if len(rs.Order) != len(rp.Order) {
			t.Fatalf("%s: ranked prefix %d vs %d long", sql, len(rs.Order), len(rp.Order))
		}
		for rank := range rs.Order {
			if rs.Order[rank] != rp.Order[rank] {
				t.Fatalf("%s: ranked prefix diverged at %d", sql, rank)
			}
		}
	}
}

// TestWorkersBitIdenticalJoin covers the cross-product and
// partner-count leaves.
func TestWorkersBitIdenticalJoin(t *testing.T) {
	cat := envCatalog(t)
	for _, sql := range []string{
		`SELECT Temperature FROM Weather, Air-Pollution WHERE Temperature > 18 AND CONNECT with-time-diff(45)`,
		`SELECT Temperature FROM Weather WHERE CONNECT with-time-diff(45)`,
	} {
		serial := withWorkers(New(cat, nil, Options{GridW: 8, GridH: 8}), 1)
		parallel := withWorkers(New(cat, nil, Options{GridW: 8, GridH: 8}), 8)
		rs, err := serial.RunSQL(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		rp, err := parallel.RunSQL(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		cs, cp := rs.Combined(), rp.Combined()
		for i := range cs {
			if math.Float64bits(cs[i]) != math.Float64bits(cp[i]) {
				t.Fatalf("%s: Combined[%d] diverged", sql, i)
			}
		}
		if rs.Displayed != rp.Displayed {
			t.Fatalf("%s: Displayed %d vs %d", sql, rs.Displayed, rp.Displayed)
		}
	}
}

// TestTopKExtendsSelection: asking for more ranks than the selection
// budget must lazily extend the ranking and agree with the full sort at
// every depth.
func TestTopKExtendsSelection(t *testing.T) {
	cat := selectionCatalog(t, 5000)
	sql := selectionQueries[0]
	sel := New(cat, nil, Options{GridW: 4, GridH: 4}) // budget 16+4+32 = 52 ranks
	full := New(cat, nil, Options{GridW: 4, GridH: 4, FullSort: true})
	rs, err := sel.RunSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := full.RunSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 52, 53, 500, 4999, 5000, 6000} {
		got := rs.TopK(k)
		want := rf.TopK(k)
		if len(got) != len(want) {
			t.Fatalf("TopK(%d): lengths %d vs %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("TopK(%d): rank %d item %d vs %d", k, i, got[i], want[i])
			}
		}
	}
}

// TestDrillDownIndependentSelection: an independent drill-down selects
// the window capacity's ranks of its part, and renders cell for cell
// what the head of the part's full sort renders, on the selection and
// the full-sort path alike, for the whole query and each of its parts.
func TestDrillDownIndependentSelection(t *testing.T) {
	cat := selectionCatalog(t, 3000)
	sel := New(cat, nil, Options{GridW: 16, GridH: 16})
	full := New(cat, nil, Options{GridW: 16, GridH: 16, FullSort: true})
	for _, sql := range selectionQueries {
		rs, err := sel.RunSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		rf, err := full.RunSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		fullParts := append([]query.Expr{rf.Query.Where}, query.Predicates(rf.Query.Where)...)
		for pi, part := range append([]query.Expr{rs.Query.Where}, query.Predicates(rs.Query.Where)...) {
			what := sql + ", part " + part.Label()
			ws, err := rs.DrillDownWindows(part, true)
			if err != nil {
				t.Fatal(err)
			}
			wf, err := rf.DrillDownWindows(fullParts[pi], true)
			if err != nil {
				t.Fatal(err)
			}
			sameWindowCells(t, what+": selection vs full sort", ws, wf)
			// The reference: the part's full sort, its head placed.
			vec := rs.Eval.Vec(rs.nodeOf[part])
			_, order := reduce.SortWithIndex(vec)
			shown := min(rs.Displayed, 16*16, len(vec)-relevance.CountNaN(vec))
			cells := arrange.Place(16, 16, shown)
			parts := append([]query.Expr{part}, query.Predicates(part)...)
			if len(query.Predicates(part)) == 1 && query.Predicates(part)[0] == part {
				parts = parts[:1]
			}
			var ref []*render.Window
			for _, p := range parts {
				w, err := rs.partWindow(p, order, cells, shown, nil, -1)
				if err != nil {
					t.Fatal(err)
				}
				ref = append(ref, w)
			}
			sameWindowCells(t, what+": selection vs the sort's head", ws, ref)
		}
	}
}

// sameWindowCells asserts two window lists agree cell for cell: the
// same colors set in the same cells.
func sameWindowCells(t *testing.T, what string, a, b []*render.Window) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d windows vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i].GridW != b[i].GridW || a[i].GridH != b[i].GridH {
			t.Fatalf("%s: window %d is %d×%d vs %d×%d", what, i, a[i].GridW, a[i].GridH, b[i].GridW, b[i].GridH)
		}
		for y := 0; y < a[i].GridH; y++ {
			for x := 0; x < a[i].GridW; x++ {
				p := arrange.Point{X: x, Y: y}
				ca, oka := a[i].CellAt(p)
				cb, okb := b[i].CellAt(p)
				if oka != okb || ca != cb {
					t.Fatalf("%s: window %d cell (%d,%d): %v (set %v) vs %v (set %v)", what, i, x, y, ca, oka, cb, okb)
				}
			}
		}
	}
}

// TestAllNaNPredicateDisplaysNothing is the regression test for the
// display-count audit: a predicate under which every item is
// uncolorable (NaN) must yield Displayed == 0 — never a negative or
// out-of-range cut — on both the percent and heuristic paths, and the
// windows must still render.
func TestAllNaNPredicateDisplaysNothing(t *testing.T) {
	cat := dataset.NewCatalog()
	tbl, err := dataset.NewTable("U", dataset.Schema{{Name: "x", Kind: dataset.KindFloat}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := tbl.AppendRow(dataset.Float(5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	// x <> 5 is pointwise-false everywhere: every item uncolorable.
	for name, opt := range map[string]Options{
		"heuristic":          {GridW: 8, GridH: 8},
		"percent":            {GridW: 8, GridH: 8, PercentDisplayed: 0.5},
		"percent-full-sort":  {GridW: 8, GridH: 8, PercentDisplayed: 0.5, FullSort: true},
		"heuristic-fullsort": {GridW: 8, GridH: 8, FullSort: true},
	} {
		e := New(cat, nil, opt)
		res, err := e.RunSQL(`SELECT x FROM U WHERE x <> 5`)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Displayed != 0 {
			t.Fatalf("%s: Displayed = %d, want 0 (all items NaN)", name, res.Displayed)
		}
		if st := res.Stats(); st.NumDisplayed != 0 || st.PctDisplayed != 0 {
			t.Fatalf("%s: stats %+v, want zero display", name, st)
		}
		if _, err := res.Image(2); err != nil {
			t.Fatalf("%s: rendering all-NaN result: %v", name, err)
		}
	}
}

// TestTopKConcurrent: concurrent TopK calls — including ones that
// extend the ranking past the selection budget — must be synchronized
// and agree with the full sort (run under -race in CI).
func TestTopKConcurrent(t *testing.T) {
	cat := selectionCatalog(t, 4000)
	sel := New(cat, nil, Options{GridW: 4, GridH: 4})
	full := New(cat, nil, Options{GridW: 4, GridH: 4, FullSort: true})
	rs, err := sel.RunSQL(selectionQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	rf, err := full.RunSQL(selectionQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	ks := []int{1, 10, 60, 300, 1500, 4000}
	done := make(chan error, len(ks)*2)
	for _, k := range ks {
		for g := 0; g < 2; g++ {
			go func(k int) {
				got := rs.TopK(k)
				for i := range got {
					if got[i] != rf.Order[i] {
						done <- errStat
						return
					}
				}
				done <- nil
			}(k)
		}
	}
	for i := 0; i < len(ks)*2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSelectionInvariantsAtScale: on a larger-than-budget input the
// selection path must keep Order exactly the ranked prefix (distinct
// items, exactly the selection budget), the prefix ascending (NaNs last), and
// the display within capacity.
func TestSelectionInvariantsAtScale(t *testing.T) {
	cat := selectionCatalog(t, 60000)
	e := New(cat, nil, Options{GridW: 64, GridH: 64})
	res, err := e.RunSQL(selectionQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Displayed > 64*64 {
		t.Fatalf("Displayed %d exceeds capacity", res.Displayed)
	}
	if k := e.selectBudget(res.N); len(res.Order) != k || len(res.sorted) != k || k >= res.N {
		t.Fatalf("Order/sorted length %d/%d, want the ranked prefix %d (N = %d)", len(res.Order), len(res.sorted), k, res.N)
	}
	seen := make([]bool, res.N)
	for _, it := range res.Order {
		if it < 0 || it >= res.N || seen[it] {
			t.Fatal("Order repeats an item or leaves [0, N)")
		}
		seen[it] = true
	}
	for rank := 1; rank < len(res.Order); rank++ {
		a := res.Combined()[res.Order[rank-1]]
		b := res.Combined()[res.Order[rank]]
		if math.IsNaN(a) && !math.IsNaN(b) {
			t.Fatalf("NaN before value at rank %d", rank)
		}
		if !math.IsNaN(a) && !math.IsNaN(b) && a > b {
			t.Fatalf("ranked prefix not ascending at rank %d: %v > %v", rank, a, b)
		}
	}
	if res.Timings.Select <= 0 {
		t.Fatal("selection stage not timed")
	}
}

// TestSelectBudgetCoversGapHeuristic: the CutPrefix margin never reads
// past the materialized selection prefix for any grid size.
func TestSelectBudgetCoversGapHeuristic(t *testing.T) {
	e := &Engine{opt: Options{GridW: 128, GridH: 128}.withDefaults()}
	n := 1 << 20
	budget := e.selectBudget(n)
	capacity := e.opt.GridW * e.opt.GridH
	// Worst case: quantile cut k == capacity (+1 rounding), the gap scan
	// reads k + k/4 and GapCut's window reaches k + max(3, k/32).
	worst := capacity + 1 + (capacity+1)/4
	z := (capacity + 1) / 32
	if z < 3 {
		z = 3
	}
	if gw := capacity + 1 + z + 1; gw > worst {
		worst = gw
	}
	if budget < worst {
		t.Fatalf("selectBudget %d < worst-case heuristic reach %d", budget, worst)
	}
}

// TestCutPrefixMatchesCut: CutPrefix on a budget-sized prefix must
// reproduce Cut on the full sorted vector (the engine relies on this
// equivalence for selection-mode display counts).
func TestCutPrefixMatchesCut(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 1000 + rng.Intn(20000)
		dists := make([]float64, n)
		for i := range dists {
			if rng.Intn(3) == 0 {
				dists[i] = 1 + 0.1*rng.NormFloat64() // near cluster
			} else {
				dists[i] = 100 + rng.NormFloat64() // far cluster
			}
		}
		sorted, _ := reduce.SortWithIndex(dists)
		capacity := 256
		r := capacity * 2
		want := reduce.Cut(sorted, r, 1)
		budget := capacity + capacity/4 + 32
		if budget > n {
			budget = n
		}
		got := reduce.CutPrefix(sorted[:budget], n, r, 1)
		if got != want {
			t.Fatalf("trial %d (n=%d): CutPrefix = %d, Cut = %d", trial, n, got, want)
		}
	}
}
