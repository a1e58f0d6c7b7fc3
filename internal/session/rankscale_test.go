package session

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/relevance"
)

// rankScaleCatalog builds a catalog adversarial to rank-before-scale:
// values quantized onto a handful of levels (mass duplicate ties in
// both raw and scaled space), values parked exactly on strict-operator
// boundaries (clamp-boundary flips under range drags), NULLs (NaN
// distances), and enough rows that the evaluator spans many chunks
// (the filter has chunks to prune).
func rankScaleCatalog(t testing.TB, n int) *dataset.Catalog {
	t.Helper()
	tbl, err := dataset.NewTable("S", dataset.Schema{
		{Name: "a", Kind: dataset.KindFloat},
		{Name: "b", Kind: dataset.KindFloat},
		{Name: "c", Kind: dataset.KindFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		a := rng.Float64() * 100
		switch i % 5 {
		case 0:
			a = float64(10 * rng.Intn(11)) // heavy duplicates
		case 1:
			a = 50 // strict-boundary mass
		}
		bv := dataset.Float(rng.Float64() * 100)
		if i%53 == 0 {
			bv = dataset.Null(dataset.KindFloat) // NaN distances
		}
		c := rng.Float64() * 100
		if i%7 == 0 {
			c = 25 // exact answers in bulk for `c BETWEEN 20 AND 30`
		}
		if err := tbl.AppendRow(dataset.Float(a), bv, dataset.Float(c)); err != nil {
			t.Fatal(err)
		}
	}
	cat := dataset.NewCatalog()
	if err := cat.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	return cat
}

// matchesFullSort compares the session's (rank-before-scale, possibly
// block-pruned) result against a fresh FullSort engine: displayed rows,
// their order, the scaled distances at every rank, the relevances, and
// the fully materialized combined vector must all be bit-identical.
func matchesFullSort(step string, s *Session, cat *dataset.Catalog, opt core.Options) error {
	fopt := opt
	fopt.FullSort = true
	fresh, err := core.New(cat, nil, fopt).Run(s.Query())
	if err != nil {
		return fmt.Errorf("%s: full-sort run: %v", step, err)
	}
	got := s.Result()
	if got.Displayed != fresh.Displayed {
		return fmt.Errorf("%s: Displayed %d vs %d", step, got.Displayed, fresh.Displayed)
	}
	for rank := 0; rank < fresh.Displayed; rank++ {
		if got.Order[rank] != fresh.Order[rank] {
			return fmt.Errorf("%s: order[%d] = %d, want %d", step, rank, got.Order[rank], fresh.Order[rank])
		}
		a, b := got.DistanceOfRank(rank), fresh.DistanceOfRank(rank)
		if math.Float64bits(a) != math.Float64bits(b) {
			return fmt.Errorf("%s: distance[%d] = %v, want %v", step, rank, a, b)
		}
	}
	gc, fc := got.Combined(), fresh.Combined()
	for i := range fc {
		x, y := gc[i], fc[i]
		if math.Float64bits(x) != math.Float64bits(y) && !(math.IsNaN(x) && math.IsNaN(y)) {
			return fmt.Errorf("%s: combined[%d] = %v, want %v", step, i, x, y)
		}
	}
	gr, fr := got.Relevance(), fresh.Relevance()
	for i := range fr {
		if math.Float64bits(gr[i]) != math.Float64bits(fr[i]) {
			return fmt.Errorf("%s: relevance[%d] = %v, want %v", step, i, gr[i], fr[i])
		}
	}
	if got.Stats() != fresh.Stats() {
		return fmt.Errorf("%s: stats %+v vs %+v", step, got.Stats(), fresh.Stats())
	}
	return nil
}

// TestRankBeforeScaleMatchesFullSortScript is the tentpole identity
// property of the rank-before-scale pipeline: a randomized interaction
// script — clamp-boundary range drags, integer and fractional weight
// changes, undos, percent-displayed moves — on a cached session (raw
// ranking, filtered by the children's code planes and refined) stays
// bit-identical to Options.FullSort at every step, across every combiner
// mode.
func TestRankBeforeScaleMatchesFullSortScript(t *testing.T) {
	const n = 20000
	cat := rankScaleCatalog(t, n)
	modes := []struct {
		name string
		opt  core.Options
	}{
		{"and-arith-or-geo", core.Options{GridW: 16, GridH: 16}},
		{"paper-raw", core.Options{GridW: 16, GridH: 16, Mode: relevance.PaperRaw}},
		{"euclidean", core.Options{GridW: 16, GridH: 16, And: relevance.ANDEuclidean}},
		{"lp2", core.Options{GridW: 16, GridH: 16, And: relevance.ANDLp, LpP: 2}},
		{"lp3.5", core.Options{GridW: 16, GridH: 16, And: relevance.ANDLp, LpP: 3.5}},
	}
	queries := []string{
		// OR root: the geometric root is the deferred transform.
		`SELECT a FROM S WHERE a > 50 AND b < 40 OR c BETWEEN 20 AND 30`,
		// AND root: deferred division (or Lp root, per mode).
		`SELECT a FROM S WHERE a > 50 WEIGHT 2 AND c BETWEEN 20 AND 30 AND b >= 25`,
		// Leaf root: identity transform, clamp ties only.
		`SELECT a FROM S WHERE c BETWEEN 20 AND 30`,
	}
	attrs := []string{"a", "b", "c"}
	for _, m := range modes {
		for qi, sql := range queries {
			t.Run(fmt.Sprintf("%s/q%d", m.name, qi), func(t *testing.T) {
				s, err := NewSQL(cat, nil, m.opt, sql)
				if err != nil {
					t.Fatal(err)
				}
				if err := matchesFullSort("initial", s, cat, m.opt); err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(7*qi) + 1))
				for step := 0; step < 25; step++ {
					label := ""
					switch op := rng.Intn(10); {
					case op < 4:
						c, err := s.FindCond(attrs[rng.Intn(len(attrs))])
						if err != nil {
							continue
						}
						// Drag onto quantized values so clamp boundaries and
						// duplicate masses flip in and out of the range.
						lo := float64(10 * rng.Intn(8))
						hi := lo + float64(10*rng.Intn(5))
						if err := s.SetRange(c, lo, hi); err != nil {
							t.Fatal(err)
						}
						label = fmt.Sprintf("step %d: range [%v,%v]", step, lo, hi)
					case op < 8:
						preds := query.Predicates(s.Query().Where)
						w := []float64{0.5, 1, 1.5, 2, 3}[rng.Intn(5)]
						if err := s.SetWeight(preds[rng.Intn(len(preds))], w); err != nil {
							t.Fatal(err)
						}
						label = fmt.Sprintf("step %d: weight %v", step, w)
					case op < 9:
						if !s.CanUndo() {
							continue
						}
						if err := s.Undo(); err != nil {
							t.Fatal(err)
						}
						label = fmt.Sprintf("step %d: undo", step)
					default:
						pct := []float64{0.001, 0.01, 0.05}[rng.Intn(3)]
						if err := s.SetPercentDisplayed(pct); err != nil {
							t.Fatal(err)
						}
						label = fmt.Sprintf("step %d: pct %v", step, pct)
					}
					if err := matchesFullSort(label, s, cat, s.opt); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

// TestWarmRerunsPruneChunks: weight-only reruns on a selection saturated
// with exact answers must leave most root chunks without a refined row —
// and stay bit-identical to FullSort while doing so.
func TestWarmRerunsPruneChunks(t *testing.T) {
	const n = 40000
	cat := rankScaleCatalog(t, n)
	opt := core.Options{GridW: 16, GridH: 16}
	sql := `SELECT a FROM S WHERE a >= 0 OR c BETWEEN 20 AND 30`
	s, err := NewSQL(cat, nil, opt, sql)
	if err != nil {
		t.Fatal(err)
	}
	pred := query.Predicates(s.Query().Where)[0]
	prunedTotal := 0
	for i := 0; i < 4; i++ {
		if err := s.SetWeight(pred, float64(2+i%2)); err != nil {
			t.Fatal(err)
		}
		tm := s.Result().Timings
		if tm.Chunks == 0 {
			t.Fatalf("rerun %d reports no chunks: %+v", i, tm)
		}
		prunedTotal += tm.Pruned
		if err := matchesFullSort(fmt.Sprintf("rerun %d", i), s, cat, opt); err != nil {
			t.Fatal(err)
		}
	}
	if prunedTotal == 0 {
		t.Fatal("warm reruns never pruned a chunk on a saturated selection")
	}
}
