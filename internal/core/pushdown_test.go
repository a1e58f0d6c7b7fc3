package core

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query"
)

// clusteredCatalog builds the pushdown test bed: a clustered column t
// (ascending with noise, so segments cover narrow value slices), a
// uniform column u (segments span the whole domain — never skippable),
// and a clustered column with scattered nulls (null segments must not
// skip). Returned in memory; tests write it to disk themselves.
func clusteredCatalog(t *testing.T, rows int) *dataset.Catalog {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	tbl, err := dataset.NewTable("C", dataset.Schema{
		{Name: "t", Kind: dataset.KindFloat},
		{Name: "u", Kind: dataset.KindFloat},
		{Name: "n", Kind: dataset.KindFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rows; r++ {
		tv := dataset.Float(float64(r)/float64(rows)*100 + rng.Float64())
		nv := tv
		if r%523 == 7 {
			nv = dataset.Null(dataset.KindFloat)
		}
		if err := tbl.AppendRow(tv, dataset.Float(rng.Float64()*100), nv); err != nil {
			t.Fatal(err)
		}
	}
	cat := dataset.NewCatalog()
	if err := cat.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	return cat
}

// samePredicateInfos compares the slider panels — FirstDisplayed and
// LastDisplayed are read from the catalog, skipped segments included.
func samePredicateInfos(t *testing.T, step string, a, b *Result) {
	t.Helper()
	ia, ib := a.PredicateInfos(), b.PredicateInfos()
	if len(ia) != len(ib) {
		t.Fatalf("%s: %d vs %d predicate infos", step, len(ia), len(ib))
	}
	eq := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	}
	for i := range ia {
		x, y := ia[i], ib[i]
		if x.NumResults != y.NumResults || !eq(x.FirstDisplayed, y.FirstDisplayed) ||
			!eq(x.LastDisplayed, y.LastDisplayed) || !eq(x.MinDB, y.MinDB) || !eq(x.MaxDB, y.MaxDB) {
			t.Fatalf("%s: predicate %d infos differ: %+v vs %+v", step, i, x, y)
		}
	}
}

// TestPushdownLockstepReplay is the bit-identity contract of the
// segment-stats pushdown: the same randomized interaction script —
// range slides on the skippable clustered column, weight changes, a
// strict operator, predicates on never-skippable columns — replayed
// against the resident catalog and its segment file, each with stats on
// and with stats off (Options.NoSegmentStats), must produce bit-identical
// results at every step; both stats-on engines must skip the same
// segments at every step, and must actually have skipped some.
func TestPushdownLockstepReplay(t *testing.T) {
	const rows = 5*dataset.SegmentSize + 301
	mem := clusteredCatalog(t, rows)
	path := filepath.Join(t.TempDir(), "c.vseg")
	if _, err := dataset.WriteCatalogFile(path, mem); err != nil {
		t.Fatal(err)
	}
	open := func() *dataset.Catalog {
		// A tiny decode cache forces real cold decodes on every leaf
		// recompute, so the skip path is exercised, not the LRU.
		return openSegFile(t, path, 1<<16)
	}
	base := Options{GridW: 16, GridH: 16}
	noStats := base
	noStats.NoSegmentStats = true
	engines := []struct {
		name    string
		eng     *Engine
		statsOn bool
	}{
		{"memory", New(mem, nil, base), true},
		{"memory-stats-off", New(mem, nil, noStats), false},
		{"file", New(open(), nil, base), true},
		{"file-stats-off", New(open(), nil, noStats), false},
	}
	caches := make([]*RunCache, len(engines))
	for i := range caches {
		caches[i] = NewRunCache()
	}

	// The script mixes cold leaves (fresh ranges), warm replays
	// (repeated ranges), strict bounds, and an always-unskippable
	// predicate; rendered as full queries so every engine replays the
	// identical edit sequence.
	rng := rand.New(rand.NewSource(23))
	var script []string
	for step := 0; step < 12; step++ {
		lo := float64(rng.Intn(40))
		hi := lo + 20 + float64(rng.Intn(40))
		switch step % 4 {
		case 0:
			script = append(script, fmt.Sprintf(`SELECT t FROM C WHERE t BETWEEN %g AND %g`, lo, hi))
		case 1:
			script = append(script, fmt.Sprintf(`SELECT t FROM C WHERE t > %g AND u < 60 WEIGHT 2`, lo))
		case 2:
			script = append(script, fmt.Sprintf(`SELECT t FROM C WHERE t < %g OR n BETWEEN %g AND %g`, hi, lo, hi))
		case 3:
			script = append(script, fmt.Sprintf(`SELECT t FROM C WHERE n > %g AND u BETWEEN 10 AND 90`, lo))
		}
	}
	skippedTotal := make([]int, len(engines))
	for si, sql := range script {
		q, err := query.Parse(sql)
		if err != nil {
			t.Fatalf("step %d: %v", si, err)
		}
		results := make([]*Result, len(engines))
		for ei, e := range engines {
			res, err := runCached(e.eng, q, caches[ei])
			if err != nil {
				t.Fatalf("step %d (%s): %v", si, e.name, err)
			}
			results[ei] = res
			skippedTotal[ei] += res.Timings.SegsSkipped
			if !e.statsOn && res.Timings.SegsSkipped != 0 {
				t.Fatalf("step %d (%s): skipped %d segments with pushdown off",
					si, e.name, res.Timings.SegsSkipped)
			}
		}
		if a, b := results[0].Timings, results[2].Timings; a.SegsSkipped != b.SegsSkipped || a.Segs != b.Segs {
			t.Fatalf("step %d: memory skipped %d/%d segments, file %d/%d", si, a.SegsSkipped, a.Segs, b.SegsSkipped, b.Segs)
		}
		for ei := 1; ei < len(engines); ei++ {
			sameResults(t, results[0], results[ei])
			samePredicateInfos(t, sql, results[0], results[ei])
		}
	}
	for ei, e := range engines {
		if e.statsOn && skippedTotal[ei] == 0 {
			t.Fatalf("%s: the script never skipped a segment — pushdown inactive", e.name)
		}
	}
}

// TestPushdownKeepsSignedDistances: a 2D arrangement's axis condition
// whose segments the pushdown skips gets the signed distances it gets
// with the pushdown off — +0 on every skipped row, like its distances —
// and places every item in the same cell.
func TestPushdownKeepsSignedDistances(t *testing.T) {
	cat := clusteredCatalog(t, 5*dataset.SegmentSize+301)
	const sql = `SELECT t FROM C WHERE t BETWEEN 20 AND 80 AND u < 60`
	base := Options{GridW: 16, GridH: 16, Arrangement: Arrange2D, AxisX: "t", AxisY: "u"}
	noStats := base
	noStats.NoSegmentStats = true
	on, err := runCached(New(cat, nil, base), mustParse(t, sql), NewRunCache())
	if err != nil {
		t.Fatal(err)
	}
	off, err := runCached(New(cat, nil, noStats), mustParse(t, sql), NewRunCache())
	if err != nil {
		t.Fatal(err)
	}
	if on.Timings.SegsSkipped == 0 || off.Timings.SegsSkipped != 0 {
		t.Fatalf("skipped %d segments with stats on, %d with them off", on.Timings.SegsSkipped, off.Timings.SegsSkipped)
	}
	for _, axis := range []string{"t", "u"} {
		a, b := on.signedOf(axis), off.signedOf(axis)
		if len(a) != on.N || len(b) != on.N {
			t.Fatalf("axis %s: %d and %d signed distances for %d items", axis, len(a), len(b), on.N)
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("axis %s, item %d: %v with the pushdown, %v without", axis, i, a[i], b[i])
			}
		}
	}
	sameResults(t, off, on)
	for rank := 0; rank < on.Displayed; rank++ {
		if on.CellOfRank(rank) != off.CellOfRank(rank) {
			t.Fatalf("rank %d: cell %v with the pushdown, %v without", rank, on.CellOfRank(rank), off.CellOfRank(rank))
		}
	}
}
