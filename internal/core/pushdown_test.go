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
// against the resident catalog and its segment file must produce, at
// every step, the results of a fresh FullSort engine, bit for bit; both
// engines must skip the same segments at every step, and must actually
// have skipped some.
func TestPushdownLockstepReplay(t *testing.T) {
	const rows = 5*dataset.SegmentSize + 301
	mem := clusteredCatalog(t, rows)
	path := filepath.Join(t.TempDir(), "c.vseg")
	if _, err := dataset.WriteCatalogFile(path, mem); err != nil {
		t.Fatal(err)
	}
	base := Options{GridW: 16, GridH: 16}
	fullSort := base
	fullSort.FullSort = true
	engines := []struct {
		name string
		eng  *Engine
	}{
		{"memory", New(mem, nil, base)},
		// A tiny decode cache forces real cold decodes on every leaf
		// recompute, so the skip path is exercised, not the LRU.
		{"file", New(openSegFile(t, path, 1<<16), nil, base)},
	}
	caches := []*RunCache{NewRunCache(), NewRunCache()}

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
	skippedTotal := 0
	for si, sql := range script {
		q, err := query.Parse(sql)
		if err != nil {
			t.Fatalf("step %d: %v", si, err)
		}
		ref, err := New(mem, nil, fullSort).Run(q)
		if err != nil {
			t.Fatalf("step %d (reference): %v", si, err)
		}
		results := make([]*Result, len(engines))
		for ei, e := range engines {
			res, err := runCached(e.eng, q, caches[ei])
			if err != nil {
				t.Fatalf("step %d (%s): %v", si, e.name, err)
			}
			results[ei] = res
			sameResults(t, ref, res)
			samePredicateInfos(t, sql, ref, res)
		}
		if a, b := results[0].Timings, results[1].Timings; a.SegsSkipped != b.SegsSkipped || a.Segs != b.Segs {
			t.Fatalf("step %d: memory skipped %d/%d segments, file %d/%d", si, a.SegsSkipped, a.Segs, b.SegsSkipped, b.Segs)
		}
		skippedTotal += results[0].Timings.SegsSkipped
	}
	if skippedTotal == 0 {
		t.Fatal("the script never skipped a segment — pushdown inactive")
	}
}

// TestPushdownKeepsSignedDistances: a 2D arrangement's axis condition
// whose segments the pushdown skips gets the signed distances
// refRangeLeaf defines — +0 on every skipped row, like its distances —
// and places every item where the 2D reference does.
func TestPushdownKeepsSignedDistances(t *testing.T) {
	cat := clusteredCatalog(t, 5*dataset.SegmentSize+301)
	const sql = `SELECT t FROM C WHERE t BETWEEN 20 AND 80 AND u < 60`
	opt := Options{GridW: 16, GridH: 16, Arrangement: Arrange2D, AxisX: "t", AxisY: "u"}
	q := mustParse(t, sql)
	res, err := runCached(New(cat, nil, opt), q, NewRunCache())
	if err != nil {
		t.Fatal(err)
	}
	if res.Timings.SegsSkipped == 0 {
		t.Fatal("the pushdown skipped no segment")
	}
	tbl, err := cat.Table("C")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range query.Predicates(q.Where) {
		c := p.(*query.Cond)
		vals, err := tbl.FloatsOf(c.Attr)
		if err != nil {
			t.Fatal(err)
		}
		_, want, _ := refRangeLeaf(c, vals)
		got, _ := res.signedOf(c.Attr)
		if len(got) != len(want) {
			t.Fatalf("axis %s: %d signed distances for %d items", c.Attr, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("axis %s, item %d (value %v): signed %v, want %v", c.Attr, i, vals[i], got[i], want[i])
			}
		}
	}
	same2D(t, sql, res, reference2D(t, cat, opt, q))
}
