package core

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query"
)

// panelOracle computes a condition's panel fields with nothing of the
// engine's but the ranking: the lowest and highest of the displayed
// items' values, read cell by cell off tbl (the in-memory original,
// whatever backs the engine), where rowOf maps an item to its row of
// tbl.
func panelOracle(t *testing.T, res *Result, tbl *dataset.Table, attr string, rowOf func(item int) int) (all [2]float64) {
	t.Helper()
	all = [2]float64{math.Inf(1), math.Inf(-1)}
	for rank := 0; rank < res.Displayed; rank++ {
		item := res.Order[rank]
		cell, err := tbl.Value(rowOf(item), attr)
		if err != nil {
			t.Fatal(err)
		}
		v, ok := cell.AsFloat()
		if !ok || math.IsNaN(v) {
			continue
		}
		all = [2]float64{math.Min(all[0], v), math.Max(all[1], v)}
	}
	return all
}

// checkPanel holds PredicateInfos' First/LastDisplayed of res's pi-th
// predicate against panelOracle.
func checkPanel(t *testing.T, what string, res *Result, pi int, tbl *dataset.Table, attr string, rowOf func(item int) int) {
	t.Helper()
	c := query.Predicates(res.Query.Where)[pi].(*query.Cond)
	all := panelOracle(t, res, tbl, attr, rowOf)
	info := res.PredicateInfos()[pi]
	if !info.Numeric || info.FirstDisplayed != all[0] || info.LastDisplayed != all[1] {
		t.Fatalf("%s: %s displayed [%v, %v] (numeric %v), the table says [%v, %v]",
			what, c.Label(), info.FirstDisplayed, info.LastDisplayed, info.Numeric, all[0], all[1])
	}
}

// TestPanelValuesComeFromTheCatalog: a cached leaf keeps no copy of its
// column, so the panel's attribute values — first/last displayed — are
// read from the catalog. They must be the
// table's own values whatever backs it (memory or its segment file;
// segments the scan skipped included; null cells excluded), through a pair
// space's row mapping, and absent for the kinds that have no numeric
// value.
func TestPanelValuesComeFromTheCatalog(t *testing.T) {
	mem := clusteredCatalog(t, 5*dataset.SegmentSize+301)
	tbl, err := mem.Table("C")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c.vseg")
	if _, err := dataset.WriteCatalogFile(path, mem); err != nil {
		t.Fatal(err)
	}
	identity := func(item int) int { return item }
	for _, backing := range []struct {
		name string
		open func() *dataset.Catalog
	}{
		{"memory", func() *dataset.Catalog { return mem }},
		{"file", func() *dataset.Catalog { return openSegFile(t, path, 8<<20) }},
	} {
		e := New(backing.open(), nil, Options{GridW: 128, GridH: 128})
		cache := NewRunCache()
		for _, sql := range []string{
			`SELECT t FROM C WHERE t BETWEEN 19 AND 61 AND n > 70`,
			`SELECT t FROM C WHERE t BETWEEN 19 AND 61 AND n > 70 WEIGHT 3`, // warm: both leaves cached
		} {
			res, err := runCached(e, mustParse(t, sql), cache)
			if err != nil {
				t.Fatal(err)
			}
			checkPanel(t, backing.name, res, 0, tbl, "t", identity)
			checkPanel(t, backing.name, res, 1, tbl, "n", identity)
		}
	}

	// A two-table pair space: an item's value is its row's in the
	// predicate's own table.
	env := envCatalog(t)
	res, err := New(env, nil, Options{GridW: 8, GridH: 8}).RunSQL(
		`SELECT Temperature FROM Weather, Air-Pollution WHERE Temperature > 24 AND Ozone < 26`)
	if err != nil {
		t.Fatal(err)
	}
	for pi, side := range []struct {
		table, attr string
		row         func(l, r int) int
	}{
		{"Weather", "Temperature", func(l, _ int) int { return l }},
		{"Air-Pollution", "Ozone", func(_, r int) int { return r }},
	} {
		tbl, err := env.Table(side.table)
		if err != nil {
			t.Fatal(err)
		}
		checkPanel(t, "pair space", res, pi, tbl, side.attr, func(item int) int {
			l, r, ok := res.Pair(item)
			if !ok {
				t.Fatalf("item %d is no pair", item)
			}
			return side.row(l, r)
		})
	}

	// String, ordinal and nominal predicates have distances but no
	// numeric attribute value.
	kinds := dataset.NewCatalog()
	kt, err := dataset.NewTable("K", dataset.Schema{
		{Name: "s", Kind: dataset.KindString},
		{Name: "o", Kind: dataset.KindOrdinal, Categories: []string{"low", "mid", "high"}},
		{Name: "m", Kind: dataset.KindNominal, Categories: []string{"red", "green"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range []string{"alpha", "beta", "gamma", "delta"} {
		if err := kt.AppendRow(dataset.Str(s), dataset.Ordinal([]string{"low", "mid", "high"}[i%3]), dataset.Nominal([]string{"red", "green"}[i%2])); err != nil {
			t.Fatal(err)
		}
	}
	if err := kinds.AddTable(kt); err != nil {
		t.Fatal(err)
	}
	res, err = New(kinds, nil, Options{GridW: 4, GridH: 4}).RunSQL(`SELECT s FROM K WHERE s = 'beta' AND o >= 'mid' AND m = 'red'`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Displayed == 0 {
		t.Fatal("nothing displayed")
	}
	for pi, info := range res.PredicateInfos() {
		c := query.Predicates(res.Query.Where)[pi].(*query.Cond)
		if info.Numeric || !math.IsNaN(info.FirstDisplayed) || !math.IsNaN(info.LastDisplayed) {
			t.Fatalf("%s: displayed [%v, %v], numeric %v", c.Label(), info.FirstDisplayed, info.LastDisplayed, info.Numeric)
		}
	}
}

// openSegFile opens a segment catalog, closing it with the test.
func openSegFile(t *testing.T, path string, cacheBytes int64) *dataset.Catalog {
	t.Helper()
	c, err := dataset.OpenCatalogFile(path, dataset.OpenOptions{CacheBytes: cacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}
