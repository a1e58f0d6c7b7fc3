package visdb_test

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/visdb"
)

// TestPublicAPIQuickstart exercises the documented quickstart flow end
// to end through the public API only.
func TestPublicAPIQuickstart(t *testing.T) {
	cat := visdb.NewCatalog()
	tbl, err := visdb.NewTable("T", visdb.Schema{
		{Name: "x", Kind: visdb.KindFloat},
		{Name: "label", Kind: visdb.KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := tbl.AppendRow(visdb.Float(float64(i)), visdb.Str("item")); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	eng := visdb.NewEngine(cat, visdb.Options{GridW: 16, GridH: 16})
	res, err := eng.RunSQL(`SELECT x FROM T WHERE x > 40`)
	if err != nil {
		t.Fatal(err)
	}
	stats := res.Stats()
	if stats.NumObjects != 50 || stats.NumResults != 9 {
		t.Fatalf("stats: %+v", stats)
	}
	img, err := res.Image(2)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "result.png")
	if err := img.SavePNG(path); err != nil {
		t.Fatal(err)
	}
	if ascii := img.ASCII(60, 30); len(ascii) == 0 {
		t.Fatal("ASCII preview empty")
	}
}

func TestPublicAPISession(t *testing.T) {
	cat, _, err := visdb.Environmental(visdb.EnvConfig{Hours: 120, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := visdb.NewSession(cat, visdb.Options{GridW: 12, GridH: 12},
		`SELECT Temperature FROM Weather WHERE Temperature > 18 AND Humidity < 70`)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.FindCond("Temperature")
	if err != nil {
		t.Fatal(err)
	}
	before := s.Result().Stats().NumResults
	if err := s.SetRange(c, 10, 40); err != nil {
		t.Fatal(err)
	}
	after := s.Result().Stats().NumResults
	if after < before {
		t.Fatalf("widening the range should not lose results: %d -> %d", before, after)
	}
	if !strings.Contains(s.PanelText(), "# objects") {
		t.Fatal("panel text")
	}
}

func TestPublicAPIGradi(t *testing.T) {
	q, err := visdb.Parse(`SELECT a FROM T WHERE a > 1 OR b < 2`)
	if err != nil {
		t.Fatal(err)
	}
	art := visdb.Gradi(q)
	if !strings.Contains(art, "OR") {
		t.Fatalf("gradi: %s", art)
	}
	if got := len(visdb.Predicates(q.Where)); got != 2 {
		t.Fatalf("predicates: %d", got)
	}
}

func TestPublicAPIBaselineAndGenerators(t *testing.T) {
	tbl, truth, err := visdb.CADParts(visdb.CADConfig{Parts: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cat := visdb.NewCatalog()
	if err := cat.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	rows, err := visdb.BooleanMatches(cat, visdb.CADQuerySQL(truth, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("boolean query should find the planted exact rows")
	}
	mcat, mtruth, err := visdb.MultiDB(visdb.MultiDBConfig{People: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mcat.Table("PersonsB"); err != nil {
		t.Fatal(err)
	}
	if len(mtruth.Matches) == 0 {
		t.Fatal("no planted matches")
	}
}

func TestPublicAPICustomColormap(t *testing.T) {
	cat := visdb.NewCatalog()
	tbl, _ := visdb.NewTable("T", visdb.Schema{{Name: "x", Kind: visdb.KindFloat}})
	for i := 0; i < 10; i++ {
		if err := tbl.AppendRow(visdb.Float(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	_ = cat.AddTable(tbl)
	for _, m := range []*visdb.Colormap{
		visdb.ColormapVisDB(64),
		visdb.ColormapGrayscale(64),
		visdb.ColormapHeat(64),
		visdb.ColormapOptimized(64),
	} {
		eng := visdb.NewEngine(cat, visdb.Options{GridW: 4, GridH: 4, Map: m})
		res, err := eng.RunSQL(`SELECT x FROM T WHERE x > 5`)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if res.Stats().NumResults != 4 {
			t.Fatalf("%s: results %d", m.Name(), res.Stats().NumResults)
		}
		if _, err := res.Image(1); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
	}
	if visdb.ColormapOptimized(64).JNDs() <= visdb.ColormapGrayscale(64).JNDs() {
		t.Error("optimized map should beat grayscale on JNDs")
	}
}

func TestPublicAPICustomDistance(t *testing.T) {
	cat := visdb.NewCatalog()
	tbl, _ := visdb.NewTable("S", visdb.Schema{{Name: "code", Kind: visdb.KindString}})
	for _, c := range []string{"AAA", "AAB", "ZZZ"} {
		if err := tbl.AppendRow(visdb.Str(c)); err != nil {
			t.Fatal(err)
		}
	}
	_ = cat.AddTable(tbl)
	reg := visdb.NewRegistry()
	reg.RegisterString("firstchar", func(a, b string) float64 {
		if len(a) > 0 && len(b) > 0 && a[0] == b[0] {
			return 0
		}
		return 1
	})
	eng := visdb.NewEngineWithRegistry(cat, reg, visdb.Options{GridW: 4, GridH: 4})
	res, err := eng.RunSQL(`SELECT code FROM S WHERE code = 'AXX' USING firstchar`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats().NumResults != 2 {
		t.Fatalf("custom distance results: %d", res.Stats().NumResults)
	}
}

// TestPublicAPIFullSort exercises the performance option through the
// public API: FullSort and the default selection ranking must agree on
// the display.
func TestPublicAPIFullSort(t *testing.T) {
	cat := visdb.NewCatalog()
	tbl, err := visdb.NewTable("T", visdb.Schema{{Name: "x", Kind: visdb.KindFloat}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := tbl.AppendRow(visdb.Float(float64(i % 977))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	sql := `SELECT x FROM T WHERE x BETWEEN 100 AND 200`
	var ref []int
	for _, opt := range []visdb.Options{
		{GridW: 8, GridH: 8},
		{GridW: 8, GridH: 8, FullSort: true},
	} {
		res, err := visdb.NewEngine(cat, opt).RunSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		shown := res.TopK(res.Stats().NumDisplayed)
		if ref == nil {
			ref = shown
			continue
		}
		if !slices.Equal(shown, ref) {
			t.Fatalf("displayed ranking diverged (opt %+v): %v vs %v", opt, shown, ref)
		}
	}
}
