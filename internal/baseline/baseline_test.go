package baseline

import (
	"testing"

	"repro/internal/dataset"
)

func cat(t *testing.T) *dataset.Catalog {
	t.Helper()
	c := dataset.NewCatalog()
	tbl, err := dataset.NewTable("T", dataset.Schema{
		{Name: "x", Kind: dataset.KindFloat},
		{Name: "name", Kind: dataset.KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"ann", "bob", "cat", "dan", "eve"}
	for i := 0; i < 5; i++ {
		if err := tbl.AppendRow(dataset.Float(float64(i)), dataset.Str(names[i])); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.AppendRow(dataset.Null(dataset.KindFloat), dataset.Null(dataset.KindString)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	other, err := dataset.NewTable("O", dataset.Schema{{Name: "y", Kind: dataset.KindFloat}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{2, 3} {
		if err := other.AppendRow(dataset.Float(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AddTable(other); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMatchesOperators(t *testing.T) {
	c := cat(t)
	cases := []struct {
		src  string
		want []int
	}{
		{`SELECT x FROM T WHERE x > 2`, []int{3, 4}},
		{`SELECT x FROM T WHERE x >= 2`, []int{2, 3, 4}},
		{`SELECT x FROM T WHERE x < 1`, []int{0}},
		{`SELECT x FROM T WHERE x <= 1`, []int{0, 1}},
		{`SELECT x FROM T WHERE x = 3`, []int{3}},
		{`SELECT x FROM T WHERE x <> 3`, []int{0, 1, 2, 4}},
		{`SELECT x FROM T WHERE x BETWEEN 1 AND 3`, []int{1, 2, 3}},
		{`SELECT x FROM T WHERE x IN (0, 4)`, []int{0, 4}},
		{`SELECT x FROM T WHERE name = 'cat'`, []int{2}},
		{`SELECT x FROM T WHERE name BETWEEN 'b' AND 'd'`, []int{1, 2}},
		{`SELECT x FROM T WHERE name IN ('ann', 'eve')`, []int{0, 4}},
		{`SELECT x FROM T WHERE x > 1 AND x < 4`, []int{2, 3}},
		{`SELECT x FROM T WHERE x < 1 OR x > 3`, []int{0, 4}},
		{`SELECT x FROM T WHERE NOT (x > 2)`, []int{0, 1, 2, 5}}, // NULL: NOT(false)=true in 2VL
		{`SELECT x FROM T`, []int{0, 1, 2, 3, 4, 5}},
	}
	for _, tc := range cases {
		got, err := MatchesSQL(c, tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if len(got) != len(tc.want) {
			t.Errorf("%s: got %v, want %v", tc.src, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%s: got %v, want %v", tc.src, got, tc.want)
				break
			}
		}
	}
}

func TestMatchesSubqueries(t *testing.T) {
	c := cat(t)
	got, err := MatchesSQL(c, `SELECT x FROM T WHERE x IN (SELECT y FROM O WHERE y > 2)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("IN subquery: %v", got)
	}
	got, err = MatchesSQL(c, `SELECT x FROM T WHERE x NOT IN (SELECT y FROM O)`)
	if err != nil {
		t.Fatal(err)
	}
	// x=0,1,4 (not 2,3); NULL row: false.
	if len(got) != 3 || got[0] != 0 || got[2] != 4 {
		t.Fatalf("NOT IN: %v", got)
	}
	got, err = MatchesSQL(c, `SELECT x FROM T WHERE EXISTS (SELECT y FROM O WHERE y > 10)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty EXISTS: %v", got)
	}
	got, err = MatchesSQL(c, `SELECT x FROM T WHERE NOT EXISTS (SELECT y FROM O WHERE y > 10)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("NOT EXISTS: %v", got)
	}
}

func TestCountAndErrors(t *testing.T) {
	c := cat(t)
	rows, err := MatchesSQL(c, `SELECT x FROM T WHERE x > 2`)
	if err != nil || len(rows) != 2 {
		t.Fatalf("count: %d %v", len(rows), err)
	}
	if _, err := MatchesSQL(c, `SELECT x FROM T, O WHERE x > 1`); err == nil {
		t.Error("multi-table should fail")
	}
	if _, err := MatchesSQL(c, `garbage`); err == nil {
		t.Error("parse error should propagate")
	}
	if _, err := MatchesSQL(c, `SELECT zz FROM T`); err == nil {
		t.Error("bind error should propagate")
	}
}

func TestNullSemantics(t *testing.T) {
	c := cat(t)
	// The NULL row never satisfies positive predicates.
	for _, src := range []string{
		`SELECT x FROM T WHERE x > -100`,
		`SELECT x FROM T WHERE name <> 'zzz'`,
		`SELECT x FROM T WHERE x IN (0,1,2,3,4)`,
	} {
		got, err := MatchesSQL(c, src)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range got {
			if r == 5 {
				t.Errorf("%s: NULL row matched", src)
			}
		}
	}
}
