package baseline

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query"
)

func TestConnectionsUnsupported(t *testing.T) {
	c := dataset.NewCatalog()
	a, _ := dataset.NewTable("A", dataset.Schema{{Name: "x", Kind: dataset.KindFloat}})
	b, _ := dataset.NewTable("B", dataset.Schema{{Name: "y", Kind: dataset.KindFloat}})
	_ = a.AppendRow(dataset.Float(1))
	_ = b.AppendRow(dataset.Float(1))
	_ = c.AddTable(a)
	_ = c.AddTable(b)
	if err := c.AddConnection(dataset.Connection{
		Name: "conn", Left: "A", Right: "B", LeftAttr: "x", RightAttr: "y",
		Metric: dataset.MetricNumeric, Mode: dataset.ModeEqual,
	}); err != nil {
		t.Fatal(err)
	}
	_, err := MatchesSQL(c, `SELECT x FROM A WHERE CONNECT conn`)
	if err == nil || !strings.Contains(err.Error(), "connections unsupported") {
		t.Fatalf("expected connections-unsupported error, got %v", err)
	}
}

func TestEmptyConditionMatchesEverything(t *testing.T) {
	c := cat(t)
	rows, err := MatchesSQL(c, `SELECT x FROM T`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows: %v", rows)
	}
}

func TestWeightsDoNotChangeBooleanSemantics(t *testing.T) {
	c := cat(t)
	a, err := MatchesSQL(c, `SELECT x FROM T WHERE x > 2`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MatchesSQL(c, `SELECT x FROM T WHERE x > 2 WEIGHT 9`)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("weights changed boolean results: %v vs %v", a, b)
	}
}

func TestUnboundConditionError(t *testing.T) {
	c := cat(t)
	// A hand-built condition that was never bound trips the
	// defensive error path.
	q, err := query.Parse(`SELECT x FROM T WHERE x > 1`)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := c.Table("T")
	_, evalErr := evalExpr(&query.Cond{Attr: "x", Op: query.OpGt}, &query.Binding{Attrs: map[*query.Cond]query.BoundAttr{}}, c, tbl, 0)
	if evalErr == nil {
		t.Error("unbound condition should error")
	}
	_ = q
}
