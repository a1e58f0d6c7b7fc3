package query

import (
	"strings"
	"testing"

	"repro/internal/dataset"
)

// paperQuery is the example query of section 4.1 in the text dialect.
const paperQuery = `
SELECT Temperature, Solar_Radiation, Humidity, Ozone
FROM Weather, Air-Pollution
WHERE (Temperature > 15.0 OR Solar_Radiation > 600 OR Humidity < 60)
  AND CONNECT with-time-diff(120)`

func TestParsePaperQuery(t *testing.T) {
	q, err := Parse(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Select) != 4 || q.Select[0].Attr != "Temperature" {
		t.Fatalf("select: %+v", q.Select)
	}
	if len(q.From) != 2 || q.From[1] != "Air-Pollution" {
		t.Fatalf("from: %+v", q.From)
	}
	root, ok := q.Where.(*BoolExpr)
	if !ok || root.Op != And || len(root.Children) != 2 {
		t.Fatalf("root: %#v", q.Where)
	}
	orPart, ok := root.Children[0].(*BoolExpr)
	if !ok || orPart.Op != Or || len(orPart.Children) != 3 {
		t.Fatalf("or part: %#v", root.Children[0])
	}
	c0 := orPart.Children[0].(*Cond)
	if c0.Attr != "Temperature" || c0.Op != OpGt || c0.Value.F != 15.0 {
		t.Fatalf("cond 0: %+v", c0)
	}
	join, ok := root.Children[1].(*JoinExpr)
	if !ok || join.Connection != "with-time-diff" || !join.HasParam || join.Param != 120 {
		t.Fatalf("join: %#v", root.Children[1])
	}
}

func TestParseWeightsAndUsing(t *testing.T) {
	q, err := Parse(`SELECT * FROM T WHERE Name = 'Smith' USING phonetic WEIGHT 2 AND Age > 30 WEIGHT 0.5`)
	if err != nil {
		t.Fatal(err)
	}
	root := q.Where.(*BoolExpr)
	c0 := root.Children[0].(*Cond)
	if c0.DistFunc != "phonetic" || c0.Weight() != 2 {
		t.Fatalf("c0: %+v", c0)
	}
	c1 := root.Children[1].(*Cond)
	if c1.Weight() != 0.5 {
		t.Fatalf("c1 weight: %v", c1.Weight())
	}
}

func TestParseBetweenAndIn(t *testing.T) {
	q, err := Parse(`SELECT * FROM T WHERE x BETWEEN 1 AND 5 AND color IN ('red', 'blue')`)
	if err != nil {
		t.Fatal(err)
	}
	root := q.Where.(*BoolExpr)
	b := root.Children[0].(*Cond)
	if b.Op != OpBetween || b.Lo.F != 1 || b.Hi.F != 5 {
		t.Fatalf("between: %+v", b)
	}
	in := root.Children[1].(*Cond)
	if in.Op != OpIn || len(in.List) != 2 || in.List[0].S != "red" {
		t.Fatalf("in: %+v", in)
	}
}

func TestParseSubqueries(t *testing.T) {
	q, err := Parse(`SELECT * FROM A WHERE EXISTS (SELECT y FROM B WHERE y > 3) WEIGHT 2`)
	if err != nil {
		t.Fatal(err)
	}
	sub := q.Where.(*SubqueryExpr)
	if sub.Mode != Exists || sub.Weight() != 2 || sub.Sub.From[0] != "B" {
		t.Fatalf("exists: %+v", sub)
	}
	q, err = Parse(`SELECT * FROM A WHERE x IN (SELECT y FROM B)`)
	if err != nil {
		t.Fatal(err)
	}
	sub = q.Where.(*SubqueryExpr)
	if sub.Mode != InQuery || sub.Attr != "x" {
		t.Fatalf("in-query: %+v", sub)
	}
	q, err = Parse(`SELECT * FROM A WHERE x NOT IN (SELECT y FROM B)`)
	if err != nil {
		t.Fatal(err)
	}
	sub = q.Where.(*SubqueryExpr)
	if sub.Mode != NotInQuery {
		t.Fatalf("not-in: %+v", sub)
	}
	q, err = Parse(`SELECT * FROM A WHERE NOT EXISTS (SELECT y FROM B)`)
	if err != nil {
		t.Fatal(err)
	}
	sub = q.Where.(*SubqueryExpr)
	if sub.Mode != NotExists {
		t.Fatalf("not-exists: %+v", sub)
	}
}

func TestParseNotAndPrecedence(t *testing.T) {
	q, err := Parse(`SELECT * FROM T WHERE a > 1 OR b > 2 AND c > 3`)
	if err != nil {
		t.Fatal(err)
	}
	// AND binds tighter: OR(a>1, AND(b>2, c>3)).
	root := q.Where.(*BoolExpr)
	if root.Op != Or || len(root.Children) != 2 {
		t.Fatalf("root: %#v", root)
	}
	if inner, ok := root.Children[1].(*BoolExpr); !ok || inner.Op != And {
		t.Fatalf("inner: %#v", root.Children[1])
	}
	q, err = Parse(`SELECT * FROM T WHERE NOT (a > 1)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := q.Where.(*Not); !ok {
		t.Fatalf("not: %#v", q.Where)
	}
}

func TestParseAggregates(t *testing.T) {
	q, err := Parse(`SELECT AVG(x), COUNT(*), MAX(T.y) FROM T`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Select[0].Agg != AggAvg || q.Select[0].Attr != "x" {
		t.Fatalf("avg: %+v", q.Select[0])
	}
	if q.Select[1].Agg != AggCount || q.Select[1].Attr != "*" {
		t.Fatalf("count: %+v", q.Select[1])
	}
	if q.Select[2].Agg != AggMax || q.Select[2].Attr != "T.y" {
		t.Fatalf("max: %+v", q.Select[2])
	}
}

func TestParseLiterals(t *testing.T) {
	q, err := Parse(`SELECT * FROM T WHERE ts = '1994-02-14T08:00:00Z' AND ok = TRUE AND bad = FALSE`)
	if err != nil {
		t.Fatal(err)
	}
	root := q.Where.(*BoolExpr)
	if root.Children[0].(*Cond).Value.Kind != dataset.KindTime {
		t.Error("RFC3339 string should parse as time")
	}
	if !root.Children[1].(*Cond).Value.B {
		t.Error("TRUE literal")
	}
	if root.Children[2].(*Cond).Value.B {
		t.Error("FALSE literal")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT x`,
		`SELECT x FROM`,
		`SELECT x FROM T WHERE`,
		`SELECT x FROM T WHERE x >`,
		`SELECT x FROM T WHERE x ! 3`,
		`SELECT x FROM T WHERE x = 'unterminated`,
		`SELECT x FROM T WHERE x IN ()`,
		`SELECT x FROM T WHERE x BETWEEN 1`,
		`SELECT x FROM T WHERE CONNECT`,
		`SELECT x FROM T WHERE CONNECT c(`,
		`SELECT x FROM T WHERE x > 1 WEIGHT -2`,
		`SELECT x FROM T WHERE x > 1 trailing`,
		`SELECT x FROM T WHERE x > 1 USING`,
		`SELECT x FROM T WHERE EXISTS x`,
		`SELECT AVG( FROM T`,
		`SELECT x FROM T WHERE ? > 1`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// Round trip: String() output reparses to an identical String().
func TestParseStringRoundTrip(t *testing.T) {
	srcs := []string{
		paperQuery,
		`SELECT * FROM T WHERE a BETWEEN 1 AND 5 WEIGHT 3`,
		`SELECT x FROM T WHERE name = 'O''Brien' USING edit`,
		`SELECT x FROM A, B WHERE EXISTS (SELECT y FROM B WHERE y > 3) WEIGHT 2 AND CONNECT c(5)`,
		`SELECT x FROM T WHERE NOT (a > 1) OR b IN (1, 2, 3)`,
		`SELECT AVG(x), COUNT(*) FROM T WHERE (a > 1 OR b > 2) AND c <= 5 WEIGHT 0.25`,
	}
	for _, src := range srcs {
		q1, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		s1 := q1.String()
		q2, err := Parse(s1)
		if err != nil {
			t.Fatalf("reparse %q: %v", s1, err)
		}
		if s2 := q2.String(); s1 != s2 {
			t.Errorf("round trip drifted:\n  %s\n  %s", s1, s2)
		}
	}
}

func TestOpInvert(t *testing.T) {
	cases := []struct {
		in   Op
		want Op
		ok   bool
	}{
		{OpLt, OpGe, true},
		{OpLe, OpGt, true},
		{OpGt, OpLe, true},
		{OpGe, OpLt, true},
		{OpEq, OpEq, false},
		{OpIn, OpIn, false},
		{OpBetween, OpBetween, false},
	}
	for _, c := range cases {
		got, ok := c.in.Invert()
		if got != c.want || ok != c.ok {
			t.Errorf("Invert(%s) = %s,%v", c.in, got, ok)
		}
	}
}

func TestPredicatesAndWalk(t *testing.T) {
	q, _ := Parse(paperQuery)
	preds := Predicates(q.Where)
	if len(preds) != 2 {
		t.Fatalf("top-level predicates: %d", len(preds))
	}
	count := 0
	Walk(q.Where, func(Expr) { count++ })
	// AND + OR + 3 conds + join = 6 nodes.
	if count != 6 {
		t.Errorf("walked %d nodes, want 6", count)
	}
	if Predicates(nil) != nil {
		t.Error("nil expr has no predicates")
	}
	single, _ := Parse(`SELECT a FROM T WHERE a > 1`)
	if got := Predicates(single.Where); len(got) != 1 {
		t.Errorf("leaf predicates: %d", len(got))
	}
}

func TestWalkSubquery(t *testing.T) {
	q, _ := Parse(`SELECT * FROM A WHERE EXISTS (SELECT y FROM B WHERE y > 3 AND z < 1)`)
	count := 0
	Walk(q.Where, func(Expr) { count++ })
	// subquery node + inner AND + 2 conds = 4.
	if count != 4 {
		t.Errorf("walked %d nodes, want 4", count)
	}
}

func TestGradiRendering(t *testing.T) {
	q, _ := Parse(paperQuery)
	art := Gradi(q)
	for _, want := range []string{
		"Query Representation",
		"Result List: Temperature, Solar_Radiation, Humidity, Ozone",
		"From: Weather, Air-Pollution",
		"AND",
		"OR",
		"[Temperature > 15]",
		"[CONNECT with-time-diff(120)]",
	} {
		if !strings.Contains(art, want) {
			t.Errorf("Gradi output missing %q:\n%s", want, art)
		}
	}
	// Subqueries render as double boxes.
	q2, _ := Parse(`SELECT * FROM A WHERE EXISTS (SELECT y FROM B WHERE y > 3)`)
	art2 := Gradi(q2)
	if !strings.Contains(art2, "[[EXISTS subquery]]") {
		t.Errorf("double box missing:\n%s", art2)
	}
	if !strings.Contains(art2, "[y > 3]") {
		t.Errorf("nested condition missing:\n%s", art2)
	}
	// No condition.
	q3, _ := Parse(`SELECT * FROM A`)
	if !strings.Contains(Gradi(q3), "(no condition)") {
		t.Error("no-condition marker missing")
	}
	// Weight annotation.
	q4, _ := Parse(`SELECT * FROM A WHERE x > 1 WEIGHT 3`)
	if !strings.Contains(Gradi(q4), "(weight 3)") {
		t.Error("weight annotation missing")
	}
	// Negation renders as an operator box over its operand.
	q5, _ := Parse(`SELECT * FROM A WHERE a > 1 AND NOT (b < 2)`)
	if art5 := Gradi(q5); !strings.Contains(art5, "NOT") || !strings.Contains(art5, "[b < 2]") {
		t.Errorf("negation missing:\n%s", art5)
	}
}
