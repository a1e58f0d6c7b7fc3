package dataset

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func weatherSchema() Schema {
	return Schema{
		{Name: "DateTime", Kind: KindTime},
		{Name: "Temperature", Kind: KindFloat},
		{Name: "Station", Kind: KindString},
		{Name: "Count", Kind: KindInt},
		{Name: "Windy", Kind: KindBool},
		{Name: "Level", Kind: KindOrdinal, Categories: []string{"low", "mid", "high"}},
	}
}

func TestSchemaValidate(t *testing.T) {
	if err := (Schema{}).Validate(); err == nil {
		t.Error("empty schema should fail")
	}
	if err := (Schema{{Name: "", Kind: KindFloat}}).Validate(); err == nil {
		t.Error("empty name should fail")
	}
	if err := (Schema{{Name: "a", Kind: KindFloat}, {Name: "a", Kind: KindInt}}).Validate(); err == nil {
		t.Error("duplicate name should fail")
	}
	if err := (Schema{{Name: "a", Kind: KindOrdinal}}).Validate(); err == nil {
		t.Error("ordinal without categories should fail")
	}
	if err := weatherSchema().Validate(); err != nil {
		t.Errorf("valid schema rejected: %v", err)
	}
}

// TestSchemaRefusesKindOutsideTheEnum: a field's kind is one of
// KindFloat…KindNominal, or the schema, and the table, are refused.
func TestSchemaRefusesKindOutsideTheEnum(t *testing.T) {
	for _, k := range []Kind{-1, KindNominal + 1, 99} {
		if _, err := NewTable("T", Schema{{Name: "x", Kind: k}}); err == nil {
			t.Errorf("a table with a field of %v", k)
		}
	}
}

func TestKindString(t *testing.T) {
	kinds := []Kind{KindFloat, KindInt, KindString, KindTime, KindBool, KindOrdinal, KindNominal}
	for _, k := range kinds {
		if k.String() == "" || strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("kind %d has no name", int(k))
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown kind formatting")
	}
}

func TestTableAppendAndAccess(t *testing.T) {
	tbl, err := NewTable("Weather", weatherSchema())
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Date(1994, 2, 14, 8, 0, 0, 0, time.UTC)
	err = tbl.AppendRow(Time(ts), Float(15.5), Str("Munich"), Int(3), Bool(true), Ordinal("mid"))
	if err != nil {
		t.Fatal(err)
	}
	err = tbl.AppendRow(Null(KindTime), Null(KindFloat), Null(KindString), Null(KindInt), Null(KindBool), Null(KindOrdinal))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 2 || tbl.NumCols() != 6 {
		t.Fatalf("dims: %dx%d", tbl.NumRows(), tbl.NumCols())
	}
	v, err := tbl.Value(0, "Temperature")
	if err != nil || v.F != 15.5 {
		t.Fatalf("Value: %v %v", v, err)
	}
	v, err = tbl.Value(1, "Temperature")
	if err != nil || !v.Null {
		t.Fatalf("null Value: %v %v", v, err)
	}
	if _, err := tbl.Value(0, "Missing"); err == nil {
		t.Error("missing column should error")
	}
	if _, err := tbl.Value(5, "Temperature"); err == nil {
		t.Error("out-of-range row should error")
	}
	row := tbl.Row(0)
	if len(row) != 6 || !row[0].Equal(Time(ts)) || row[5].S != "mid" {
		t.Fatalf("Row: %+v", row)
	}
}

func TestTableAppendValidation(t *testing.T) {
	tbl, _ := NewTable("T", Schema{{Name: "x", Kind: KindFloat}, {Name: "s", Kind: KindString}})
	if err := tbl.AppendRow(Float(1)); err == nil {
		t.Error("wrong arity should fail")
	}
	if err := tbl.AppendRow(Str("no"), Str("s")); err == nil {
		t.Error("kind mismatch should fail")
	}
	if tbl.NumRows() != 0 {
		t.Error("failed append must not leave partial rows")
	}
	// Int widens into float columns.
	if err := tbl.AppendRow(Int(7), Str("ok")); err != nil {
		t.Errorf("int into float column: %v", err)
	}
	v, _ := tbl.Value(0, "x")
	if v.F != 7 {
		t.Errorf("widened value: %v", v)
	}
}

func TestFloatsOfAndMinMax(t *testing.T) {
	tbl, _ := NewTable("T", Schema{{Name: "x", Kind: KindFloat}})
	for _, f := range []float64{3, 1, 4} {
		if err := tbl.AppendRow(Float(f)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.AppendRow(Null(KindFloat)); err != nil {
		t.Fatal(err)
	}
	fs, err := tbl.FloatsOf("x")
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 4 || fs[0] != 3 || !math.IsNaN(fs[3]) {
		t.Fatalf("FloatsOf: %v", fs)
	}
	fs[0] = 99 // must not alias internal storage
	fs2, _ := tbl.FloatsOf("x")
	if fs2[0] != 3 {
		t.Error("FloatsOf aliases internal storage")
	}
	min, max, ok := tbl.ColumnAt(0).MinMax()
	if !ok || min != 1 || max != 4 {
		t.Fatalf("MinMax: %v %v %v", min, max, ok)
	}
	empty, _ := NewTable("E", Schema{{Name: "x", Kind: KindFloat}})
	if _, _, ok := empty.ColumnAt(0).MinMax(); ok {
		t.Error("empty column should report !ok")
	}
	if _, err := tbl.FloatsOf("nope"); err == nil {
		t.Error("missing column should error")
	}
}

// TestColumnExtremesMatchScan: a numeric column's MinMax answers what a
// scan of its values in row order under AsFloat finds — NaN and nulls
// skipped, the first of two equal extremes (-0, +0) kept, bit for bit —
// for every numeric kind, empty, after one row, and again after every
// further append, resident and reopened from the file it writes.
func TestColumnExtremesMatchScan(t *testing.T) {
	negZero := math.Copysign(0, -1)
	appends := map[Kind][]Value{
		KindFloat: {Float(math.NaN()), Null(KindFloat), Float(negZero), Float(0), Float(3.5), Int(-2),
			Float(math.Inf(1)), Float(-7), Null(KindFloat), Float(math.Inf(-1))},
		KindInt:  {Null(KindInt), Int(4), Int(-3), Null(KindInt), Int(1 << 60), Int(4)},
		KindTime: {Time(time.Unix(500, 0)), Null(KindTime), Time(time.Unix(-20, 0)), Time(time.Unix(9e9, 0))},
		KindBool: {Bool(true), Null(KindBool), Bool(true), Bool(false)},
	}
	path := filepath.Join(t.TempDir(), "x.vseg")
	for kind, vals := range appends {
		tbl, err := NewTable("T", Schema{{Name: "x", Kind: kind}})
		if err != nil {
			t.Fatal(err)
		}
		cat := NewCatalog()
		if err := cat.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= len(vals); i++ {
			if i > 0 {
				if err := tbl.AppendRow(vals[i-1]); err != nil {
					t.Fatal(err)
				}
			}
			checkExtremes(t, fmt.Sprintf("%v after %d rows, resident", kind, i), tbl.ColumnAt(0))
			if _, err := WriteCatalogFile(path, cat); err != nil {
				t.Fatal(err)
			}
			disk, err := OpenCatalogFile(path, OpenOptions{})
			if err != nil {
				t.Fatal(err)
			}
			dt, err := disk.Table("T")
			if err != nil {
				t.Fatal(err)
			}
			checkExtremes(t, fmt.Sprintf("%v after %d rows, reopened", kind, i), dt.ColumnAt(0))
			disk.Close()
		}
	}
}

// checkExtremes requires c.MinMax to equal a scan of c's values.
func checkExtremes(t *testing.T, what string, c *Column) {
	t.Helper()
	wmin, wmax, wok := math.Inf(1), math.Inf(-1), false
	for r := 0; r < c.Len(); r++ {
		f, ok := c.Value(r).AsFloat()
		if !ok || math.IsNaN(f) {
			continue
		}
		if f < wmin {
			wmin = f
		}
		if f > wmax {
			wmax = f
		}
		wok = true
	}
	if !wok {
		wmin, wmax = 0, 0
	}
	min, max, ok := c.MinMax()
	bits := math.Float64bits
	if ok != wok || bits(min) != bits(wmin) || bits(max) != bits(wmax) {
		t.Fatalf("%s: MinMax (%v, %v, %v); the scan finds (%v, %v, %v)", what, min, max, ok, wmin, wmax, wok)
	}
}

func TestValueCoercions(t *testing.T) {
	ts := time.Unix(1000, 0).UTC()
	cases := []struct {
		v    Value
		want float64
		ok   bool
	}{
		{Float(2.5), 2.5, true},
		{Int(7), 7, true},
		{Time(ts), 1000, true},
		{Bool(true), 1, true},
		{Bool(false), 0, true},
		{Str("x"), math.NaN(), false},
		{Null(KindFloat), math.NaN(), false},
	}
	for _, c := range cases {
		got, ok := c.v.AsFloat()
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("AsFloat(%v) = %v,%v", c.v, got, ok)
		}
	}
	if s, ok := Str("hi").AsString(); !ok || s != "hi" {
		t.Error("AsString stringy")
	}
	if s, ok := Int(5).AsString(); !ok || s != "5" {
		t.Error("AsString numeric")
	}
	if _, ok := Null(KindString).AsString(); ok {
		t.Error("AsString null")
	}
}

func TestValueStringAndEqual(t *testing.T) {
	ts := time.Date(1994, 2, 14, 8, 0, 0, 0, time.UTC)
	if Time(ts).String() != "1994-02-14T08:00:00Z" {
		t.Errorf("time format: %s", Time(ts).String())
	}
	if Null(KindFloat).String() != "" {
		t.Error("null renders empty")
	}
	if Float(1.5).String() != "1.5" || Int(-2).String() != "-2" || Bool(true).String() != "true" {
		t.Error("scalar formats")
	}
	if !Float(1).Equal(Float(1)) || Float(1).Equal(Float(2)) {
		t.Error("float equal")
	}
	if Float(1).Equal(Int(1)) {
		t.Error("kind-mismatched values are unequal")
	}
	if !Null(KindInt).Equal(Null(KindInt)) || Null(KindInt).Equal(Int(0)) {
		t.Error("null equality")
	}
	if !Time(ts).Equal(Time(ts.In(time.FixedZone("X", 3600)))) {
		t.Error("times compare by instant")
	}
}

func TestParseValue(t *testing.T) {
	v, err := ParseValue(KindFloat, "2.5")
	if err != nil || v.F != 2.5 {
		t.Errorf("float: %v %v", v, err)
	}
	v, err = ParseValue(KindInt, "-3")
	if err != nil || v.I != -3 {
		t.Errorf("int: %v %v", v, err)
	}
	v, err = ParseValue(KindTime, "1994-02-14T08:00:00Z")
	if err != nil || v.T.Hour() != 8 {
		t.Errorf("time: %v %v", v, err)
	}
	v, err = ParseValue(KindBool, "true")
	if err != nil || !v.B {
		t.Errorf("bool: %v %v", v, err)
	}
	v, err = ParseValue(KindNominal, "red")
	if err != nil || v.S != "red" || v.Kind != KindNominal {
		t.Errorf("nominal: %v %v", v, err)
	}
	v, err = ParseValue(KindFloat, "")
	if err != nil || !v.Null {
		t.Errorf("empty → null: %v %v", v, err)
	}
	if _, err := ParseValue(KindFloat, "abc"); err == nil {
		t.Error("bad float should error")
	}
	if _, err := ParseValue(KindInt, "1.5"); err == nil {
		t.Error("bad int should error")
	}
	if _, err := ParseValue(KindTime, "yesterday"); err == nil {
		t.Error("bad time should error")
	}
	if _, err := ParseValue(KindBool, "maybe"); err == nil {
		t.Error("bad bool should error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tbl, _ := NewTable("Weather", weatherSchema())
	ts := time.Date(1994, 2, 14, 8, 0, 0, 0, time.UTC)
	if err := tbl.AppendRow(Time(ts), Float(15.5), Str("Munich"), Int(3), Bool(true), Ordinal("mid")); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendRow(Null(KindTime), Null(KindFloat), Null(KindString), Null(KindInt), Null(KindBool), Null(KindOrdinal)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, "Weather", weatherSchema())
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 2 {
		t.Fatalf("rows: %d", back.NumRows())
	}
	for r := 0; r < 2; r++ {
		for c := 0; c < tbl.NumCols(); c++ {
			a := tbl.ColumnAt(c).Value(r)
			b := back.ColumnAt(c).Value(r)
			if !a.Equal(b) {
				t.Errorf("cell (%d,%d): %v vs %v", r, c, a, b)
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	schema := Schema{{Name: "x", Kind: KindFloat}}
	if _, err := ReadCSV(strings.NewReader("y\n1\n"), "T", schema); err == nil {
		t.Error("header mismatch should fail")
	}
	if _, err := ReadCSV(strings.NewReader("x,y\n1,2\n"), "T", schema); err == nil {
		t.Error("column count mismatch should fail")
	}
	if _, err := ReadCSV(strings.NewReader("x\nabc\n"), "T", schema); err == nil {
		t.Error("bad cell should fail")
	}
	if _, err := ReadCSV(strings.NewReader(""), "T", schema); err == nil {
		t.Error("missing header should fail")
	}
}

func TestCatalog(t *testing.T) {
	cat := NewCatalog()
	w, _ := NewTable("Weather", Schema{
		{Name: "DateTime", Kind: KindTime},
		{Name: "Lat", Kind: KindFloat},
		{Name: "Lon", Kind: KindFloat},
	})
	a, _ := NewTable("AirPollution", Schema{
		{Name: "DateTime", Kind: KindTime},
		{Name: "Lat", Kind: KindFloat},
		{Name: "Lon", Kind: KindFloat},
		{Name: "Ozone", Kind: KindFloat},
	})
	if err := cat.AddTable(w); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(a); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddTable(w); err == nil {
		t.Error("duplicate table should fail")
	}
	if _, err := cat.Table("Nope"); err == nil {
		t.Error("missing table should fail")
	}
	conn := Connection{
		Name: "with-time-diff", Left: "Weather", Right: "AirPollution",
		LeftAttr: "DateTime", RightAttr: "DateTime",
		Metric: MetricTime, Mode: ModeTarget, Param: 120,
	}
	if err := cat.AddConnection(conn); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddConnection(conn); err == nil {
		t.Error("duplicate connection should fail")
	}
	bad := conn
	bad.Name = "bad"
	bad.Left = "Nope"
	if err := cat.AddConnection(bad); err == nil {
		t.Error("unknown table should fail")
	}
	bad = conn
	bad.Name = "bad2"
	bad.LeftAttr = "Nope"
	if err := cat.AddConnection(bad); err == nil {
		t.Error("unknown attribute should fail")
	}
	got, err := cat.Connection("with-time-diff")
	if err != nil || got.Param != 120 {
		t.Fatalf("Connection: %+v %v", got, err)
	}
	if _, err := cat.Connection("nope"); err == nil {
		t.Error("missing connection should fail")
	}
	names := cat.TableNames()
	if len(names) != 2 || names[0] != "AirPollution" {
		t.Errorf("TableNames: %v", names)
	}
}

func TestConnectionValidate(t *testing.T) {
	good := Connection{Name: "c", Left: "A", Right: "B", LeftAttr: "x", RightAttr: "y"}
	if err := good.Validate(); err != nil {
		t.Errorf("good rejected: %v", err)
	}
	cases := []Connection{
		{},
		{Name: "c"},
		{Name: "c", Left: "A", Right: "B"},
		{Name: "c", Left: "A", Right: "B", LeftAttr: "x", RightAttr: "y", Param: -1},
		{Name: "c", Left: "A", Right: "B", LeftAttr: "x", RightAttr: "y", Metric: MetricGeo},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d should fail: %+v", i, c)
		}
	}
}

func TestConnectionDistances(t *testing.T) {
	w, _ := NewTable("W", Schema{
		{Name: "DateTime", Kind: KindTime},
		{Name: "Lat", Kind: KindFloat},
		{Name: "Lon", Kind: KindFloat},
		{Name: "Station", Kind: KindString},
	})
	p, _ := NewTable("P", Schema{
		{Name: "DateTime", Kind: KindTime},
		{Name: "Lat", Kind: KindFloat},
		{Name: "Lon", Kind: KindFloat},
		{Name: "Station", Kind: KindString},
	})
	t0 := time.Date(1994, 2, 14, 8, 0, 0, 0, time.UTC)
	if err := w.AppendRow(Time(t0), Float(48.0), Float(11.0), Str("Munich-North")); err != nil {
		t.Fatal(err)
	}
	if err := p.AppendRow(Time(t0.Add(2*time.Hour)), Float(48.0), Float(11.0), Str("Munich-Nord")); err != nil {
		t.Fatal(err)
	}
	if err := p.AppendRow(Time(t0.Add(3*time.Hour)), Null(KindFloat), Float(11.0), Str("Augsburg")); err != nil {
		t.Fatal(err)
	}

	timeConn := Connection{
		Name: "tdiff", Left: "W", Right: "P", LeftAttr: "DateTime", RightAttr: "DateTime",
		Metric: MetricTime, Mode: ModeTarget, Param: 120,
	}
	d, err := timeConn.Distance(w, p, 0, 0, nil)
	if err != nil || d != 0 {
		t.Fatalf("exact 2h lag should score 0: %v %v", d, err)
	}
	d, _ = timeConn.Distance(w, p, 0, 1, nil)
	if d != 3600 {
		t.Fatalf("3h lag vs 2h target = %v, want 3600", d)
	}

	geoConn := Connection{
		Name: "loc", Left: "W", Right: "P",
		LeftAttr: "Lat", LeftAttr2: "Lon", RightAttr: "Lat", RightAttr2: "Lon",
		Metric: MetricGeo, Mode: ModeEqual,
	}
	d, err = geoConn.Distance(w, p, 0, 0, nil)
	if err != nil || d != 0 {
		t.Fatalf("same location: %v %v", d, err)
	}
	d, _ = geoConn.Distance(w, p, 0, 1, nil)
	if !math.IsNaN(d) {
		t.Fatalf("null latitude should be NaN, got %v", d)
	}

	strConn := Connection{
		Name: "st", Left: "W", Right: "P", LeftAttr: "Station", RightAttr: "Station",
		Metric: MetricString, StringDist: "edit",
	}
	d, err = strConn.Distance(w, p, 0, 0, nil)
	if err != nil || d != 2 { // North → Nord: substitute t→d is 2 edits? "North" vs "Nord": o-r-t-h vs o-r-d → edit 2
		t.Fatalf("string distance = %v %v", d, err)
	}

	within := Connection{
		Name: "within", Left: "W", Right: "P", LeftAttr: "Lat", RightAttr: "Lat",
		Metric: MetricNumeric, Mode: ModeWithin, Param: 5,
	}
	d, _ = within.Distance(w, p, 0, 0, nil)
	if d != 0 {
		t.Fatalf("within tolerance should be 0, got %v", d)
	}
}
