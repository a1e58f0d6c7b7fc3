package visdb

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strconv"
	"testing"
)

// facadeSurface is every exported identifier of visdb.go, sorted. A
// name added here is a name added to the public API.
var facadeSurface = []string{
	"Arrange2D", "ArrangeSpiral", "BoolVal", "BooleanMatches", "CADConfig",
	"CADParts", "CADQuerySQL", "CADTruth", "Catalog", "Colormap",
	"ColormapGrayscale", "ColormapHeat", "ColormapOptimized", "ColormapVisDB", "Compose",
	"Cond", "ConnMetric", "ConnMode", "Connection", "Engine",
	"EnvConfig", "EnvTruth", "Environmental", "Expr", "Field",
	"Float", "Gradi", "Image", "Int", "Kind",
	"KindBool", "KindFloat", "KindInt", "KindNominal", "KindOrdinal",
	"KindString", "KindTime", "MetricGeo", "MetricNumeric", "MetricString",
	"MetricTime", "ModeEqual", "ModeTarget", "ModeWithin", "MultiDB",
	"MultiDBConfig", "MultiDBTruth", "NewCatalog", "NewEngine", "NewEngineWithRegistry",
	"NewRegistry", "NewSession", "NewSessionQuery", "NewTable", "Nominal",
	"Null", "OpenCatalogFile", "OpenOptions", "Options", "Ordinal",
	"PanelStats", "Parse", "PredicateInfo", "Predicates", "Query",
	"Registry", "Result", "Schema", "SelectedTuple", "Session",
	"Str", "Table", "TimeVal", "Value", "Window",
	"WriteCatalogFile",
}

// engineDataAliases are the engine types the facade may alias: plain
// data structs without exported methods.
var engineDataAliases = []string{"Options", "PanelStats", "PredicateInfo", "SelectedTuple"}

// TestFacadeSurface pins the public API: the exported identifiers of
// visdb.go are exactly facadeSurface, and no exported alias or variable
// re-exports the engine (internal/core) or the session layer
// (internal/session) beyond engineDataAliases — the facade's Engine,
// Result and Session are types of its own.
func TestFacadeSurface(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "visdb.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	engine := map[string]bool{}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if path == "repro/internal/core" || path == "repro/internal/session" {
			engine[path[len("repro/internal/"):]] = true
		}
	}
	// reexport reports the engine name x selects, if it selects one.
	reexport := func(x ast.Expr) (string, bool) {
		if sel, ok := x.(*ast.SelectorExpr); ok {
			if pkg, ok := sel.X.(*ast.Ident); ok && engine[pkg.Name] {
				return pkg.Name + "." + sel.Sel.Name, true
			}
		}
		return "", false
	}
	var got []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				got = append(got, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, sp := range d.Specs {
				switch sp := sp.(type) {
				case *ast.TypeSpec:
					if !sp.Name.IsExported() {
						continue
					}
					got = append(got, sp.Name.Name)
					if target, ok := reexport(sp.Type); ok && sp.Assign.IsValid() && !slices.Contains(engineDataAliases, sp.Name.Name) {
						t.Errorf("%s aliases %s", sp.Name.Name, target)
					}
				case *ast.ValueSpec:
					for i, n := range sp.Names {
						if !n.IsExported() {
							continue
						}
						got = append(got, n.Name)
						if d.Tok == token.VAR && i < len(sp.Values) {
							if target, ok := reexport(sp.Values[i]); ok {
								t.Errorf("%s re-exports %s", n.Name, target)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(got)
	if !slices.Equal(got, facadeSurface) {
		t.Fatalf("visdb.go exports %d identifiers, want %d:\n got %q\nwant %q", len(got), len(facadeSurface), got, facadeSurface)
	}
}

// TestNilQueryPartIsAnError: every call that takes a query part answers
// a nil one (or a nil condition) with an error instead of a panic.
func TestNilQueryPartIsAnError(t *testing.T) {
	cat := NewCatalog()
	tbl, err := NewTable("T", Schema{{Name: "x", Kind: KindFloat}, {Name: "y", Kind: KindFloat}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := tbl.AppendRow(Float(float64(i)), Float(float64(20-i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(cat, Options{GridW: 4, GridH: 4}, `SELECT x FROM T WHERE x > 5 AND y < 10`)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Result().r
	var nilCond *Cond
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"Result.WindowFor(nil)", func() error { _, err := res.WindowFor(nil); return err }},
		{"Result.NormOf(nil, 0)", func() error { _, err := res.NormOf(nil, 0); return err }},
		{"Session.DrillDown(nil)", func() error { _, err := s.DrillDown(nil, false); return err }},
		{"Session.SetWeight(nil)", func() error { return s.SetWeight(nil, 2) }},
		{"Session.SetWeight((*Cond)(nil))", func() error { return s.SetWeight(nilCond, 2) }},
		{"Session.SetRange(nil)", func() error { return s.SetRange(nil, 1, 2) }},
		{"Session.SetMedianDeviation(nil)", func() error { return s.SetMedianDeviation(nil, 1, 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.call(); err == nil {
				t.Fatal("nil query part accepted")
			}
		})
	}
	if s.CanUndo() || s.Recalcs != 1 {
		t.Fatalf("a refused call changed the session: undoable %v, %d recalculations", s.CanUndo(), s.Recalcs)
	}
	if err := s.ProjectColorRange(nil, 0, 0); err != nil {
		t.Fatalf("a nil part still projects on the overall window: %v", err)
	}
}
