package csvutil

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// loadString writes csv to a file and loads it with LoadInferred.
func loadString(t *testing.T, csv string) (*dataset.Table, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.csv")
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	return LoadInferred(path, "T")
}

func TestLoadInferredKinds(t *testing.T) {
	csv := strings.Join([]string{
		"ts,price,ok,name,empty",
		"1994-02-14T08:00:00Z,2.5,true,ann,",
		"1994-02-14T09:00:00Z,3,false,bob,",
		",4.5,true,,",
	}, "\n")
	tbl, err := loadString(t, csv)
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []dataset.Kind{
		dataset.KindTime, dataset.KindFloat, dataset.KindBool,
		dataset.KindString, dataset.KindString,
	}
	for i, f := range tbl.Schema() {
		if f.Kind != wantKinds[i] {
			t.Errorf("column %q: kind %v, want %v", f.Name, f.Kind, wantKinds[i])
		}
	}
	if tbl.NumRows() != 3 {
		t.Fatalf("rows: %d", tbl.NumRows())
	}
	v, _ := tbl.Value(2, "ts")
	if !v.Null {
		t.Error("empty time cell should be null")
	}
	v, _ = tbl.Value(0, "price")
	if v.F != 2.5 {
		t.Errorf("price: %v", v)
	}
}

func TestLoadInferredNumbersStayFloat(t *testing.T) {
	tbl, err := loadString(t, "x\n1\n2\n")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Schema()[0].Kind != dataset.KindFloat {
		t.Errorf("kind: %v", tbl.Schema()[0].Kind)
	}
}

func TestLoadInferredErrors(t *testing.T) {
	if _, err := loadString(t, ""); err == nil {
		t.Error("empty input should fail")
	}
	// Ragged rows fail inside encoding/csv already.
	if _, err := loadString(t, "a,b\n1\n"); err == nil {
		t.Error("ragged rows should fail")
	}
}

func TestLoadInferredMissingFile(t *testing.T) {
	if _, err := LoadInferred("/nonexistent/file.csv", "T"); err == nil {
		t.Error("missing file should fail")
	}
}
