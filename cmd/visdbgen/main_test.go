package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/visdb"
)

func TestGenerateAllKinds(t *testing.T) {
	dir := t.TempDir()
	if err := run("env", dir, "csv", 1, 48, 2, 30, 2, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"Weather.csv", "Air-Pollution.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("env: missing %s", f)
		}
	}
	if err := run("cad", dir, "csv", 1, 0, 0, 0, 0, 50, 0, 0); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"Parts.csv", "cad_query.sql"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("cad: missing %s", f)
		}
	}
	if err := run("multidb", dir, "csv", 1, 0, 0, 0, 0, 0, 40, 0); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"PersonsA.csv", "PersonsB.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("multidb: missing %s", f)
		}
	}
}

// TestGenerateSegmentCatalog: -format seg must write one openable
// segment catalog carrying every table of the kind.
func TestGenerateSegmentCatalog(t *testing.T) {
	dir := t.TempDir()
	if err := run("traffic", dir, "seg", 7, 0, 0, 0, 0, 0, 0, 5000); err != nil {
		t.Fatal(err)
	}
	cat, err := visdb.OpenCatalogFile(filepath.Join(dir, "traffic.visdb"), visdb.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if cat.Epoch() == 0 {
		t.Error("segment catalog carries no content epoch")
	}
	tbl, err := cat.Table("S")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 5000 {
		t.Errorf("rows = %d, want 5000", tbl.NumRows())
	}

	if err := run("env", dir, "seg", 1, 48, 2, 30, 2, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	env, err := visdb.OpenCatalogFile(filepath.Join(dir, "env.visdb"), visdb.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if got := len(env.TableNames()); got != 2 {
		t.Errorf("env segment catalog has %d tables, want 2", got)
	}
}

func TestGenerateUnknownKind(t *testing.T) {
	if err := run("nope", t.TempDir(), "csv", 1, 0, 0, 0, 0, 0, 0, 0); err == nil {
		t.Error("unknown kind should fail")
	}
	if err := run("traffic", t.TempDir(), "nope", 1, 0, 0, 0, 0, 0, 0, 10); err == nil {
		t.Error("unknown format should fail")
	}
}
