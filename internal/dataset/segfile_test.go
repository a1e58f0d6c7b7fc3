package dataset

import (
	"math"
	"path/filepath"
	"testing"
	"time"
)

// mixedCatalog builds a catalog exercising every column kind, nulls,
// non-finite floats, and a connection; rows beyond SegmentSize span
// several segments.
func mixedCatalog(t testing.TB, rows int) *Catalog {
	t.Helper()
	tbl, err := NewTable("m", Schema{
		{Name: "f", Kind: KindFloat},
		{Name: "i", Kind: KindInt},
		{Name: "s", Kind: KindString},
		{Name: "ts", Kind: KindTime},
		{Name: "b", Kind: KindBool},
		{Name: "o", Kind: KindOrdinal, Categories: []string{"low", "mid", "high"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cats := []string{"low", "mid", "high"}
	base := time.Date(2020, 3, 1, 0, 0, 0, 0, time.UTC)
	for r := 0; r < rows; r++ {
		f := Float(float64(r) * 1.5)
		switch r % 97 {
		case 3:
			f = Null(KindFloat)
		case 5:
			f = Float(math.Inf(1))
		case 7:
			f = Float(math.NaN())
		case 9:
			f = Float(math.Inf(-1))
		}
		i := Int(int64(r * 3))
		if r%31 == 1 {
			i = Null(KindInt)
		}
		s := Str(string(rune('a'+r%26)) + "x")
		if r%13 == 2 {
			s = Null(KindString)
		}
		ts := Time(base.Add(time.Duration(r) * time.Minute))
		if r%17 == 4 {
			ts = Null(KindTime)
		}
		b := Bool(r%2 == 0)
		if r%23 == 6 {
			b = Null(KindBool)
		}
		o := Ordinal(cats[r%3])
		if err := tbl.AppendRow(f, i, s, ts, b, o); err != nil {
			t.Fatal(err)
		}
	}
	cat := NewCatalog()
	if err := cat.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	small, err := NewTable("n", Schema{{Name: "v", Kind: KindFloat}})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 10; r++ {
		if err := small.AppendRow(Float(float64(r))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.AddTable(small); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddConnection(Connection{
		Name: "near", Left: "m", Right: "n",
		LeftAttr: "f", RightAttr: "v", Metric: MetricNumeric, Mode: ModeWithin, Param: 2,
	}); err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestSegmentFileRoundTrip writes a mixed catalog and checks that the
// file reproduces every cell, the stats, and the connections exactly,
// under the default cache budget and under one that holds a single
// segment.
func TestSegmentFileRoundTrip(t *testing.T) {
	const rows = 2*SegmentSize + 137 // three segments, last partial
	mem := mixedCatalog(t, rows)
	path := filepath.Join(t.TempDir(), "cat.vseg")
	epoch, err := WriteCatalogFile(path, mem)
	if err != nil {
		t.Fatal(err)
	}
	if epoch == 0 {
		t.Fatal("writer stamped zero epoch")
	}
	for _, backend := range []struct {
		name string
		opts OpenOptions
	}{
		{"auto", OpenOptions{}},                    // the default budget
		{"tiny-cache", OpenOptions{CacheBytes: 1}}, // degrades to re-decoding, never fails
	} {
		t.Run(backend.name, func(t *testing.T) {
			disk, err := OpenCatalogFile(path, backend.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer disk.Close()
			if disk.Epoch() != epoch {
				t.Fatalf("epoch %d, want %d", disk.Epoch(), epoch)
			}
			if got, want := disk.TableNames(), mem.TableNames(); len(got) != len(want) {
				t.Fatalf("tables %v, want %v", got, want)
			}
			for _, name := range mem.TableNames() {
				mt, _ := mem.Table(name)
				dt, err := disk.Table(name)
				if err != nil {
					t.Fatal(err)
				}
				if dt.NumRows() != mt.NumRows() {
					t.Fatalf("table %s: %d rows, want %d", name, dt.NumRows(), mt.NumRows())
				}
				for _, f := range mt.Schema() {
					// Cell-level identity, including null flags.
					for r := 0; r < mt.NumRows(); r += 619 {
						mv, _ := mt.Value(r, f.Name)
						dv, _ := dt.Value(r, f.Name)
						if !valueEqualNaN(mv, dv) {
							t.Fatalf("table %s row %d col %s: %v != %v", name, r, f.Name, dv, mv)
						}
					}
					// Bulk reader identity, bit for bit.
					mf, err := mt.FloatsOf(f.Name)
					if err != nil {
						t.Fatal(err)
					}
					df, err := dt.FloatsOf(f.Name)
					if err != nil {
						t.Fatal(err)
					}
					for r := range mf {
						if math.Float64bits(mf[r]) != math.Float64bits(df[r]) {
							t.Fatalf("table %s col %s row %d: bits %x != %x", name, f.Name, r, math.Float64bits(df[r]), math.Float64bits(mf[r]))
						}
					}
					// Unaligned range reads cross segment boundaries.
					dr, err := dt.FloatReaderOf(f.Name)
					if err != nil {
						t.Fatal(err)
					}
					if dr != nil && mt.NumRows() > SegmentSize+1500 {
						span := make([]float64, 3000)
						from := SegmentSize - 1500
						dr.ReadFloats(span, from)
						for k := range span {
							if math.Float64bits(span[k]) != math.Float64bits(mf[from+k]) {
								t.Fatalf("table %s col %s: unaligned read differs at %d", name, f.Name, from+k)
							}
						}
					}
					// Footer stats equal the in-memory scan.
					mmin, mmax, mok, _ := mt.MinMaxOf(f.Name)
					dmin, dmax, dok, _ := dt.MinMaxOf(f.Name)
					if mok != dok || (mok && (mmin != dmin || mmax != dmax)) {
						t.Fatalf("table %s col %s: minmax (%v,%v,%v) want (%v,%v,%v)", name, f.Name, dmin, dmax, dok, mmin, mmax, mok)
					}
				}
			}
			if got, want := disk.ConnectionNames(), mem.ConnectionNames(); len(got) != 1 || got[0] != want[0] {
				t.Fatalf("connections %v, want %v", got, want)
			}
		})
	}
}

// valueEqualNaN is Value.Equal extended to treat NaN floats as equal.
func valueEqualNaN(a, b Value) bool {
	if a.Kind == KindFloat && b.Kind == KindFloat && !a.Null && !b.Null {
		return math.Float64bits(a.F) == math.Float64bits(b.F) ||
			(math.IsNaN(a.F) && math.IsNaN(b.F))
	}
	return a.Equal(b)
}

// TestSegmentFileBoundedCache pins the decoded-segment cache to a
// budget far below the catalog size and checks occupancy stays under
// it while serving random reads.
func TestSegmentFileBoundedCache(t *testing.T) {
	mem := mixedCatalog(t, 4*SegmentSize)
	path := filepath.Join(t.TempDir(), "cat.vseg")
	if _, err := WriteCatalogFile(path, mem); err != nil {
		t.Fatal(err)
	}
	const budget = 128 << 10 // a few segments
	disk, err := OpenCatalogFile(path, OpenOptions{CacheBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	dt, err := disk.Table("m")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 1024)
	for pass := 0; pass < 3; pass++ {
		for _, col := range []string{"f", "i", "ts", "b"} {
			fr, err := dt.FloatReaderOf(col)
			if err != nil {
				t.Fatal(err)
			}
			for from := 0; from+len(buf) <= dt.NumRows(); from += 3777 {
				fr.ReadFloats(buf, from)
			}
			segs, bytes := disk.CacheStats()
			if bytes > budget && segs > 1 {
				t.Fatalf("cache holds %d bytes across %d segments, budget %d", bytes, segs, budget)
			}
		}
	}
}

// TestFileTableReadOnly checks that appends to a file-backed table are
// rejected cleanly.
func TestFileTableReadOnly(t *testing.T) {
	mem := mixedCatalog(t, 64)
	path := filepath.Join(t.TempDir(), "cat.vseg")
	if _, err := WriteCatalogFile(path, mem); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenCatalogFile(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	dt, err := disk.Table("n")
	if err != nil {
		t.Fatal(err)
	}
	if err := dt.AppendRow(Float(1)); err == nil {
		t.Fatal("append to file-backed table succeeded")
	}
}

// TestSegmentEpochTracksContent checks that regenerating a file with
// different data (same shape) changes the epoch, and that identical
// content reproduces it.
func TestSegmentEpochTracksContent(t *testing.T) {
	dir := t.TempDir()
	build := func(v float64) *Catalog {
		tbl, err := NewTable("t", Schema{{Name: "x", Kind: KindFloat}})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 100; r++ {
			if err := tbl.AppendRow(Float(v + float64(r))); err != nil {
				t.Fatal(err)
			}
		}
		cat := NewCatalog()
		if err := cat.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
		return cat
	}
	e1, err := WriteCatalogFile(filepath.Join(dir, "a.vseg"), build(0))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := WriteCatalogFile(filepath.Join(dir, "b.vseg"), build(1000))
	if err != nil {
		t.Fatal(err)
	}
	e3, err := WriteCatalogFile(filepath.Join(dir, "c.vseg"), build(0))
	if err != nil {
		t.Fatal(err)
	}
	if e1 == e2 {
		t.Fatal("different contents produced the same epoch")
	}
	if e1 != e3 {
		t.Fatal("identical contents produced different epochs")
	}
}
