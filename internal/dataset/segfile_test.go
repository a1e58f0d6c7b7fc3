package dataset

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
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
					dr, err := dt.Column(f.Name)
					if err != nil {
						t.Fatal(err)
					}
					if mt.NumRows() > SegmentSize+1500 {
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
					mc, _ := mt.Column(f.Name)
					mmin, mmax, mok := mc.MinMax()
					dmin, dmax, dok := dr.MinMax()
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
			fr, err := dt.Column(col)
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

// TestRewriteReproducesFile pins the writer to the bytes it writes from
// either backing: a two-table catalog whose tables both end in a partial
// segment, reopened under a one-byte cache (every segment read from the
// file) and written again, reproduces the file byte for byte — blob
// order, stats strings and epoch included.
func TestRewriteReproducesFile(t *testing.T) {
	dir := t.TempDir()
	first, second := filepath.Join(dir, "a.vseg"), filepath.Join(dir, "b.vseg")
	epoch, err := WriteCatalogFile(first, mixedCatalog(t, 2*SegmentSize+137))
	if err != nil {
		t.Fatal(err)
	}
	disk, err := OpenCatalogFile(first, OpenOptions{CacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	again, err := WriteCatalogFile(second, disk)
	if err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(second)
	if err != nil {
		t.Fatal(err)
	}
	if again != epoch || !bytes.Equal(a, b) {
		t.Fatalf("the reopened catalog wrote %d bytes, epoch %x; the resident one %d bytes, epoch %x", len(b), again, len(a), epoch)
	}
}

// TestWriteRefusesTimesOutsideNanos: a segment file stores a time as
// int64 Unix nanoseconds, so an instant outside the years 1678–2262
// would read back as another one. The writer refuses it with an error
// naming table, column and row, and leaves nothing at the path; the two
// instants at the ends of the range write and read back.
func TestWriteRefusesTimesOutsideNanos(t *testing.T) {
	build := func(at time.Time) *Catalog {
		tbl, err := NewTable("T", Schema{{Name: "x", Kind: KindFloat}, {Name: "ts", Kind: KindTime}})
		if err != nil {
			t.Fatal(err)
		}
		base := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
		for r := 0; r < 5; r++ {
			ts := Time(base.Add(time.Duration(r) * time.Hour))
			switch r {
			case 1:
				ts = Null(KindTime)
			case 3:
				ts = Time(at)
			}
			if err := tbl.AppendRow(Float(float64(r)), ts); err != nil {
				t.Fatal(err)
			}
		}
		cat := NewCatalog()
		if err := cat.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
		return cat
	}
	for _, bad := range []time.Time{
		time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1500, 1, 1, 0, 0, 0, 0, time.UTC),
		{},
		time.Unix(0, math.MaxInt64).Add(time.Nanosecond),
	} {
		dir := t.TempDir()
		_, err := WriteCatalogFile(filepath.Join(dir, "x.vseg"), build(bad))
		if err == nil {
			t.Fatalf("%v: written", bad)
		}
		for _, part := range []string{`"T"`, `"ts"`, "row 3"} {
			if !strings.Contains(err.Error(), part) {
				t.Fatalf("%v: the error %q does not name %s", bad, err, part)
			}
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Fatalf("%v: the refused write left %d files", bad, len(entries))
		}
	}
	for _, edge := range []time.Time{time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)} {
		path := filepath.Join(t.TempDir(), "x.vseg")
		if _, err := WriteCatalogFile(path, build(edge)); err != nil {
			t.Fatalf("%v: %v", edge, err)
		}
		disk, err := OpenCatalogFile(path, OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		dt, _ := disk.Table("T")
		if v, _ := dt.Value(3, "ts"); !v.T.Equal(edge) {
			t.Fatalf("%v read back as %v", edge, v.T)
		}
		disk.Close()
	}
}
