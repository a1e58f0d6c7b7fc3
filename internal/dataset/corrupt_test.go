package dataset

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
)

// tinyCatalog builds a deliberately small two-column catalog so the
// every-byte corruption sweep stays cheap (the whole file is a few
// hundred bytes).
func tinyCatalog(t *testing.T, rows int) *Catalog {
	t.Helper()
	tbl, err := NewTable("t", Schema{
		{Name: "f", Kind: KindFloat},
		{Name: "s", Kind: KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rows; r++ {
		f := Float(float64(r) * 0.25)
		if r%7 == 3 {
			f = Null(KindFloat)
		}
		if err := tbl.AppendRow(f, Str(string(rune('a'+r%5)))); err != nil {
			t.Fatal(err)
		}
	}
	cat := NewCatalog()
	if err := cat.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	return cat
}

// scanAll touches every cell of every table, forcing every segment of
// every column through the decoder.
func scanAll(t *testing.T, cat *Catalog) {
	t.Helper()
	for _, name := range cat.TableNames() {
		tbl, err := cat.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < tbl.NumRows(); r++ {
			tbl.Row(r)
		}
	}
}

// legacyFixtureRows is the row count of the two checked-in legacy
// segment files, testdata/mixed_v1.vseg and testdata/mixed_v2.vseg:
// mixedCatalog(t, legacyFixtureRows) as the VSEGCAT1 and VSEGCAT2
// writers wrote it before they were deleted (the layouts are read-only
// now, so the fixtures cannot be regenerated — only read).
const legacyFixtureRows = SegmentSize + 57

func legacyFixture(version int) string {
	return filepath.Join("testdata", fmt.Sprintf("mixed_v%d.vseg", version))
}

// checkReadsBack opens the segment file at path through both backends
// (mmap and ReadAt) and compares table "m" against mem cell for cell
// and through FloatsOf bit for bit, with no corruption reported. Each
// opened catalog is handed to extra (when non-nil) before it closes.
func checkReadsBack(t *testing.T, name, path string, mem *Catalog, extra func(disk *Catalog)) {
	t.Helper()
	mt, err := mem.Table("m")
	if err != nil {
		t.Fatal(err)
	}
	for _, force := range []bool{false, true} {
		disk, err := OpenCatalogFile(path, OpenOptions{ForceReadAt: force})
		if err != nil {
			t.Fatalf("%s (readat=%v): %v", name, force, err)
		}
		dt, err := disk.Table("m")
		if err != nil {
			t.Fatal(err)
		}
		if dt.NumRows() != mt.NumRows() {
			t.Fatalf("%s (readat=%v): %d rows, want %d", name, force, dt.NumRows(), mt.NumRows())
		}
		for r := 0; r < mt.NumRows(); r++ {
			want, got := mt.Row(r), dt.Row(r)
			for i := range want {
				if !valueEqualNaN(want[i], got[i]) {
					t.Fatalf("%s (readat=%v) row %d col %d: %v != %v", name, force, r, i, got[i], want[i])
				}
			}
		}
		for _, field := range mt.Schema() {
			mf, err := mt.FloatsOf(field.Name)
			if err != nil {
				t.Fatal(err)
			}
			df, err := dt.FloatsOf(field.Name)
			if err != nil {
				t.Fatal(err)
			}
			for r := range mf {
				if math.Float64bits(mf[r]) != math.Float64bits(df[r]) {
					t.Fatalf("%s (readat=%v) col %s row %d: floats differ", name, force, field.Name, r)
				}
			}
		}
		if extra != nil {
			extra(disk)
		}
		if cerr := disk.Corrupt(); cerr != nil {
			t.Fatalf("%s: healthy catalog reports corruption: %v", name, cerr)
		}
		disk.Close()
	}
}

// TestLegacyV1StillReadable pins backward compatibility: a catalog
// written in the checksum-free VSEGCAT1 layout opens and reads cell
// for cell identically to the in-memory original, with no corruption
// reported.
func TestLegacyV1StillReadable(t *testing.T) {
	mem := mixedCatalog(t, legacyFixtureRows)
	checkReadsBack(t, "v1", legacyFixture(1), mem, func(disk *Catalog) {
		if disk.Epoch() == 0 {
			t.Fatal("v1 fixture carries a zero epoch")
		}
	})
}

// flipDetected writes data with the byte at off flipped to work and
// requires the damage to surface as a typed ErrCorruptSegment, at open
// or on a full scan — never as silently wrong data.
func flipDetected(t *testing.T, data []byte, off int, work string) {
	t.Helper()
	data[off] ^= 0x41
	err := os.WriteFile(work, data, 0o644)
	data[off] ^= 0x41
	if err != nil {
		t.Fatal(err)
	}
	cat, err := OpenCatalogFile(work, OpenOptions{ForceReadAt: true})
	if err != nil {
		if !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("flip at %d: open error is not ErrCorruptSegment: %v", off, err)
		}
		return
	}
	scanAll(t, cat)
	cerr := cat.Corrupt()
	cat.Close()
	if cerr == nil {
		t.Fatalf("flip at %d: opened and scanned clean — corruption undetected", off)
	}
	if !errors.Is(cerr, ErrCorruptSegment) {
		t.Fatalf("flip at %d: sticky error is not ErrCorruptSegment: %v", off, cerr)
	}
}

// TestEveryByteFlipDetected is the format's integrity contract: flip
// any single byte of a current-format file and either the open fails or a
// full scan trips the sticky corruption error — in both cases a typed
// ErrCorruptSegment, never silently wrong data.
func TestEveryByteFlipDetected(t *testing.T) {
	mem := tinyCatalog(t, 23)
	dir := t.TempDir()
	orig := filepath.Join(dir, "orig.vseg")
	if _, err := WriteCatalogFile(orig, mem); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(orig)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sweeping %d byte positions", len(data))
	work := filepath.Join(dir, "flip.vseg")
	for off := range data {
		flipDetected(t, data, off, work)
	}
}

// TestLegacyV2FlipsStillDetected: the VSEGCAT2 layout is read-only but
// its integrity checks are not optional — a flipped byte in the head
// magic, a blob, the footer, the footer CRC, the footer length or the
// end magic of the checked-in v2 file is still an ErrCorruptSegment.
func TestLegacyV2FlipsStillDetected(t *testing.T) {
	data, err := os.ReadFile(legacyFixture(2))
	if err != nil {
		t.Fatal(err)
	}
	size := len(data)
	work := filepath.Join(t.TempDir(), "flip.vseg")
	for _, off := range []int{0, len(segMagic2), size / 2, size - 20 - 10, size - 20, size - 16, size - 1} {
		flipDetected(t, data, off, work)
	}
}

// TestCorruptionServedAsZeroes pins the no-panic contract: a CRC
// mismatch mid-read must not crash the reading goroutine; the column
// serves structurally valid zero values and the catalog turns sticky
// corrupt.
func TestCorruptionServedAsZeroes(t *testing.T) {
	mem := tinyCatalog(t, 23)
	path := filepath.Join(t.TempDir(), "c.vseg")
	if _, err := WriteCatalogFile(path, mem); err != nil {
		t.Fatal(err)
	}
	// Flip one bit of the first blob byte (just past the head magic)
	// beneath an otherwise healthy open — open succeeds (footer is
	// fine), the first decode fails its CRC.
	cat, err := OpenCatalogFile(path, OpenOptions{
		WrapReaderAt: func(r io.ReaderAt) io.ReaderAt {
			return faultinject.CorruptReaderAt(r, int64(len(segMagic2)), 0x10)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	tbl, err := cat.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < tbl.NumRows(); r++ {
		tbl.Row(r) // must not panic
	}
	if cerr := cat.Corrupt(); !errors.Is(cerr, ErrCorruptSegment) {
		t.Fatalf("corrupt = %v, want ErrCorruptSegment", cerr)
	}
}

// TestTruncationDetected pins the I/O-failure path: a medium that
// ends mid-blob surfaces as sticky corruption, not a panic.
func TestTruncationDetected(t *testing.T) {
	mem := tinyCatalog(t, 23)
	path := filepath.Join(t.TempDir(), "t.vseg")
	if _, err := WriteCatalogFile(path, mem); err != nil {
		t.Fatal(err)
	}
	cat, err := OpenCatalogFile(path, OpenOptions{
		WrapReaderAt: func(r io.ReaderAt) io.ReaderAt {
			return faultinject.TruncateReaderAt(r, int64(len(segMagic2))+10)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	scanAll(t, cat)
	if cerr := cat.Corrupt(); !errors.Is(cerr, ErrCorruptSegment) {
		t.Fatalf("corrupt = %v, want ErrCorruptSegment", cerr)
	}
}
