package dataset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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

// scanAll touches every cell of every table, cell by cell and column by
// column, forcing every segment of every column through the decoder.
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
		for _, f := range tbl.Schema() {
			if _, err := tbl.FloatsOf(f.Name); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// checkReadsBack compares table "m" of the catalog disk opened against
// mem cell for cell and through FloatsOf bit for bit, and requires disk
// to report no corruption.
func checkReadsBack(t *testing.T, what string, disk, mem *Catalog) {
	t.Helper()
	mt, err := mem.Table("m")
	if err != nil {
		t.Fatal(err)
	}
	dt, err := disk.Table("m")
	if err != nil {
		t.Fatal(err)
	}
	if dt.NumRows() != mt.NumRows() {
		t.Fatalf("%s: %d rows, want %d", what, dt.NumRows(), mt.NumRows())
	}
	for r := 0; r < mt.NumRows(); r++ {
		want, got := mt.Row(r), dt.Row(r)
		for i := range want {
			if !valueEqualNaN(want[i], got[i]) {
				t.Fatalf("%s row %d col %d: %v != %v", what, r, i, got[i], want[i])
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
				t.Fatalf("%s col %s row %d: floats differ", what, field.Name, r)
			}
		}
	}
	if cerr := disk.Corrupt(); cerr != nil {
		t.Fatalf("%s: healthy catalog reports corruption: %v", what, cerr)
	}
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
	cat, err := OpenCatalogFile(work, OpenOptions{})
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
			return faultinject.CorruptReaderAt(r, int64(len(segMagic)), 0x10)
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
			return faultinject.TruncateReaderAt(r, int64(len(segMagic))+10)
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

// TestCatalogTruncatedAfterOpen: a catalog file cut short under an open
// catalog is damage the catalog reports, not a fault that kills the
// process: every read past the cut fails into the sticky
// ErrCorruptSegment.
func TestCatalogTruncatedAfterOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cut.vseg")
	if _, err := WriteCatalogFile(path, mixedCatalog(t, 300)); err != nil {
		t.Fatal(err)
	}
	cat, err := OpenCatalogFile(path, OpenOptions{CacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if err := os.Truncate(path, int64(len(segMagic))+100); err != nil {
		t.Fatal(err)
	}
	scanAll(t, cat)
	if cerr := cat.Corrupt(); !errors.Is(cerr, ErrCorruptSegment) {
		t.Fatalf("corrupt = %v, want ErrCorruptSegment", cerr)
	}
}

// TestCatalogRewriteLeavesOpenReaderAlone: writing a catalog to the
// path of an open one replaces the file at the path, not its bytes. The
// open catalog keeps serving the file it opened — its own values and
// epoch, no corruption — a new open sees the new file, and the writer
// leaves nothing else in the directory.
func TestCatalogRewriteLeavesOpenReaderAlone(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cat.vseg")
	mem := mixedCatalog(t, 2*SegmentSize+137)
	epoch, err := WriteCatalogFile(path, mem)
	if err != nil {
		t.Fatal(err)
	}
	old, err := OpenCatalogFile(path, OpenOptions{}) // nothing is read, so nothing cached, before the rewrite
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	newEpoch, err := WriteCatalogFile(path, mixedCatalog(t, 300))
	if err != nil {
		t.Fatal(err)
	}
	if newEpoch == epoch {
		t.Fatal("other rows wrote the same epoch")
	}
	checkReadsBack(t, "open across the rewrite", old, mem)
	if old.Epoch() != epoch {
		t.Fatalf("open catalog's epoch %x, wrote %x", old.Epoch(), epoch)
	}
	cat, err := OpenCatalogFile(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	if cat.Epoch() != newEpoch {
		t.Fatalf("new open's epoch %x, want the rewrite's %x", cat.Epoch(), newEpoch)
	}
	// A write that fails — here its rename, onto a directory — removes
	// its temporary file too.
	dir := filepath.Join(filepath.Dir(path), "dir")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteCatalogFile(dir, mem); err == nil {
		t.Fatal("a catalog written over a directory")
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("the writer left %d files beside the catalog", len(entries)-2)
	}
}

// resealFooter returns a copy of data whose tail carries the CRC32C of
// the bytes the tail frames as the footer, or nil when the tail frames
// none.
func resealFooter(data []byte) []byte {
	n := len(data)
	if n < len(segMagic)+segTailLen {
		return nil
	}
	ftLen := binary.LittleEndian.Uint64(data[n-16 : n-8])
	if ftLen == 0 || ftLen > uint64(n-segTailLen-len(segMagic)) {
		return nil
	}
	out := append([]byte(nil), data...)
	ft := out[n-segTailLen-int(ftLen) : n-segTailLen]
	binary.LittleEndian.PutUint32(out[n-segTailLen:], crc32.Checksum(ft, castagnoli))
	return out
}

// FuzzOpenCatalogFile is the reader's contract on any bytes: the open
// fails with ErrCorruptSegment or the layout refusal, or the catalog it
// returns reads every cell without a panic. Each input is opened as it
// is and with its footer CRC recomputed, so the fuzzer reaches the
// footer's JSON, stats and blob geometry behind the checksum.
func FuzzOpenCatalogFile(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.vseg")
	if _, err := WriteCatalogFile(path, mixedCatalog(f, 40)); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{len(data), len(data) - 1, len(data) - segTailLen, len(data) / 2, len(segMagic) + segTailLen, len(segMagic), 0} {
		f.Add(data[:n])
	}
	dir := f.TempDir() // a worker runs its inputs one at a time
	f.Fuzz(func(t *testing.T, data []byte) {
		for i, in := range [][]byte{data, resealFooter(data)} {
			if in == nil {
				continue
			}
			path := filepath.Join(dir, fmt.Sprintf("in%d.vseg", i))
			if err := os.WriteFile(path, in, 0o644); err != nil {
				t.Fatal(err)
			}
			cat, err := OpenCatalogFile(path, OpenOptions{})
			if err != nil {
				if !errors.Is(err, ErrCorruptSegment) && !errors.Is(err, errLayout) {
					t.Fatalf("open error is neither corruption nor the refusal: %v", err)
				}
				continue
			}
			scanAll(t, cat)
			cat.Close()
		}
	})
}

// TestWriteRefusesACorruptCatalog: a blob that fails its CRC while the
// writer reads it serves zeroes, so writing the catalog on would pass
// the damage off as data — the write fails with the sticky
// ErrCorruptSegment and leaves nothing at the path.
func TestWriteRefusesACorruptCatalog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.vseg")
	if _, err := WriteCatalogFile(path, tinyCatalog(t, 23)); err != nil {
		t.Fatal(err)
	}
	cat, err := OpenCatalogFile(path, OpenOptions{
		WrapReaderAt: func(r io.ReaderAt) io.ReaderAt {
			return faultinject.CorruptReaderAt(r, int64(len(segMagic)), 0x10)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cat.Close()
	out := filepath.Join(dir, "out", "c.vseg")
	if err := os.Mkdir(filepath.Dir(out), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteCatalogFile(out, cat); !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("write of a corrupt catalog: %v, want ErrCorruptSegment", err)
	}
	if entries, _ := os.ReadDir(filepath.Dir(out)); len(entries) != 0 {
		t.Fatalf("the refused write left %d files", len(entries))
	}
}
