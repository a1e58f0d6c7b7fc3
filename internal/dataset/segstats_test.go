package dataset

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// statsCatalog builds a single-table catalog whose columns hit every
// edge of the per-segment stats contract: an all-null segment, an
// all-NaN segment, mixed nulls, negative zero against positive zero,
// and both infinities — across float, int and time kinds.
func statsCatalog(t *testing.T, rows int) *Catalog {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	tbl, err := NewTable("p", Schema{
		{Name: "f", Kind: KindFloat},
		{Name: "i", Kind: KindInt},
		{Name: "ts", Kind: KindTime},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2021, 6, 1, 0, 0, 0, 0, time.UTC)
	for r := 0; r < rows; r++ {
		seg := r / SegmentSize
		var f Value
		switch {
		case seg == 1: // all-null segment: stats must be absent
			f = Null(KindFloat)
		case seg == 2: // all-NaN segment: unusable, stats absent
			f = Float(math.NaN())
		case r%257 == 0:
			f = Float(math.Inf(1))
		case r%263 == 0:
			f = Float(math.Inf(-1))
		case r%31 == 0:
			f = Float(math.Copysign(0, -1)) // -0 vs +0 tie-breaking
		case r%37 == 0:
			f = Float(0)
		case r%11 == 0:
			f = Null(KindFloat)
		default:
			f = Float((rng.Float64() - 0.5) * 1e6)
		}
		i := Int(rng.Int63n(1 << 40))
		if r%13 == 5 {
			i = Null(KindInt)
		}
		ts := Time(base.Add(time.Duration(r) * 17 * time.Second))
		if r%19 == 7 {
			ts = Null(KindTime)
		}
		if err := tbl.AppendRow(f, i, ts); err != nil {
			t.Fatal(err)
		}
	}
	cat := NewCatalog()
	if err := cat.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	return cat
}

// refSegStats is the reference per-segment fold the footer stats must
// reproduce exactly: same coercion (Value.AsFloat), same usability
// rule (null or NaN), same row-order </> comparisons (so -0/+0 ties
// resolve identically).
func refSegStats(c *Column, si int) (smin, smax float64, nulls int, any bool) {
	lo := si * SegmentSize
	hi := lo + SegmentSize
	if hi > c.Len() {
		hi = c.Len()
	}
	for r := lo; r < hi; r++ {
		f, ok := c.Value(r).AsFloat()
		if !ok || math.IsNaN(f) {
			nulls++
			continue
		}
		if !any {
			smin, smax, any = f, f, true
			continue
		}
		if f < smin {
			smin = f
		}
		if f > smax {
			smax = f
		}
	}
	return smin, smax, nulls, any
}

// TestSegmentStatsMatchScan is the stats-soundness property test: for
// every column and every segment, resident and reopened from the file it
// writes, the column's stats must equal a scan of its values bit for
// bit — including all-null segments, all-NaN segments, -0 and ±Inf.
func TestSegmentStatsMatchScan(t *testing.T) {
	const rows = 4*SegmentSize + 233 // five segments, last partial
	mem := statsCatalog(t, rows)
	path := filepath.Join(t.TempDir(), "p.vseg")
	if _, err := WriteCatalogFile(path, mem); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenCatalogFile(path, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	mt, _ := mem.Table("p")
	dt, err := disk.Table("p")
	if err != nil {
		t.Fatal(err)
	}
	nSegs := (rows + SegmentSize - 1) / SegmentSize
	for fi, field := range mt.Schema() {
		for _, backing := range []struct {
			name string
			c    *Column
		}{{"resident", mt.ColumnAt(fi)}, {"reopened", dt.ColumnAt(fi)}} {
			c, what := backing.c, field.Name+" "+backing.name
			for si := 0; si < nSegs; si++ {
				wmin, wmax, wnulls, wany := refSegStats(c, si)
				gmin, gmax, gnulls, gok := c.SegmentStats(si)
				if gok != wany {
					t.Fatalf("col %s seg %d: ok=%v, want %v", what, si, gok, wany)
				}
				if !wany {
					continue
				}
				if math.Float64bits(gmin) != math.Float64bits(wmin) ||
					math.Float64bits(gmax) != math.Float64bits(wmax) || gnulls != wnulls {
					t.Fatalf("col %s seg %d: stats (%v,%v,%d), want (%v,%v,%d)",
						what, si, gmin, gmax, gnulls, wmin, wmax, wnulls)
				}
			}
			// Out-of-range queries must read as "no stats", not panic.
			if _, _, _, ok := c.SegmentStats(nSegs + 3); ok {
				t.Fatalf("col %s: stats for nonexistent segment", what)
			}
			// The column's extremes equal the reference fold over all
			// segments.
			var cmin, cmax float64
			var cany bool
			for si := 0; si < nSegs; si++ {
				smin, smax, _, any := refSegStats(c, si)
				if !any {
					continue
				}
				if !cany {
					cmin, cmax, cany = smin, smax, true
					continue
				}
				if smin < cmin {
					cmin = smin
				}
				if smax > cmax {
					cmax = smax
				}
			}
			gmin, gmax, gok := c.MinMax()
			if gok != cany {
				t.Fatalf("col %s: column stats ok=%v, want %v", what, gok, cany)
			}
			if cany && (math.Float64bits(gmin) != math.Float64bits(cmin) ||
				math.Float64bits(gmax) != math.Float64bits(cmax)) {
				t.Fatalf("col %s: column stats (%v,%v), want (%v,%v)", what, gmin, gmax, cmin, cmax)
			}
		}
	}
}

// TestFormatVersionMatrixRoundTrip pins the compatibility contract: a
// file the writer wrote reads back bit-identically with per-segment
// stats, and the same bytes under an earlier writer's "VSEGCAT1" or
// "VSEGCAT2" head are refused at open as a layout, not as corruption
// (a compressed "VSEGCAT3" blob: TestCorruptStatsRejectedTyped).
func TestFormatVersionMatrixRoundTrip(t *testing.T) {
	mem := mixedCatalog(t, SegmentSize+57)
	dir := t.TempDir()
	v3 := filepath.Join(dir, "v3.vseg")
	if _, err := WriteCatalogFile(v3, mem); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenCatalogFile(v3, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	checkReadsBack(t, "v3", disk, mem)
	dt, _ := disk.Table("m")
	c, err := dt.Column("i")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := c.SegmentStats(0); !ok {
		t.Fatal("v3: no per-segment stats")
	}

	data, err := os.ReadFile(v3)
	if err != nil {
		t.Fatal(err)
	}
	for _, head := range []string{"VSEGCAT1", "VSEGCAT2"} {
		path := filepath.Join(dir, head+".vseg")
		if err := os.WriteFile(path, append([]byte(head), data[len(head):]...), 0o644); err != nil {
			t.Fatal(err)
		}
		checkRefused(t, path, head)
	}
}

// checkRefused requires OpenCatalogFile to refuse path as a layout it
// does not read: the error names the layout (layout is a word of it)
// and the fix, and does not wrap ErrCorruptSegment.
func checkRefused(t *testing.T, path, layout string) {
	t.Helper()
	cat, err := OpenCatalogFile(path, OpenOptions{})
	if err == nil {
		cat.Close()
		t.Fatalf("%s: opened", layout)
	}
	msg := err.Error()
	if !errors.Is(err, errLayout) || errors.Is(err, ErrCorruptSegment) ||
		!strings.Contains(msg, layout) || !strings.Contains(msg, "visdbgen -format seg") {
		t.Fatalf("%s: want the layout refusal, got %v", layout, err)
	}
}

// rewriteFooter loads a v3 file, lets mutate edit its parsed footer,
// and writes the file back with a correct CRC and tail — so the test
// reaches the footer-parsing paths behind the integrity check.
func rewriteFooter(t *testing.T, path string, mutate func(*segFooter)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	size := len(data)
	ftLen := int(binary.LittleEndian.Uint64(data[size-16 : size-8]))
	start := size - 20 - ftLen
	var ft segFooter
	if err := json.Unmarshal(data[start:start+ftLen], &ft); err != nil {
		t.Fatal(err)
	}
	mutate(&ft)
	nf, err := json.Marshal(&ft)
	if err != nil {
		t.Fatal(err)
	}
	out := append(append([]byte{}, data[:start]...), nf...)
	tail := make([]byte, 20)
	binary.LittleEndian.PutUint32(tail[:4], crc32.Checksum(nf, castagnoli))
	binary.LittleEndian.PutUint64(tail[4:12], uint64(len(nf)))
	copy(tail[12:], segEndMagic)
	out = append(out, tail...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptStatsRejectedTyped: a stats string that fails to parse
// means the footer disagrees with its writer — the open must fail with
// the typed ErrCorruptSegment, not silently drop the pruning stats.
func TestCorruptStatsRejectedTyped(t *testing.T) {
	mem := statsCatalog(t, SegmentSize+50)
	mutations := []struct {
		name   string
		mutate func(*segFooter)
	}{
		{"column min garbled", func(ft *segFooter) {
			ft.Tables[0].Fields[0].Min = "not-a-float"
		}},
		{"segment max garbled", func(ft *segFooter) {
			segs := ft.Tables[0].Fields[0].Segs
			for i := range segs {
				if segs[i].Max != "" {
					segs[i].Max = "zz"
					return
				}
			}
			t.Fatal("no segment carries stats")
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "x.vseg")
			if _, err := WriteCatalogFile(path, mem); err != nil {
				t.Fatal(err)
			}
			rewriteFooter(t, path, m.mutate)
			cat, err := OpenCatalogFile(path, OpenOptions{})
			if err == nil {
				cat.Close()
				t.Fatal("open succeeded on corrupt stats")
			}
			if !errors.Is(err, ErrCorruptSegment) {
				t.Fatalf("error is not ErrCorruptSegment: %v", err)
			}
		})
	}
	// A blob compressed by an earlier writer — any enc != 0, on any kind
	// — is a layout the reader does not read, refused rather than
	// quarantined.
	t.Run("enc on string column", func(t *testing.T) {
		tbl, err := NewTable("s", Schema{{Name: "name", Kind: KindString}})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 10; r++ {
			if err := tbl.AppendRow(Str("x")); err != nil {
				t.Fatal(err)
			}
		}
		cat := NewCatalog()
		if err := cat.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "s.vseg")
		if _, err := WriteCatalogFile(path, cat); err != nil {
			t.Fatal(err)
		}
		rewriteFooter(t, path, func(ft *segFooter) {
			ft.Tables[0].Fields[0].Segs[0].Enc = 1
		})
		checkRefused(t, path, "compressed")
	})
}

// TestFooterKindOutsideTheEnumRefusedAtOpen: a footer naming a kind the
// engine does not know was not written by the writer, and is refused at
// open as corruption — not opened to fail on the first read mid-serve.
func TestFooterKindOutsideTheEnumRefusedAtOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k.vseg")
	if _, err := WriteCatalogFile(path, mixedCatalog(t, 300)); err != nil {
		t.Fatal(err)
	}
	rewriteFooter(t, path, func(ft *segFooter) { ft.Tables[0].Fields[0].Kind = 99 })
	cat, err := OpenCatalogFile(path, OpenOptions{})
	if err == nil {
		cat.Close()
		t.Fatal("a footer with kind 99 opened")
	}
	if !errors.Is(err, ErrCorruptSegment) {
		t.Fatalf("error is not ErrCorruptSegment: %v", err)
	}
}
