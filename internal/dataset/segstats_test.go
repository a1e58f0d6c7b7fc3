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
func refSegStats(c Column, si int) (smin, smax float64, nulls int, any bool) {
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
// every column and every segment of a v3 file, the footer's stats must
// equal a post-hoc scan of the decoded values bit for bit — including
// all-null segments, all-NaN segments, -0 and ±Inf.
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
	for _, field := range mt.Schema() {
		mc, err := mt.Column(field.Name)
		if err != nil {
			t.Fatal(err)
		}
		fr, err := dt.FloatReaderOf(field.Name)
		if err != nil {
			t.Fatal(err)
		}
		ss, ok := fr.(SegmentStatser)
		if !ok {
			t.Fatalf("col %s: file column is no SegmentStatser", field.Name)
		}
		for si := 0; si < nSegs; si++ {
			wmin, wmax, wnulls, wany := refSegStats(mc, si)
			gmin, gmax, gnulls, gok := ss.SegmentStats(si)
			if gok != wany {
				t.Fatalf("col %s seg %d: ok=%v, want %v", field.Name, si, gok, wany)
			}
			if !wany {
				continue
			}
			if math.Float64bits(gmin) != math.Float64bits(wmin) ||
				math.Float64bits(gmax) != math.Float64bits(wmax) || gnulls != wnulls {
				t.Fatalf("col %s seg %d: stats (%v,%v,%d), want (%v,%v,%d)",
					field.Name, si, gmin, gmax, gnulls, wmin, wmax, wnulls)
			}
		}
		// Out-of-range queries must read as "no stats", not panic.
		if _, _, _, ok := ss.SegmentStats(nSegs + 3); ok {
			t.Fatalf("col %s: stats for nonexistent segment", field.Name)
		}
		// Column-level footer stats equal the reference fold over all
		// segments (the satellite audit of the min/max accumulation).
		var cmin, cmax float64
		var cany bool
		for si := 0; si < nSegs; si++ {
			smin, smax, _, any := refSegStats(mc, si)
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
		gmin, gmax, gok, err := dt.MinMaxOf(field.Name)
		if err != nil {
			t.Fatal(err)
		}
		if gok != cany {
			t.Fatalf("col %s: column stats ok=%v, want %v", field.Name, gok, cany)
		}
		if cany && (math.Float64bits(gmin) != math.Float64bits(cmin) ||
			math.Float64bits(gmax) != math.Float64bits(cmax)) {
			t.Fatalf("col %s: column stats (%v,%v), want (%v,%v)", field.Name, gmin, gmax, cmin, cmax)
		}
	}
}

// TestFormatVersionMatrixRoundTrip pins the compatibility contract:
// the same catalog in formats v1, v2 (the checked-in files the deleted
// writers left) and v3 (written here) reads back bit-identically
// through both the mmap and the ReadAt backends, and only v3 answers
// per-segment stats.
func TestFormatVersionMatrixRoundTrip(t *testing.T) {
	mem := mixedCatalog(t, legacyFixtureRows)
	v3 := filepath.Join(t.TempDir(), "v3.vseg")
	if _, err := WriteCatalogFile(v3, mem); err != nil {
		t.Fatal(err)
	}
	for _, f := range []struct {
		name, path string
		stats      bool
	}{
		{"v3", v3, true},
		{"v2", legacyFixture(2), false},
		{"v1", legacyFixture(1), false},
	} {
		checkReadsBack(t, f.name, f.path, mem, func(disk *Catalog) {
			dt, _ := disk.Table("m")
			fr, err := dt.FloatReaderOf("i")
			if err != nil {
				t.Fatal(err)
			}
			if _, _, _, ok := fr.(SegmentStatser).SegmentStats(0); ok != f.stats {
				t.Fatalf("%s: SegmentStats ok = %v, want %v", f.name, ok, f.stats)
			}
		})
	}
}

// TestCompressionShrinksClusteredFile: the v3 codecs (delta for
// ints/times, xor for floats) must beat the raw payload — 8 bytes a
// word plus a null bitmap per column segment, what the uncompressed
// layouts store — on clustered data, where adjacent words share most
// of their bits.
func TestCompressionShrinksClusteredFile(t *testing.T) {
	tbl, err := NewTable("c", Schema{
		{Name: "seq", Kind: KindInt},
		{Name: "ts", Kind: KindTime},
		{Name: "v", Kind: KindFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewSource(5))
	const rows = 3 * SegmentSize
	for r := 0; r < rows; r++ {
		if err := tbl.AppendRow(
			Int(int64(1_000_000+r*3)),
			Time(base.Add(time.Duration(r)*time.Minute)),
			Float(float64(r)/rows*100+rng.Float64()),
		); err != nil {
			t.Fatal(err)
		}
	}
	mem := NewCatalog()
	if err := mem.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	p3 := filepath.Join(dir, "c3.vseg")
	if _, err := WriteCatalogFile(p3, mem); err != nil {
		t.Fatal(err)
	}
	s3, err := os.Stat(p3)
	if err != nil {
		t.Fatal(err)
	}
	const cols = 3
	raw := int64(cols * (rows*8 + rows/SegmentSize*(SegmentSize/8)))
	if s3.Size() >= raw {
		t.Fatalf("v3 file %d bytes (footer included), not smaller than the raw payload %d bytes", s3.Size(), raw)
	}
	// And the compressed file still reads back exactly.
	disk, err := OpenCatalogFile(p3, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	dt, err := disk.Table("c")
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"seq", "ts", "v"} {
		mf, err := tbl.FloatsOf(col)
		if err != nil {
			t.Fatal(err)
		}
		df, err := dt.FloatsOf(col)
		if err != nil {
			t.Fatal(err)
		}
		for r := range mf {
			if math.Float64bits(mf[r]) != math.Float64bits(df[r]) {
				t.Fatalf("col %s row %d: compressed round trip differs", col, r)
			}
		}
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
	copy(tail[12:], segEndMagic3)
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
	// A crafted encoding on a non-word kind must be rejected too: the
	// codecs are defined only for float/int/time payloads.
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
			ft.Tables[0].Fields[0].Segs[0].Enc = encDelta
		})
		opened, err := OpenCatalogFile(path, OpenOptions{})
		if err == nil {
			opened.Close()
			t.Fatal("open accepted a delta-coded string column")
		}
		if !errors.Is(err, ErrCorruptSegment) {
			t.Fatalf("error is not ErrCorruptSegment: %v", err)
		}
	})
}

// TestCodecRoundTrip is the codec property test: random word payloads
// survive compress→expand bit-identically under both codecs, and
// malformed compressed payloads error instead of producing garbage.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	payloads := [][]uint64{
		{},
		{0},
		{math.MaxUint64},
		{0, math.MaxUint64, 0, math.MaxUint64},
	}
	ramp := make([]uint64, 300)
	for i := range ramp {
		ramp[i] = uint64(i * 1000)
	}
	payloads = append(payloads, ramp)
	randw := make([]uint64, 500)
	for i := range randw {
		randw[i] = rng.Uint64()
	}
	payloads = append(payloads, randw)
	floats := make([]uint64, 400)
	for i := range floats {
		floats[i] = math.Float64bits(float64(i)/400 + rng.Float64()*1e-3)
	}
	payloads = append(payloads, floats)

	for pi, words := range payloads {
		raw := make([]byte, 8*len(words))
		for i, w := range words {
			binary.LittleEndian.PutUint64(raw[8*i:], w)
		}
		for _, enc := range []int{encDelta, encXor} {
			comp := compressWords(enc, raw)
			back, err := expandWords(enc, comp, len(words))
			if err != nil {
				t.Fatalf("payload %d enc %d: %v", pi, enc, err)
			}
			if len(back) != len(raw) {
				t.Fatalf("payload %d enc %d: %d bytes back, want %d", pi, enc, len(back), len(raw))
			}
			for i := range raw {
				if back[i] != raw[i] {
					t.Fatalf("payload %d enc %d: byte %d differs", pi, enc, i)
				}
			}
			// Truncation mid-stream must error, never fabricate rows.
			if len(comp) > 1 {
				if _, err := expandWords(enc, comp[:len(comp)/2], len(words)); err == nil {
					t.Fatalf("payload %d enc %d: truncated payload expanded cleanly", pi, enc)
				}
			}
			// Trailing garbage must error too.
			if _, err := expandWords(enc, append(append([]byte{}, comp...), 0x01), len(words)); err == nil {
				t.Fatalf("payload %d enc %d: trailing bytes accepted", pi, enc)
			}
		}
	}
	if _, err := expandWords(99, []byte{1, 2, 3}, 1); err == nil {
		t.Fatal("unknown encoding accepted")
	}
}
