package dataset

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/lru"
)

// This file implements the on-disk segment catalog format and its two
// read backends. The layout is write-once, footer-based, so the writer
// streams segments with O(segment) memory and never seeks:
//
//	"VSEGCAT3"                              8-byte head magic
//	blob ...                                segment blobs, any order
//	footer                                  JSON (segFooter)
//	footer CRC32C                           uint32 LE (v2+)
//	footer length                           uint64 LE
//	"VSEGEND3"                              8-byte end magic
//
// Format v2 added end-to-end integrity: every blob's CRC32C rides in
// its footer entry and is verified on every decode, and the footer
// itself is covered by the CRC in the tail — flipping any single byte
// of a v2+ file surfaces as a typed ErrCorruptSegment error, either at
// open (magic/tail/footer damage) or on the first read that touches
// the damaged blob. Format v3 ("VSEGCAT3", same tail shape) adds
// per-SEGMENT statistics and compression: every numeric column's blob
// entry carries the segment's min/max (hex floats) and its count of
// rows without a usable numeric value (SQL nulls plus NaN floats —
// exactly the rows whose Value.AsFloat yields no finite ordering key),
// and word payloads may be compressed (segBlob.Enc: delta+zigzag+
// uvarint for ints and times, xor-with-previous+uvarint for floats;
// kept only when strictly smaller). Blob CRCs cover the on-disk,
// possibly compressed bytes. The writer produces v3 and nothing else;
// the legacy layouts — checksum-free "VSEGCAT1" (16-byte tail) and
// "VSEGCAT2" — are read-only: files in them still open and read exactly
// as before (no per-segment stats, no compression, v1 unverified), and
// testdata/mixed_v1.vseg and mixed_v2.vseg, written by the last
// writers that could, pin that.
//
// The per-segment stats carry a soundness contract: min/max bound
// every usable value of the segment and nulls counts every unusable
// row, so a reader may prove "every row of this segment lies inside
// [lo, hi]" — and therefore has range distance exactly 0 — without
// decoding the blob. The cold scan path of internal/core skips the
// decode of such segments entirely (see SegmentStatser).
//
// A blob holds one column segment (SegmentSize rows, the final segment
// of a table possibly fewer): a null bitmap of ceil(rows/8) bytes
// (bit set = null) followed by the kind's payload — float64 bits,
// int64, or unix nanoseconds as 8-byte little-endian words (possibly
// compressed under v3); bools as one byte each; string kinds as
// (rows+1) uint32 cumulative offsets followed by the concatenated
// bytes. The footer maps every table, field and segment to its blob
// (offset, length) and carries the per-field min/max stats and the
// catalog epoch (FNV-1a over all blob bytes), so
// opening a catalog reads the footer and nothing else.
//
// Two format consequences are deliberate: times are stored as unix
// nanoseconds and decode in UTC (instants outside the int64-nanosecond
// range, roughly years 1678–2262, do not round-trip; original zone
// offsets are normalized away), and Append on a file-backed table is
// rejected — the format is immutable once written.

const (
	segMagic    = "VSEGCAT1"
	segEndMagic = "VSEGEND1"

	segMagic2    = "VSEGCAT2"
	segEndMagic2 = "VSEGEND2"

	segMagic3    = "VSEGCAT3"
	segEndMagic3 = "VSEGEND3"
)

// ErrCorruptSegment is wrapped by every error that means a segment
// catalog file's bytes do not match what its writer produced — bad
// magics, a footer that fails its CRC or does not parse, blob geometry
// out of bounds, or (v2) a blob whose CRC32C does not match on decode.
// Callers distinguish it from I/O and usage errors with errors.Is and
// quarantine the catalog instead of trusting its data.
var ErrCorruptSegment = errors.New("corrupt segment catalog")

// castagnoli is the CRC32C polynomial table shared by the writer and
// the verifying reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segBlob locates one segment blob in the file. CRC is the CRC32C of
// the blob's on-disk bytes (compressed form when Enc is set); the
// writer always sets it and readers verify it on every decode (absent
// from legacy v1 footers, where it decodes as zero and is ignored).
//
// Format v3 adds the per-segment fields: Enc selects the payload
// encoding (encRaw/encDelta/encXor), and Min/Max/Nulls are the
// segment's statistics — extremes over the usable values as hex float
// strings (exact bits, infinities survive JSON) plus the count of rows
// with no usable numeric value (null, or NaN for float columns).
// Min/Max present with Nulls == 0 is the precondition for the skip
// proof of SegmentStatser; absent stats (v1/v2 footers, string
// columns, all-null segments) disable skipping, never correctness.
type segBlob struct {
	Off   int64  `json:"off"`
	Len   int64  `json:"len"`
	CRC   uint32 `json:"crc,omitempty"`
	Enc   int    `json:"enc,omitempty"`
	Min   string `json:"min,omitempty"`
	Max   string `json:"max,omitempty"`
	Nulls int    `json:"nulls,omitempty"`
}

// segField is the footer metadata of one column.
type segField struct {
	Name       string   `json:"name"`
	Kind       int      `json:"kind"`
	Categories []string `json:"categories,omitempty"`
	// Min/Max are the column's numeric extremes (hex float strings, so
	// infinities and exact bits survive JSON); empty when the column
	// has no non-null, non-NaN numeric values.
	Min  string    `json:"min,omitempty"`
	Max  string    `json:"max,omitempty"`
	Segs []segBlob `json:"segs"`
}

// segTable is the footer metadata of one table.
type segTable struct {
	Name   string     `json:"name"`
	Rows   int        `json:"rows"`
	Fields []segField `json:"fields"`
}

// segFooter is the JSON footer of a segment catalog file.
type segFooter struct {
	Epoch       uint64       `json:"epoch"`
	Tables      []segTable   `json:"tables"`
	Connections []Connection `json:"connections,omitempty"`
}

// --- Writer -----------------------------------------------------------

// SegmentWriter streams a catalog into the on-disk segment format with
// O(segment) memory: rows buffer per table until a full segment
// accumulates, then its column blobs flush to the file.
type SegmentWriter struct {
	f      *os.File
	w      *bufio.Writer
	off    int64
	hash   interface{ Write([]byte) (int, error) }
	sum    func() uint64
	footer segFooter
	open   []*TableWriter
	names  map[string]bool
	closed bool
}

// CreateSegmentCatalog creates path and returns a writer for it. The
// writer produces the current "VSEGCAT3" layout and no other; the
// older layouts are read-only.
func CreateSegmentCatalog(path string) (*SegmentWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	w := &SegmentWriter{
		f:     f,
		w:     bufio.NewWriterSize(f, 1<<16),
		hash:  h,
		sum:   h.Sum64,
		names: make(map[string]bool),
	}
	if _, err := w.w.WriteString(segMagic3); err != nil {
		f.Close()
		return nil, err
	}
	w.off = int64(len(segMagic3))
	return w, nil
}

// AddConnection records a connection in the footer. Validation against
// tables happens on open (tables may not be written yet).
func (w *SegmentWriter) AddConnection(conn Connection) error {
	if err := conn.Validate(); err != nil {
		return err
	}
	w.footer.Connections = append(w.footer.Connections, conn)
	return nil
}

// AddTable starts a new table; append its rows through the returned
// TableWriter. Tables may be written concurrently only from one
// goroutine (the writer is not synchronized).
func (w *SegmentWriter) AddTable(name string, schema Schema) (*TableWriter, error) {
	if w.names[name] {
		return nil, fmt.Errorf("dataset: table %q already written", name)
	}
	buf, err := NewTable(name, schema)
	if err != nil {
		return nil, err
	}
	w.names[name] = true
	tw := &TableWriter{
		w:    w,
		buf:  buf,
		meta: segTable{Name: name},
		mins: make([]float64, len(schema)),
		maxs: make([]float64, len(schema)),
		any:  make([]bool, len(schema)),
	}
	for i, f := range schema {
		tw.meta.Fields = append(tw.meta.Fields, segField{
			Name:       f.Name,
			Kind:       int(f.Kind),
			Categories: append([]string(nil), f.Categories...),
		})
		tw.mins[i], tw.maxs[i] = math.Inf(1), math.Inf(-1)
	}
	w.open = append(w.open, tw)
	return tw, nil
}

// writeBlob appends raw blob bytes and returns their location and
// CRC32C.
func (w *SegmentWriter) writeBlob(b []byte) (segBlob, error) {
	if _, err := w.w.Write(b); err != nil {
		return segBlob{}, err
	}
	w.hash.Write(b)
	loc := segBlob{Off: w.off, Len: int64(len(b)), CRC: crc32.Checksum(b, castagnoli)}
	w.off += int64(len(b))
	return loc, nil
}

// Close flushes every table's partial segment, writes the footer and
// closes the file.
func (w *SegmentWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	for _, tw := range w.open {
		if err := tw.flush(); err != nil {
			w.f.Close()
			return err
		}
		tw.finishStats()
		w.footer.Tables = append(w.footer.Tables, tw.meta)
	}
	w.footer.Epoch = w.sum()
	ft, err := json.Marshal(w.footer)
	if err != nil {
		w.f.Close()
		return err
	}
	if _, err := w.w.Write(ft); err != nil {
		w.f.Close()
		return err
	}
	tail := make([]byte, 20)
	binary.LittleEndian.PutUint32(tail[:4], crc32.Checksum(ft, castagnoli))
	binary.LittleEndian.PutUint64(tail[4:12], uint64(len(ft)))
	copy(tail[12:], segEndMagic3)
	if _, err := w.w.Write(tail); err != nil {
		w.f.Close()
		return err
	}
	if err := w.w.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// TableWriter appends rows of one table to a SegmentWriter.
type TableWriter struct {
	w    *SegmentWriter
	buf  *Table // holds at most one segment of rows
	meta segTable
	mins []float64
	maxs []float64
	any  []bool
}

// AppendRow validates and buffers one row, flushing a blob per column
// whenever a full segment accumulates. Column statistics fold at flush
// time from the buffered segment (never from the raw argument values),
// so null rows and NaN floats — whose Value.AsFloat yields no usable
// ordering key — can never leak into the footer's min/max.
func (tw *TableWriter) AppendRow(vals ...Value) error {
	if err := tw.buf.AppendRow(vals...); err != nil {
		return err
	}
	tw.meta.Rows++
	if tw.buf.NumRows() == SegmentSize {
		return tw.flush()
	}
	return nil
}

// flush encodes and writes the buffered segment of every column,
// computing the segment's statistics (the footer carries them per blob)
// and folding them into the running column extremes.
func (tw *TableWriter) flush() error {
	rows := tw.buf.NumRows()
	if rows == 0 {
		return nil
	}
	for i := range tw.meta.Fields {
		c := tw.buf.ColumnAt(i)
		blob, enc := encodeSegment(c, rows)
		loc, err := tw.w.writeBlob(blob)
		if err != nil {
			return err
		}
		loc.Enc = enc
		smin, smax, unusable, any := segmentStats(c, rows)
		if any {
			if smin < tw.mins[i] {
				tw.mins[i] = smin
			}
			if smax > tw.maxs[i] {
				tw.maxs[i] = smax
			}
			tw.any[i] = true
			loc.Min = strconv.FormatFloat(smin, 'x', -1, 64)
			loc.Max = strconv.FormatFloat(smax, 'x', -1, 64)
			loc.Nulls = unusable
		}
		tw.meta.Fields[i].Segs = append(tw.meta.Fields[i].Segs, loc)
	}
	fresh, err := NewTable(tw.buf.Name(), tw.buf.Schema())
	if err != nil {
		return err
	}
	tw.buf = fresh
	return nil
}

// segmentStats scans one buffered segment for its footer statistics:
// min/max over the usable values (rows whose Value.AsFloat is a
// non-NaN float — matching exactly the coercion ReadFloats serves) and
// the count of unusable rows. any is false when no row is usable
// (all-null segments, string columns).
func segmentStats(c Column, rows int) (smin, smax float64, unusable int, any bool) {
	smin, smax = math.Inf(1), math.Inf(-1)
	for r := 0; r < rows; r++ {
		f, ok := c.Value(r).AsFloat()
		if !ok || math.IsNaN(f) {
			unusable++
			continue
		}
		any = true
		if f < smin {
			smin = f
		}
		if f > smax {
			smax = f
		}
	}
	return smin, smax, unusable, any
}

// finishStats folds the accumulated extremes into the footer metadata —
// called exactly once, at Close (a per-flush fold would rewrite the
// same strings once per segment for nothing).
func (tw *TableWriter) finishStats() {
	for i := range tw.meta.Fields {
		if tw.any[i] {
			tw.meta.Fields[i].Min = strconv.FormatFloat(tw.mins[i], 'x', -1, 64)
			tw.meta.Fields[i].Max = strconv.FormatFloat(tw.maxs[i], 'x', -1, 64)
		}
	}
}

// WriteCatalogFile streams an in-memory catalog into a segment file at
// path (current format, "VSEGCAT3") and returns the epoch stamped into
// its footer.
func WriteCatalogFile(path string, cat *Catalog) (uint64, error) {
	w, err := CreateSegmentCatalog(path)
	if err != nil {
		return 0, err
	}
	for _, name := range cat.TableNames() {
		t, err := cat.Table(name)
		if err != nil {
			w.Close()
			return 0, err
		}
		tw, err := w.AddTable(name, t.Schema())
		if err != nil {
			w.Close()
			return 0, err
		}
		for r := 0; r < t.NumRows(); r++ {
			if err := tw.AppendRow(t.Row(r)...); err != nil {
				w.Close()
				return 0, err
			}
		}
	}
	for _, name := range cat.ConnectionNames() {
		conn, err := cat.Connection(name)
		if err != nil {
			w.Close()
			return 0, err
		}
		if err := w.AddConnection(conn); err != nil {
			w.Close()
			return 0, err
		}
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	epoch, err := peekEpoch(path)
	if err != nil {
		return 0, err
	}
	return epoch, nil
}

// peekEpoch reads only the footer of a segment file and returns its
// epoch.
func peekEpoch(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	ft, _, err := readFooter(f)
	if err != nil {
		return 0, err
	}
	return ft.Epoch, nil
}

// encodeSegmentRaw serializes the first (only) buffered segment of an
// in-memory column as an uncompressed blob.
func encodeSegmentRaw(c Column, rows int) []byte {
	bm := make([]byte, (rows+7)/8)
	for i := 0; i < rows; i++ {
		if c.IsNull(i) {
			bm[i>>3] |= 1 << (i & 7)
		}
	}
	out := bm
	var word [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(word[:], u)
		out = append(out, word[:]...)
	}
	switch col := c.(type) {
	case *FloatColumn:
		vals := col.vals.seg(0)
		for i := 0; i < rows; i++ {
			put(math.Float64bits(vals[i]))
		}
	case *IntColumn:
		vals := col.vals.seg(0)
		for i := 0; i < rows; i++ {
			put(uint64(vals[i]))
		}
	case *TimeColumn:
		vals := col.vals.seg(0)
		for i := 0; i < rows; i++ {
			if col.nulls.seg(0)[i] {
				put(0)
			} else {
				put(uint64(vals[i].UnixNano()))
			}
		}
	case *BoolColumn:
		vals := col.vals.seg(0)
		for i := 0; i < rows; i++ {
			if vals[i] {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
		}
	case *StringColumn:
		vals := col.vals.seg(0)
		var off [4]byte
		total := uint32(0)
		binary.LittleEndian.PutUint32(off[:], 0)
		out = append(out, off[:]...)
		for i := 0; i < rows; i++ {
			total += uint32(len(vals[i]))
			binary.LittleEndian.PutUint32(off[:], total)
			out = append(out, off[:]...)
		}
		for i := 0; i < rows; i++ {
			out = append(out, vals[i]...)
		}
	default:
		panic(fmt.Sprintf("dataset: cannot encode column type %T", c))
	}
	return out
}

// encodeSegment encodes one segment as the writer stores it: the
// compressed word payload when the kind has one and compression
// strictly shrinks it (the null bitmap always stays raw at the front),
// the raw blob otherwise. Returns the blob bytes and the encoding
// stamped into the footer entry.
func encodeSegment(c Column, rows int) ([]byte, int) {
	raw := encodeSegmentRaw(c, rows)
	var enc int
	switch c.(type) {
	case *IntColumn, *TimeColumn:
		enc = encDelta
	case *FloatColumn:
		enc = encXor
	default:
		return raw, encRaw
	}
	bm := (rows + 7) / 8
	comp := compressWords(enc, raw[bm:])
	if len(comp) >= len(raw)-bm {
		return raw, encRaw
	}
	out := make([]byte, 0, bm+len(comp))
	out = append(out, raw[:bm]...)
	out = append(out, comp...)
	return out, enc
}

// --- Reader -----------------------------------------------------------

// OpenOptions configures OpenCatalogFile.
type OpenOptions struct {
	// ForceReadAt disables the mmap backend even where available, so
	// reads go through os.File.ReadAt (the portable fallback).
	ForceReadAt bool
	// CacheBytes bounds the decoded-segment cache shared by all
	// columns of the catalog; 0 selects the 64 MiB default. The cache
	// always retains at least one segment, so arbitrarily small
	// budgets degrade to re-decoding, never to failure.
	CacheBytes int64
	// WrapReaderAt, when non-nil, wraps the file before segment blob
	// reads — the fault-injection seam (internal/faultinject's
	// corrupting/truncating/slow ReaderAt wrappers plug in here).
	// Setting it forces the ReadAt backend, since mmap would bypass
	// the wrapper. The footer is read directly from the file at open,
	// before wrapping.
	WrapReaderAt func(io.ReaderAt) io.ReaderAt
}

// OpenCatalogFile opens a segment catalog written by SegmentWriter.
// The returned catalog serves reads directly from the file through a
// bounded decoded-segment cache — resident memory is O(cache budget),
// not O(catalog). Close the catalog to release the backing file.
func OpenCatalogFile(path string, opts OpenOptions) (*Catalog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	ft, version, err := readFooter(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	var br blobReader
	if !opts.ForceReadAt && opts.WrapReaderAt == nil {
		br, _ = openMmapReader(f, fi.Size())
	}
	if br == nil {
		var ra io.ReaderAt = f
		if opts.WrapReaderAt != nil {
			ra = opts.WrapReaderAt(f)
		}
		br = &readAtReader{r: ra, c: f}
	}
	budget := opts.CacheBytes
	if budget <= 0 {
		budget = 64 << 20
	}
	src := &fileSource{
		br:     br,
		cache:  lru.New[segKey, *decodedSeg](0, budget),
		verify: version >= 2,
	}
	cat := NewCatalog()
	cat.epoch = ft.Epoch
	cat.closer = src.close
	cat.corrupt = src.corruptErr
	colID := 0
	for _, tm := range ft.Tables {
		schema := make(Schema, len(tm.Fields))
		cols := make([]Column, len(tm.Fields))
		for i, fm := range tm.Fields {
			schema[i] = Field{Name: fm.Name, Kind: Kind(fm.Kind), Categories: fm.Categories}
			fc := &fileColumn{
				src:  src,
				id:   colID,
				kind: Kind(fm.Kind),
				rows: tm.Rows,
				segs: fm.Segs,
			}
			colID++
			// A stats string that does not parse back means the footer
			// disagrees with its writer: surface the typed corruption
			// error instead of silently dropping the stats (which would
			// silently disable every pruning path on this column).
			if fm.Min != "" || fm.Max != "" {
				min, err1 := strconv.ParseFloat(fm.Min, 64)
				max, err2 := strconv.ParseFloat(fm.Max, 64)
				if err1 != nil || err2 != nil {
					src.close()
					return nil, fmt.Errorf("dataset: %s: table %q field %q: corrupt column stats (%q, %q): %w",
						path, tm.Name, fm.Name, fm.Min, fm.Max, ErrCorruptSegment)
				}
				fc.min, fc.max, fc.stats = min, max, true
			}
			for si, loc := range fm.Segs {
				if loc.Min == "" && loc.Max == "" {
					continue
				}
				min, err1 := strconv.ParseFloat(loc.Min, 64)
				max, err2 := strconv.ParseFloat(loc.Max, 64)
				if err1 != nil || err2 != nil {
					src.close()
					return nil, fmt.Errorf("dataset: %s: table %q field %q segment %d: corrupt segment stats (%q, %q): %w",
						path, tm.Name, fm.Name, si, loc.Min, loc.Max, ErrCorruptSegment)
				}
				if fc.sstats == nil {
					fc.sstats = make([]segStat, len(fm.Segs))
				}
				fc.sstats[si] = segStat{min: min, max: max, nulls: loc.Nulls, ok: true}
			}
			if err := fc.validate(tm.Name, fm.Name, fi.Size()); err != nil {
				src.close()
				return nil, err
			}
			cols[i] = fc
		}
		if err := schema.Validate(); err != nil {
			src.close()
			return nil, fmt.Errorf("dataset: %s: table %q: %w", path, tm.Name, err)
		}
		t := &Table{name: tm.Name, schema: schema, cols: cols}
		if err := cat.AddTable(t); err != nil {
			src.close()
			return nil, err
		}
	}
	for _, conn := range ft.Connections {
		if err := cat.AddConnection(conn); err != nil {
			src.close()
			return nil, err
		}
	}
	return cat, nil
}

// readFooter locates and parses the footer of a segment file,
// reporting the format version it detected from the head magic. Every
// way the file can disagree with its writer's layout — bad magics, a
// tail that does not frame a footer, a v2 footer failing its CRC —
// wraps ErrCorruptSegment.
func readFooter(f *os.File) (*segFooter, int, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	size := fi.Size()
	if size < int64(len(segMagic)) {
		return nil, 0, fmt.Errorf("dataset: %s: too short for a segment catalog: %w", f.Name(), ErrCorruptSegment)
	}
	head := make([]byte, len(segMagic))
	if _, err := f.ReadAt(head, 0); err != nil {
		return nil, 0, err
	}
	version := 0
	tailLen := int64(0)
	switch string(head) {
	case segMagic:
		version, tailLen = 1, 16
	case segMagic2:
		version, tailLen = 2, 20
	case segMagic3:
		version, tailLen = 3, 20
	default:
		return nil, 0, fmt.Errorf("dataset: %s: not a segment catalog (bad magic): %w", f.Name(), ErrCorruptSegment)
	}
	if size < int64(len(segMagic))+tailLen {
		return nil, 0, fmt.Errorf("dataset: %s: too short for a segment catalog: %w", f.Name(), ErrCorruptSegment)
	}
	tail := make([]byte, tailLen)
	if _, err := f.ReadAt(tail, size-tailLen); err != nil {
		return nil, 0, err
	}
	var ftLen int64
	var ftCRC uint32
	if version == 1 {
		if string(tail[8:]) != segEndMagic {
			return nil, 0, fmt.Errorf("dataset: %s: truncated segment catalog (bad end magic): %w", f.Name(), ErrCorruptSegment)
		}
		ftLen = int64(binary.LittleEndian.Uint64(tail[:8]))
	} else {
		end := segEndMagic3
		if version == 2 {
			end = segEndMagic2
		}
		if string(tail[12:]) != end {
			return nil, 0, fmt.Errorf("dataset: %s: truncated segment catalog (bad end magic): %w", f.Name(), ErrCorruptSegment)
		}
		ftCRC = binary.LittleEndian.Uint32(tail[:4])
		ftLen = int64(binary.LittleEndian.Uint64(tail[4:12]))
	}
	if ftLen <= 0 || ftLen > size-tailLen-int64(len(segMagic)) {
		return nil, 0, fmt.Errorf("dataset: %s: corrupt footer length %d: %w", f.Name(), ftLen, ErrCorruptSegment)
	}
	buf := make([]byte, ftLen)
	if _, err := f.ReadAt(buf, size-tailLen-ftLen); err != nil {
		return nil, 0, err
	}
	if version >= 2 {
		if got := crc32.Checksum(buf, castagnoli); got != ftCRC {
			return nil, 0, fmt.Errorf("dataset: %s: footer CRC mismatch (%08x != %08x): %w", f.Name(), got, ftCRC, ErrCorruptSegment)
		}
	}
	var ft segFooter
	if err := json.Unmarshal(buf, &ft); err != nil {
		return nil, 0, fmt.Errorf("dataset: %s: corrupt footer (%v): %w", f.Name(), err, ErrCorruptSegment)
	}
	return &ft, version, nil
}

// blobReader reads a byte range of the catalog file. slice may return
// memory borrowed from an mmap window — callers must copy out before
// the source closes and must not mutate it.
type blobReader interface {
	slice(off, n int64) ([]byte, error)
	close() error
}

// readAtReader is the portable backend: plain pread into fresh
// buffers. r is usually the file itself, but OpenOptions.WrapReaderAt
// may interpose a fault-injecting wrapper.
type readAtReader struct {
	r io.ReaderAt
	c io.Closer
}

func (r *readAtReader) slice(off, n int64) ([]byte, error) {
	buf := make([]byte, n)
	if _, err := r.r.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

func (r *readAtReader) close() error { return r.c.Close() }

// segKey identifies one decoded segment in the cache.
type segKey struct {
	col int
	seg int
}

// decodedSeg is one column segment decoded into native slices. Exactly
// one of the payload slices is set, per the column kind.
type decodedSeg struct {
	nulls  []bool
	floats []float64
	ints   []int64
	times  []time.Time
	bools  []bool
	strs   []string
	bytes  int64
}

// fileSource is the shared read state of one open catalog file: the
// backend and the decoded-segment cache, bounded by OpenOptions.CacheBytes
// (the store keeps its most recent segment whatever the budget, so a
// 1-byte cache still serves reads). Concurrent sessions share it; the
// mutex guards only the cache bookkeeping — decoding happens outside it
// (a rare race decodes a segment twice, which is benign).
type fileSource struct {
	br     blobReader
	verify bool // format v2: check each blob's CRC32C on decode
	mu     sync.Mutex
	cache  *lru.Cache[segKey, *decodedSeg]
	// corrupt is the sticky first decode/read failure. Once set, data
	// served from this source is untrustworthy (failed segments read
	// as zeroes) and the owner must quarantine the catalog; it never
	// clears while the file is open.
	corrupt error
}

func (s *fileSource) close() error { return s.br.close() }

// corruptErr returns the sticky corruption error (nil while healthy).
func (s *fileSource) corruptErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.corrupt
}

// fail records the first corruption error.
func (s *fileSource) fail(err error) {
	s.mu.Lock()
	if s.corrupt == nil {
		s.corrupt = err
	}
	s.mu.Unlock()
}

// segment returns the decoded segment si of column c, from cache or
// disk. A decode failure (I/O error, CRC mismatch, malformed payload)
// must not panic — reads run on evaluator worker goroutines — and has
// no error channel through the Column interface, so it records the
// sticky corruption error and serves a zeroed segment: callers that
// check corruptErr (the serving layer does after every run) discard
// the tainted results instead of trusting them.
func (s *fileSource) segment(c *fileColumn, si int) *decodedSeg {
	key := segKey{c.id, si}
	s.mu.Lock()
	seg, ok := s.cache.Get(key)
	s.mu.Unlock()
	if ok {
		return seg
	}

	seg, err := s.decode(c, si)
	if err != nil {
		s.fail(fmt.Errorf("dataset: segment %d of column %d: %v: %w", si, c.id, err, ErrCorruptSegment))
		return zeroSeg(c.kind, c.segRows(si))
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if first, ok := s.cache.Get(key); ok {
		return first
	}
	s.cache.Put(key, seg, seg.bytes)
	return seg
}

// decode reads and decodes one segment blob.
func (s *fileSource) decode(c *fileColumn, si int) (*decodedSeg, error) {
	rows := c.segRows(si)
	loc := c.segs[si]
	raw, err := s.br.slice(loc.Off, loc.Len)
	if err != nil {
		return nil, err
	}
	if s.verify {
		if got := crc32.Checksum(raw, castagnoli); got != loc.CRC {
			return nil, fmt.Errorf("blob (%d,%d) CRC mismatch (%08x != %08x)", loc.Off, loc.Len, got, loc.CRC)
		}
	}
	bm := (rows + 7) / 8
	if len(raw) < bm {
		return nil, fmt.Errorf("blob shorter than its null bitmap")
	}
	seg := &decodedSeg{nulls: make([]bool, rows)}
	for i := 0; i < rows; i++ {
		seg.nulls[i] = raw[i>>3]&(1<<(i&7)) != 0
	}
	seg.bytes = int64(rows)
	payload := raw[bm:]
	if loc.Enc != encRaw {
		payload, err = expandWords(loc.Enc, payload, rows)
		if err != nil {
			return nil, err
		}
	}
	word := func(i int) uint64 {
		return binary.LittleEndian.Uint64(payload[i*8:])
	}
	switch c.kind {
	case KindFloat:
		if len(payload) != rows*8 {
			return nil, fmt.Errorf("float payload is %d bytes, want %d", len(payload), rows*8)
		}
		seg.floats = make([]float64, rows)
		for i := range seg.floats {
			seg.floats[i] = math.Float64frombits(word(i))
		}
		seg.bytes += int64(rows * 8)
	case KindInt:
		if len(payload) != rows*8 {
			return nil, fmt.Errorf("int payload is %d bytes, want %d", len(payload), rows*8)
		}
		seg.ints = make([]int64, rows)
		for i := range seg.ints {
			seg.ints[i] = int64(word(i))
		}
		seg.bytes += int64(rows * 8)
	case KindTime:
		if len(payload) != rows*8 {
			return nil, fmt.Errorf("time payload is %d bytes, want %d", len(payload), rows*8)
		}
		seg.times = make([]time.Time, rows)
		for i := range seg.times {
			if !seg.nulls[i] {
				seg.times[i] = time.Unix(0, int64(word(i))).UTC()
			}
		}
		seg.bytes += int64(rows * 24)
	case KindBool:
		if len(payload) != rows {
			return nil, fmt.Errorf("bool payload is %d bytes, want %d", len(payload), rows)
		}
		seg.bools = make([]bool, rows)
		for i := range seg.bools {
			seg.bools[i] = payload[i] != 0
		}
		seg.bytes += int64(rows)
	default: // string kinds
		offBytes := (rows + 1) * 4
		if len(payload) < offBytes {
			return nil, fmt.Errorf("string payload is %d bytes, want at least %d", len(payload), offBytes)
		}
		data := payload[offBytes:]
		seg.strs = make([]string, rows)
		prev := binary.LittleEndian.Uint32(payload)
		if prev != 0 {
			return nil, fmt.Errorf("string offsets do not start at 0")
		}
		for i := 0; i < rows; i++ {
			next := binary.LittleEndian.Uint32(payload[(i+1)*4:])
			if next < prev || int64(next) > int64(len(data)) {
				return nil, fmt.Errorf("string offsets corrupt at row %d", i)
			}
			seg.strs[i] = string(data[prev:next])
			seg.bytes += int64(next - prev)
			prev = next
		}
		seg.bytes += int64(rows * 16)
	}
	return seg, nil
}

// zeroSeg is the all-null, all-zero segment served in place of one
// that failed to decode — structurally valid for every accessor, with
// the sticky corruption error guaranteeing it is never believed.
func zeroSeg(kind Kind, rows int) *decodedSeg {
	seg := &decodedSeg{nulls: make([]bool, rows)}
	switch kind {
	case KindFloat:
		seg.floats = make([]float64, rows)
	case KindInt:
		seg.ints = make([]int64, rows)
	case KindTime:
		seg.times = make([]time.Time, rows)
	case KindBool:
		seg.bools = make([]bool, rows)
	default:
		seg.strs = make([]string, rows)
	}
	return seg
}

// segStat is one segment's parsed footer statistics.
type segStat struct {
	min, max float64
	nulls    int
	ok       bool
}

// fileColumn is a read-only column served from a segment catalog file.
type fileColumn struct {
	src      *fileSource
	id       int
	kind     Kind
	rows     int
	segs     []segBlob
	sstats   []segStat // per-segment stats (nil before format v3)
	min, max float64
	stats    bool
}

func (c *fileColumn) readOnlyColumn() {}

// validate checks the column's blob geometry against the file size, so
// serving never reads out of bounds.
func (c *fileColumn) validate(table, field string, fileSize int64) error {
	wantSegs := (c.rows + SegmentSize - 1) / SegmentSize
	if len(c.segs) != wantSegs {
		return fmt.Errorf("dataset: table %q field %q: %d segments for %d rows, want %d: %w",
			table, field, len(c.segs), c.rows, wantSegs, ErrCorruptSegment)
	}
	for si, loc := range c.segs {
		rows := c.segRows(si)
		minLen := int64((rows+7)/8) + payloadSize(c.kind, rows)
		if loc.Enc != encRaw {
			// Compressed payloads exist only for the word kinds, and a
			// varint per word is at least one byte.
			wordKind := c.kind == KindFloat || c.kind == KindInt || c.kind == KindTime
			if loc.Enc < encRaw || loc.Enc > encXor || !wordKind {
				return fmt.Errorf("dataset: table %q field %q segment %d: invalid encoding %d: %w",
					table, field, si, loc.Enc, ErrCorruptSegment)
			}
			minLen = int64((rows+7)/8 + rows)
		}
		if loc.Off < int64(len(segMagic)) || loc.Len < minLen || loc.Off+loc.Len > fileSize {
			return fmt.Errorf("dataset: table %q field %q segment %d: blob (%d,%d) out of bounds: %w",
				table, field, si, loc.Off, loc.Len, ErrCorruptSegment)
		}
	}
	return nil
}

// payloadSize is the minimum payload size of a kind (exact for
// fixed-width kinds, the offset table alone for strings).
func payloadSize(k Kind, rows int) int64 {
	switch k {
	case KindFloat, KindInt, KindTime:
		return int64(rows * 8)
	case KindBool:
		return int64(rows)
	default:
		return int64((rows + 1) * 4)
	}
}

// segRows returns the row count of segment si.
func (c *fileColumn) segRows(si int) int {
	if si < len(c.segs)-1 {
		return SegmentSize
	}
	r := c.rows - si*SegmentSize
	return r
}

// Kind implements Column.
func (c *fileColumn) Kind() Kind { return c.kind }

// Len implements Column.
func (c *fileColumn) Len() int { return c.rows }

// Append implements Column; file-backed columns are immutable.
func (c *fileColumn) Append(Value) error {
	return fmt.Errorf("dataset: file-backed column is read-only")
}

// IsNull implements Column.
func (c *fileColumn) IsNull(i int) bool {
	return c.src.segment(c, i>>segShift).nulls[i&segMask]
}

// Value implements Column.
func (c *fileColumn) Value(i int) Value {
	seg := c.src.segment(c, i>>segShift)
	off := i & segMask
	if seg.nulls[off] {
		return Null(c.kind)
	}
	switch c.kind {
	case KindFloat:
		return Float(seg.floats[off])
	case KindInt:
		return Int(seg.ints[off])
	case KindTime:
		return Time(seg.times[off])
	case KindBool:
		return Bool(seg.bools[off])
	default:
		return Value{Kind: c.kind, S: seg.strs[off]}
	}
}

// MinMax implements MinMaxer from the footer stats.
func (c *fileColumn) MinMax() (min, max float64, ok bool) {
	return c.min, c.max, c.stats
}

// SegmentStats implements SegmentStatser from the footer's per-segment
// stats (format v3); earlier formats answer ok == false for every
// segment.
func (c *fileColumn) SegmentStats(si int) (min, max float64, nulls int, ok bool) {
	if si < 0 || si >= len(c.sstats) {
		return 0, 0, 0, false
	}
	st := c.sstats[si]
	return st.min, st.max, st.nulls, st.ok
}

// ReadFloats implements FloatReader. Each covered segment decodes (or
// comes from the cache) once; the coercions match Value.AsFloat bit
// for bit, which is what makes file-backed replay identical to
// in-memory.
func (c *fileColumn) ReadFloats(dst []float64, from int) {
	readSegmented(dst, from, func(dst []float64, si, lo, hi int) {
		seg := c.src.segment(c, si)
		switch c.kind {
		case KindFloat:
			copy(dst, seg.floats[lo:hi])
		case KindInt:
			for i := lo; i < hi; i++ {
				if seg.nulls[i] {
					dst[i-lo] = math.NaN()
				} else {
					dst[i-lo] = float64(seg.ints[i])
				}
			}
		case KindTime:
			for i := lo; i < hi; i++ {
				if seg.nulls[i] {
					dst[i-lo] = math.NaN()
				} else {
					dst[i-lo] = float64(seg.times[i].Unix())
				}
			}
		case KindBool:
			for i := lo; i < hi; i++ {
				switch {
				case seg.nulls[i]:
					dst[i-lo] = math.NaN()
				case seg.bools[i]:
					dst[i-lo] = 1
				default:
					dst[i-lo] = 0
				}
			}
		default:
			for i := lo; i < hi; i++ {
				dst[i-lo] = math.NaN()
			}
		}
	})
}

// CacheStats reports the decoded-segment cache occupancy of a
// file-backed catalog (zeros for in-memory catalogs) — the observable
// that lets tests pin "resident memory stays bounded".
func (c *Catalog) CacheStats() (segments int, bytes int64) {
	for _, name := range c.TableNames() {
		t := c.tables[name]
		for _, col := range t.cols {
			if fc, ok := col.(*fileColumn); ok {
				fc.src.mu.Lock()
				segments, bytes = fc.src.cache.Len(), fc.src.cache.Bytes()
				fc.src.mu.Unlock()
				return segments, bytes
			}
		}
	}
	return 0, 0
}
