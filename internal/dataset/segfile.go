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
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/lru"
)

// This file implements the on-disk segment catalog format: one layout,
// one writer, one reader. The layout is write-once, footer-based, so
// the writer writes each column's segments one after another and never
// seeks:
//
//	"VSEGCAT3"                              8-byte head magic
//	blob ...                                segment blobs, any order
//	footer                                  JSON (segFooter)
//	footer CRC32C                           uint32 LE
//	footer length                           uint64 LE
//	"VSEGEND3"                              8-byte end magic
//
// Integrity is end to end: every blob's CRC32C rides in its footer
// entry and is verified on every read, and the footer itself is covered
// by the CRC in the tail — flipping any single byte of a file surfaces
// as a typed ErrCorruptSegment error, either at open (magic/tail/footer
// damage) or on the first read that touches the damaged blob. Every
// numeric column's blob entry carries the segment's min/max (hex
// floats) and its count of rows without a usable numeric value (SQL
// nulls plus NaN floats — exactly the rows whose Value.AsFloat yields no
// finite ordering key).
//
// The reader reads what the writer writes and nothing else. The layouts
// of earlier writers — "VSEGCAT1", "VSEGCAT2", and "VSEGCAT3" files
// whose blobs are compressed (a footer entry with enc != 0) — are
// refused at open with an error that names the layout and does not wrap
// ErrCorruptSegment: nothing in such a file is damaged, and visdbgen
// -format seg rewrites it.
//
// The per-segment stats carry a soundness contract: min/max bound
// every usable value of the segment and nulls counts every unusable
// row, so a reader may prove "every row of this segment lies inside
// [lo, hi]" — and therefore has range distance exactly 0 — without
// decoding the blob. The cold scan path of internal/core skips the
// decode of such segments entirely (see Column.SegmentStats).
//
// A blob holds one column segment (SegmentSize rows, the final segment
// of a table possibly fewer): a null bitmap of ceil(rows/8) bytes
// (bit set = null) followed by the kind's payload — float64 bits,
// int64, or unix nanoseconds as 8-byte little-endian words; bools as
// one byte each; string kinds as
// (rows+1) uint32 cumulative offsets followed by the concatenated
// bytes. The footer maps every table, field and segment to its blob
// (offset, length) and carries the per-field min/max stats and the
// catalog epoch (FNV-1a over all blob bytes), so
// opening a catalog reads the footer and nothing else.
//
// Two format consequences are deliberate: times are stored as unix
// nanoseconds and decode in UTC (original zone offsets are normalized
// away, and the writer refuses an instant outside the int64-nanosecond
// range, roughly years 1678–2262, which would read back as another),
// and AppendRow on a file-backed table is rejected — the format is
// immutable once written.

const (
	segMagic    = "VSEGCAT3"
	segEndMagic = "VSEGEND3"
	segTailLen  = 20 // footer CRC32C, footer length, end magic
)

// ErrCorruptSegment is wrapped by every error that means a segment
// catalog file's bytes do not match what its writer produced — bad
// magics, a footer that fails its CRC or does not parse, blob geometry
// out of bounds, or a blob whose CRC32C does not match when it is read.
// Callers distinguish it from I/O and usage errors with errors.Is and
// quarantine the catalog instead of trusting its data.
var ErrCorruptSegment = errors.New("corrupt segment catalog")

// errLayout is wrapped by the refusal of a file in a layout the reader
// does not read (see the format comment above). It is not corruption,
// so a daemon fails its startup on such a path as on a wrong one
// instead of quarantining it.
var errLayout = errors.New("a segment catalog layout this reader does not read; rewrite the file with visdbgen -format seg")

// castagnoli is the CRC32C polynomial table shared by the writer and
// the verifying reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// segBlob locates one segment blob in the file. CRC is the CRC32C of
// the blob's bytes; the writer always sets it and the reader verifies
// it on every read. Enc is 0 in every file the writer produces: a
// non-zero Enc marks a compressed blob of an earlier writer and is
// refused at open.
//
// Min/Max/Nulls are the segment's statistics — extremes over the usable
// values as hex float strings (exact bits, infinities survive JSON)
// plus the count of rows with no usable numeric value (null, or NaN for
// float columns). Min/Max present with Nulls == 0 is the precondition
// for the skip proof of Column.SegmentStats; absent stats (string columns,
// all-null segments) disable skipping, never correctness.
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

// minNano and maxNano bound the instants a blob stores: UnixNano is an
// int64.
var (
	minNano = time.Unix(0, math.MinInt64)
	maxNano = time.Unix(0, math.MaxInt64)
)

// WriteCatalogFile writes cat as a segment file at path and returns the
// epoch stamped into its footer. It writes every column's segments as
// they are — resident, or read from the file an opened catalog serves —
// with the stats the column keeps. The bytes go to a temporary file in
// path's directory that is renamed over path at the end, so a catalog
// already open at path keeps reading the file it opened; on any error —
// among them a time outside the years 1678–2262 the format stores, named
// by table, column and row — the temporary file is removed and path is
// left as it was.
func WriteCatalogFile(path string, cat *Catalog) (uint64, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	// CreateTemp's 0600 would hide the catalog from a daemon running as
	// another user; os.Create's files were world-readable.
	err = f.Chmod(0o644)
	var epoch uint64
	if err == nil {
		epoch, err = writeCatalog(f, cat)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return 0, err
	}
	return epoch, nil
}

// writeCatalog writes cat to f in the layout above and returns its
// epoch. The blob order is the one the format's first, row-streaming
// writer produced — every table's full segments in table order, then
// every table's last, partial segment in table order — so a catalog
// writes the same bytes and epoch it always did.
func writeCatalog(f io.Writer, cat *Catalog) (uint64, error) {
	w := bufio.NewWriterSize(f, 1<<16)
	if _, err := w.WriteString(segMagic); err != nil {
		return 0, err
	}
	off := int64(len(segMagic))
	epoch := fnv.New64a()
	var ft segFooter
	names := cat.TableNames()
	for _, name := range names {
		t := cat.tables[name]
		meta := segTable{Name: name, Rows: t.NumRows()}
		for i, fd := range t.schema {
			fm := segField{Name: fd.Name, Kind: int(fd.Kind), Categories: fd.Categories}
			if all := t.cols[i].all; all.ok {
				fm.Min, fm.Max = hexFloat(all.min), hexFloat(all.max)
			}
			meta.Fields = append(meta.Fields, fm)
		}
		ft.Tables = append(ft.Tables, meta)
	}
	var blob []byte
	for _, partial := range []bool{false, true} {
		for ti, name := range names {
			t := cat.tables[name]
			for si := range (t.NumRows() + segMask) / SegmentSize {
				if t.cols[0].segRows(si) < SegmentSize != partial {
					continue
				}
				for fi, c := range t.cols {
					var err error
					blob, err = c.segment(si).encode(blob[:0], c.kind, si*SegmentSize)
					if err != nil {
						return 0, fmt.Errorf("dataset: table %q column %q %w", name, t.schema[fi].Name, err)
					}
					if _, err := w.Write(blob); err != nil {
						return 0, err
					}
					epoch.Write(blob)
					loc := segBlob{Off: off, Len: int64(len(blob)), CRC: crc32.Checksum(blob, castagnoli)}
					off += loc.Len
					if st := c.stats[si]; st.ok {
						loc.Min, loc.Max, loc.Nulls = hexFloat(st.min), hexFloat(st.max), st.nulls
					}
					segs := &ft.Tables[ti].Fields[fi].Segs
					*segs = append(*segs, loc)
				}
			}
		}
	}
	// A segment that failed to read served zeroes; writing them would
	// pass the damage off as data.
	if err := cat.Corrupt(); err != nil {
		return 0, err
	}
	for _, name := range cat.ConnectionNames() {
		ft.Connections = append(ft.Connections, cat.connections[name])
	}
	ft.Epoch = epoch.Sum64()
	js, err := json.Marshal(ft)
	if err != nil {
		return 0, err
	}
	tail := make([]byte, segTailLen)
	binary.LittleEndian.PutUint32(tail[:4], crc32.Checksum(js, castagnoli))
	binary.LittleEndian.PutUint64(tail[4:12], uint64(len(js)))
	copy(tail[12:], segEndMagic)
	if _, err := w.Write(append(js, tail...)); err != nil {
		return 0, err
	}
	return ft.Epoch, w.Flush()
}

// hexFloat is a footer stat: the exact bits, infinities included.
func hexFloat(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }

// encode appends the segment, of kind k, to out as a blob: the null
// bitmap, then the kind's payload. first is the segment's first row, for
// the error that names a time the format cannot store.
func (s *segment) encode(out []byte, k Kind, first int) ([]byte, error) {
	for i := 0; i < len(s.nulls); i += 8 {
		var b byte
		for j, null := range s.nulls[i:min(i+8, len(s.nulls))] {
			if null {
				b |= 1 << j
			}
		}
		out = append(out, b)
	}
	le := binary.LittleEndian
	switch k {
	case KindFloat:
		for _, f := range s.floats {
			out = le.AppendUint64(out, math.Float64bits(f))
		}
	case KindInt:
		for _, v := range s.ints {
			out = le.AppendUint64(out, uint64(v))
		}
	case KindTime:
		for i, t := range s.times {
			var ns int64
			if !s.nulls[i] {
				if t.Before(minNano) || t.After(maxNano) {
					return nil, fmt.Errorf("row %d: time %s is outside the years 1678–2262 a segment file stores", first+i, t.Format(time.RFC3339))
				}
				ns = t.UnixNano()
			}
			out = le.AppendUint64(out, uint64(ns))
		}
	case KindBool:
		for _, b := range s.bools {
			var x byte
			if b {
				x = 1
			}
			out = append(out, x)
		}
	default:
		total := uint32(0)
		out = le.AppendUint32(out, total)
		for _, v := range s.strs {
			total += uint32(len(v))
			out = le.AppendUint32(out, total)
		}
		for _, v := range s.strs {
			out = append(out, v...)
		}
	}
	return out, nil
}

// --- Reader -----------------------------------------------------------

// OpenOptions configures OpenCatalogFile.
type OpenOptions struct {
	// CacheBytes bounds the decoded-segment cache shared by all
	// columns of the catalog; 0 selects the 64 MiB default. The cache
	// always retains at least one segment, so arbitrarily small
	// budgets degrade to re-decoding, never to failure.
	CacheBytes int64
	// WrapReaderAt, when non-nil, wraps the file before segment blob
	// reads — the fault-injection seam (internal/faultinject's
	// corrupting/truncating/slow ReaderAt wrappers plug in here). The
	// footer is read directly from the file at open, before wrapping.
	WrapReaderAt func(io.ReaderAt) io.ReaderAt
}

// OpenCatalogFile opens a segment catalog written by WriteCatalogFile.
// The returned catalog serves reads directly from the file through a
// bounded decoded-segment cache — resident memory is O(cache budget),
// not O(catalog). Close the catalog to release the backing file.
//
// A file whose footer disagrees with what the writer writes is an
// error wrapping ErrCorruptSegment; a file in an earlier writer's
// layout is refused with an error that names the layout and does not.
func OpenCatalogFile(path string, opts OpenOptions) (*Catalog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	cat, err := openCatalog(f, opts)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("dataset: %s: %w", path, err)
	}
	return cat, nil
}

// openCatalog builds the catalog f's footer describes, served from f.
func openCatalog(f *os.File, opts OpenOptions) (*Catalog, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	ft, err := readFooter(f, fi.Size())
	if err != nil {
		return nil, err
	}
	var r io.ReaderAt = f
	if opts.WrapReaderAt != nil {
		r = opts.WrapReaderAt(f)
	}
	budget := opts.CacheBytes
	if budget <= 0 {
		budget = 64 << 20
	}
	src := &fileSource{r: r, cache: lru.New[segKey, *segment](0, budget)}
	cat := NewCatalog()
	cat.epoch = ft.Epoch
	cat.closer = f.Close
	cat.src = src
	colID := 0
	for _, tm := range ft.Tables {
		schema := make(Schema, len(tm.Fields))
		for i, fm := range tm.Fields {
			schema[i] = Field{Name: fm.Name, Kind: Kind(fm.Kind), Categories: fm.Categories}
		}
		// The writer writes the tables, schemas and connections of a
		// catalog that checked them, so a footer failing these checks was
		// not written by it.
		if err := schema.Validate(); err != nil {
			return nil, fmt.Errorf("table %q: %v: %w", tm.Name, err, ErrCorruptSegment)
		}
		cols := make([]*Column, len(tm.Fields))
		for i, fm := range tm.Fields {
			c, err := newFileColumn(src, colID, tm.Rows, fm, fi.Size())
			if err != nil {
				return nil, fmt.Errorf("table %q field %q: %w", tm.Name, fm.Name, err)
			}
			colID++
			cols[i] = c
		}
		if err := cat.AddTable(&Table{name: tm.Name, schema: schema, cols: cols}); err != nil {
			return nil, fmt.Errorf("%v: %w", err, ErrCorruptSegment)
		}
	}
	for _, conn := range ft.Connections {
		if err := cat.AddConnection(conn); err != nil {
			return nil, fmt.Errorf("%v: %w", err, ErrCorruptSegment)
		}
	}
	return cat, nil
}

// readFooter locates and parses the footer of a segment file of size
// bytes. Every way the file can disagree with the writer's layout — bad
// magics, a tail that does not frame a footer, a footer failing its CRC
// — wraps ErrCorruptSegment; an earlier writer's head is refused.
func readFooter(f *os.File, size int64) (*segFooter, error) {
	if size < int64(len(segMagic))+segTailLen {
		return nil, fmt.Errorf("too short for a segment catalog: %w", ErrCorruptSegment)
	}
	head := make([]byte, len(segMagic))
	if _, err := f.ReadAt(head, 0); err != nil {
		return nil, err
	}
	switch string(head) {
	case segMagic:
	case "VSEGCAT1", "VSEGCAT2":
		return nil, fmt.Errorf("%s: %w", head, errLayout)
	default:
		return nil, fmt.Errorf("not a segment catalog (bad magic): %w", ErrCorruptSegment)
	}
	tail := make([]byte, segTailLen)
	if _, err := f.ReadAt(tail, size-segTailLen); err != nil {
		return nil, err
	}
	if string(tail[12:]) != segEndMagic {
		return nil, fmt.Errorf("truncated segment catalog (bad end magic): %w", ErrCorruptSegment)
	}
	ftCRC := binary.LittleEndian.Uint32(tail[:4])
	ftLen := int64(binary.LittleEndian.Uint64(tail[4:12]))
	if ftLen <= 0 || ftLen > size-segTailLen-int64(len(segMagic)) {
		return nil, fmt.Errorf("corrupt footer length %d: %w", ftLen, ErrCorruptSegment)
	}
	buf := make([]byte, ftLen)
	if _, err := f.ReadAt(buf, size-segTailLen-ftLen); err != nil {
		return nil, err
	}
	if got := crc32.Checksum(buf, castagnoli); got != ftCRC {
		return nil, fmt.Errorf("footer CRC mismatch (%08x != %08x): %w", got, ftCRC, ErrCorruptSegment)
	}
	var ft segFooter
	if err := json.Unmarshal(buf, &ft); err != nil {
		return nil, fmt.Errorf("corrupt footer (%v): %w", err, ErrCorruptSegment)
	}
	return &ft, nil
}

// segKey identifies one decoded segment in the cache.
type segKey struct {
	col int
	seg int
}

// fileSource is the shared read state of one open catalog file: the
// file (or OpenOptions.WrapReaderAt's wrapper of it) and the
// decoded-segment cache, bounded by OpenOptions.CacheBytes (the store
// keeps its most recent segment whatever the budget, so a 1-byte cache
// still serves reads). Concurrent sessions share it; the mutex guards
// only the cache bookkeeping — decoding happens outside it (a rare race
// decodes a segment twice, which is benign).
type fileSource struct {
	r     io.ReaderAt
	mu    sync.Mutex
	cache *lru.Cache[segKey, *segment]
	// corrupt is the sticky first decode/read failure. Once set, data
	// served from this source is untrustworthy (failed segments read
	// as zeroes) and the owner must quarantine the catalog; it never
	// clears while the file is open.
	corrupt error
}

// blobBufs recycles the buffers blobs are read into: decode copies every
// value out before its buffer goes back.
var blobBufs = sync.Pool{New: func() any { return new([]byte) }}

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

// segment returns segment si of column c, from cache or disk. A decode
// failure (I/O error, CRC mismatch, malformed payload) must not panic —
// reads run on evaluator worker goroutines — and has no error channel
// through the column's readers, so it records the sticky corruption
// error and serves a zeroed segment: callers that check corruptErr (the
// serving layer does after every run) discard the tainted results
// instead of trusting them.
func (s *fileSource) segment(c *Column, si int) *segment {
	key := segKey{c.id, si}
	s.mu.Lock()
	seg, ok := s.cache.Get(key)
	s.mu.Unlock()
	if ok {
		return seg
	}

	seg, charge, err := s.decode(c, si)
	if err != nil {
		s.fail(fmt.Errorf("dataset: segment %d of column %d: %v: %w", si, c.id, err, ErrCorruptSegment))
		zero := newSegment(c.kind, c.segRows(si), c.segRows(si))
		return &zero
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if first, ok := s.cache.Get(key); ok {
		return first
	}
	s.cache.Put(key, seg, charge)
	return seg
}

// decode reads, verifies and decodes one segment blob, and returns the
// bytes the decoded segment holds. newFileColumn has checked the blob's
// bounds and, for the fixed-width kinds, its exact length at open.
func (s *fileSource) decode(c *Column, si int) (*segment, int64, error) {
	rows := c.segRows(si)
	loc := c.blobs[si]
	buf := blobBufs.Get().(*[]byte)
	defer blobBufs.Put(buf)
	if int64(cap(*buf)) < loc.Len {
		*buf = make([]byte, loc.Len)
	}
	raw := (*buf)[:loc.Len]
	if _, err := s.r.ReadAt(raw, loc.Off); err != nil {
		return nil, 0, err
	}
	if got := crc32.Checksum(raw, castagnoli); got != loc.CRC {
		return nil, 0, fmt.Errorf("blob (%d,%d) CRC mismatch (%08x != %08x)", loc.Off, loc.Len, got, loc.CRC)
	}
	seg := newSegment(c.kind, rows, rows)
	for i := range seg.nulls {
		seg.nulls[i] = raw[i>>3]&(1<<(i&7)) != 0
	}
	charge := int64(rows)
	payload := raw[(rows+7)/8:]
	word := func(i int) uint64 {
		return binary.LittleEndian.Uint64(payload[i*8:])
	}
	switch c.kind {
	case KindFloat:
		for i := range seg.floats {
			seg.floats[i] = math.Float64frombits(word(i))
		}
		charge += int64(rows * 8)
	case KindInt:
		for i := range seg.ints {
			seg.ints[i] = int64(word(i))
		}
		charge += int64(rows * 8)
	case KindTime:
		for i := range seg.times {
			if !seg.nulls[i] {
				seg.times[i] = time.Unix(0, int64(word(i))).UTC()
			}
		}
		charge += int64(rows * 24)
	case KindBool:
		for i := range seg.bools {
			seg.bools[i] = payload[i] != 0
		}
		charge += int64(rows)
	default: // string kinds
		data := payload[(rows+1)*4:]
		prev := binary.LittleEndian.Uint32(payload)
		if prev != 0 {
			return nil, 0, fmt.Errorf("string offsets do not start at 0")
		}
		for i := range seg.strs {
			next := binary.LittleEndian.Uint32(payload[(i+1)*4:])
			if next < prev || int64(next) > int64(len(data)) {
				return nil, 0, fmt.Errorf("string offsets corrupt at row %d", i)
			}
			seg.strs[i] = string(data[prev:next])
			charge += int64(next - prev)
			prev = next
		}
		charge += int64(rows * 16)
	}
	return &seg, charge, nil
}

// newFileColumn builds column id of a table of rows rows from its footer
// entry fm, checked against a file of fileSize bytes: its stats must
// parse back, and its blob geometry must fit the file, so serving never
// reads out of bounds and a fixed-width blob of the wrong length fails
// the open instead of a read mid-serve. A compressed blob is refused.
func newFileColumn(src *fileSource, id, rows int, fm segField, fileSize int64) (*Column, error) {
	c := &Column{kind: Kind(fm.Kind), rows: rows, src: src, id: id, blobs: fm.Segs}
	// A stats string that does not parse back means the footer
	// disagrees with its writer: surface the typed corruption error
	// instead of silently dropping the stats (which would silently
	// disable every pruning path on this column).
	var err error
	if c.all, err = parseStat(fm.Min, fm.Max); err != nil {
		return nil, fmt.Errorf("corrupt column stats: %w", err)
	}
	wantSegs := (rows + segMask) / SegmentSize
	if rows < 0 || len(fm.Segs) != wantSegs {
		return nil, fmt.Errorf("%d segments for %d rows, want %d: %w", len(fm.Segs), rows, wantSegs, ErrCorruptSegment)
	}
	c.stats = make([]segStat, wantSegs)
	for si, loc := range fm.Segs {
		if c.stats[si], err = parseStat(loc.Min, loc.Max); err != nil {
			return nil, fmt.Errorf("segment %d: corrupt segment stats: %w", si, err)
		}
		if c.stats[si].ok {
			c.stats[si].nulls = loc.Nulls
		}
		if loc.Enc != 0 {
			return nil, fmt.Errorf("segment %d: VSEGCAT3 with compressed payloads (enc %d): %w", si, loc.Enc, errLayout)
		}
		rows := c.segRows(si)
		payload, exact := payloadSize(c.kind, rows)
		want := int64((rows+7)/8) + payload
		if loc.Off < int64(len(segMagic)) || loc.Len < want || exact && loc.Len != want || loc.Len > fileSize-loc.Off {
			return nil, fmt.Errorf("segment %d: blob (%d,%d) out of bounds or of the wrong length: %w",
				si, loc.Off, loc.Len, ErrCorruptSegment)
		}
	}
	return c, nil
}

// parseStat parses a footer entry's extremes; both absent is no stats.
func parseStat(min, max string) (segStat, error) {
	if min == "" && max == "" {
		return segStat{}, nil
	}
	lo, err1 := strconv.ParseFloat(min, 64)
	hi, err2 := strconv.ParseFloat(max, 64)
	if err1 != nil || err2 != nil {
		return segStat{}, fmt.Errorf("(%q, %q): %w", min, max, ErrCorruptSegment)
	}
	return segStat{min: lo, max: hi, ok: true}, nil
}

// payloadSize is the payload size of a kind's segment of rows: exact
// for the fixed-width kinds, the offset table alone — a minimum — for
// strings.
func payloadSize(k Kind, rows int) (n int64, exact bool) {
	switch k {
	case KindFloat, KindInt, KindTime:
		return int64(rows * 8), true
	case KindBool:
		return int64(rows), true
	default:
		return int64((rows + 1) * 4), false
	}
}

// CacheStats reports the decoded-segment cache occupancy of a
// file-backed catalog (zeros for resident catalogs) — the observable
// that lets tests pin "resident memory stays bounded".
func (c *Catalog) CacheStats() (segments int, bytes int64) {
	if c.src == nil {
		return 0, 0
	}
	c.src.mu.Lock()
	defer c.src.mu.Unlock()
	return c.src.cache.Len(), c.src.cache.Bytes()
}
