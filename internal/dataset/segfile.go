package dataset

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
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
// the writer streams segments with O(segment) memory and never seeks:
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
// decode of such segments entirely (see SegmentStatser).
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
// nanoseconds and decode in UTC (instants outside the int64-nanosecond
// range, roughly years 1678–2262, do not round-trip; original zone
// offsets are normalized away), and Append on a file-backed table is
// rejected — the format is immutable once written.

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
// for the skip proof of SegmentStatser; absent stats (string columns,
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

// SegmentWriter streams a catalog into the on-disk segment format with
// O(segment) memory: rows buffer per table until a full segment
// accumulates, then its column blobs flush to the file.
type SegmentWriter struct {
	f      *os.File // a temporary file beside path until Close renames it
	path   string
	w      *bufio.Writer
	off    int64
	hash   hash.Hash64
	footer segFooter
	open   []*TableWriter
	names  map[string]bool
	closed bool
}

// CreateSegmentCatalog returns a writer of a segment catalog at path.
// The writer fills a temporary file in path's directory and Close
// renames it over path, so a catalog already open at path keeps reading
// the file it opened; on any error the temporary file is removed and
// path is left as it was.
func CreateSegmentCatalog(path string) (*SegmentWriter, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, err
	}
	w := &SegmentWriter{
		f:     f,
		path:  path,
		w:     bufio.NewWriterSize(f, 1<<16),
		hash:  fnv.New64a(),
		names: make(map[string]bool),
	}
	// CreateTemp's 0600 would hide the catalog from a daemon running as
	// another user; os.Create's files were world-readable.
	if err := f.Chmod(0o644); err != nil {
		w.abort()
		return nil, err
	}
	if _, err := w.w.WriteString(segMagic); err != nil {
		w.abort()
		return nil, err
	}
	w.off = int64(len(segMagic))
	return w, nil
}

// abort closes and removes the temporary file, leaving path as it was.
func (w *SegmentWriter) abort() {
	w.closed = true
	w.f.Close()
	os.Remove(w.f.Name())
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

// Close flushes every table's partial segment, writes the footer,
// closes the file and renames it to the writer's path.
func (w *SegmentWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.finish()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(w.f.Name(), w.path)
	}
	if err != nil {
		os.Remove(w.f.Name())
	}
	return err
}

// finish writes what Close adds to the blobs: every table's partial
// segment, the footer and the tail.
func (w *SegmentWriter) finish() error {
	for _, tw := range w.open {
		if err := tw.flush(); err != nil {
			return err
		}
		tw.finishStats()
		w.footer.Tables = append(w.footer.Tables, tw.meta)
	}
	w.footer.Epoch = w.hash.Sum64()
	ft, err := json.Marshal(w.footer)
	if err != nil {
		return err
	}
	if _, err := w.w.Write(ft); err != nil {
		return err
	}
	tail := make([]byte, segTailLen)
	binary.LittleEndian.PutUint32(tail[:4], crc32.Checksum(ft, castagnoli))
	binary.LittleEndian.PutUint64(tail[4:12], uint64(len(ft)))
	copy(tail[12:], segEndMagic)
	if _, err := w.w.Write(tail); err != nil {
		return err
	}
	return w.w.Flush()
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
		loc, err := tw.w.writeBlob(encodeSegmentRaw(c, rows))
		if err != nil {
			return err
		}
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
// path and returns the epoch stamped into its footer.
func WriteCatalogFile(path string, cat *Catalog) (uint64, error) {
	w, err := CreateSegmentCatalog(path)
	if err != nil {
		return 0, err
	}
	if err := w.writeCatalog(cat); err != nil {
		w.abort()
		return 0, err
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	return w.footer.Epoch, nil
}

// writeCatalog appends every table and connection of cat.
func (w *SegmentWriter) writeCatalog(cat *Catalog) error {
	for _, name := range cat.TableNames() {
		t, err := cat.Table(name)
		if err != nil {
			return err
		}
		tw, err := w.AddTable(name, t.Schema())
		if err != nil {
			return err
		}
		for r := 0; r < t.NumRows(); r++ {
			if err := tw.AppendRow(t.Row(r)...); err != nil {
				return err
			}
		}
	}
	for _, name := range cat.ConnectionNames() {
		conn, err := cat.Connection(name)
		if err != nil {
			return err
		}
		if err := w.AddConnection(conn); err != nil {
			return err
		}
	}
	return nil
}

// encodeSegmentRaw serializes the first (only) buffered segment of an
// in-memory column as a blob.
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

// OpenCatalogFile opens a segment catalog written by SegmentWriter.
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
	src := &fileSource{r: r, cache: lru.New[segKey, *decodedSeg](0, budget)}
	cat := NewCatalog()
	cat.epoch = ft.Epoch
	cat.closer = f.Close
	cat.corrupt = src.corruptErr
	colID := 0
	for _, tm := range ft.Tables {
		schema := make(Schema, len(tm.Fields))
		cols := make([]Column, len(tm.Fields))
		for i, fm := range tm.Fields {
			schema[i] = Field{Name: fm.Name, Kind: Kind(fm.Kind), Categories: fm.Categories}
			fc, err := newFileColumn(src, colID, tm.Rows, fm, fi.Size())
			if err != nil {
				return nil, fmt.Errorf("table %q field %q: %w", tm.Name, fm.Name, err)
			}
			colID++
			cols[i] = fc
		}
		// The writer validates each schema and table name as it takes
		// it, and WriteCatalogFile's connections come from a catalog
		// that checked them, so a footer failing these checks was not
		// written by it.
		if err := schema.Validate(); err != nil {
			return nil, fmt.Errorf("table %q: %v: %w", tm.Name, err, ErrCorruptSegment)
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
// file (or OpenOptions.WrapReaderAt's wrapper of it) and the
// decoded-segment cache, bounded by OpenOptions.CacheBytes (the store
// keeps its most recent segment whatever the budget, so a 1-byte cache
// still serves reads). Concurrent sessions share it; the mutex guards
// only the cache bookkeeping — decoding happens outside it (a rare race
// decodes a segment twice, which is benign).
type fileSource struct {
	r     io.ReaderAt
	mu    sync.Mutex
	cache *lru.Cache[segKey, *decodedSeg]
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

// decode reads, verifies and decodes one segment blob. validate has
// checked the blob's bounds and, for the fixed-width kinds, its exact
// length at open.
func (s *fileSource) decode(c *fileColumn, si int) (*decodedSeg, error) {
	rows := c.segRows(si)
	loc := c.segs[si]
	buf := blobBufs.Get().(*[]byte)
	defer blobBufs.Put(buf)
	if int64(cap(*buf)) < loc.Len {
		*buf = make([]byte, loc.Len)
	}
	raw := (*buf)[:loc.Len]
	if _, err := s.r.ReadAt(raw, loc.Off); err != nil {
		return nil, err
	}
	if got := crc32.Checksum(raw, castagnoli); got != loc.CRC {
		return nil, fmt.Errorf("blob (%d,%d) CRC mismatch (%08x != %08x)", loc.Off, loc.Len, got, loc.CRC)
	}
	bm := (rows + 7) / 8
	seg := &decodedSeg{nulls: make([]bool, rows)}
	for i := 0; i < rows; i++ {
		seg.nulls[i] = raw[i>>3]&(1<<(i&7)) != 0
	}
	seg.bytes = int64(rows)
	payload := raw[bm:]
	word := func(i int) uint64 {
		return binary.LittleEndian.Uint64(payload[i*8:])
	}
	switch c.kind {
	case KindFloat:
		seg.floats = make([]float64, rows)
		for i := range seg.floats {
			seg.floats[i] = math.Float64frombits(word(i))
		}
		seg.bytes += int64(rows * 8)
	case KindInt:
		seg.ints = make([]int64, rows)
		for i := range seg.ints {
			seg.ints[i] = int64(word(i))
		}
		seg.bytes += int64(rows * 8)
	case KindTime:
		seg.times = make([]time.Time, rows)
		for i := range seg.times {
			if !seg.nulls[i] {
				seg.times[i] = time.Unix(0, int64(word(i))).UTC()
			}
		}
		seg.bytes += int64(rows * 24)
	case KindBool:
		seg.bools = make([]bool, rows)
		for i := range seg.bools {
			seg.bools[i] = payload[i] != 0
		}
		seg.bytes += int64(rows)
	default: // string kinds
		offBytes := (rows + 1) * 4
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
	sstats   []segStat // per-segment stats (nil when no segment has any)
	min, max float64
	stats    bool
}

func (c *fileColumn) readOnlyColumn() {}

// newFileColumn builds column id of a table of rows rows from its footer
// entry fm, checked against a file of fileSize bytes.
func newFileColumn(src *fileSource, id, rows int, fm segField, fileSize int64) (*fileColumn, error) {
	c := &fileColumn{src: src, id: id, kind: Kind(fm.Kind), rows: rows, segs: fm.Segs}
	// A stats string that does not parse back means the footer
	// disagrees with its writer: surface the typed corruption error
	// instead of silently dropping the stats (which would silently
	// disable every pruning path on this column).
	if fm.Min != "" || fm.Max != "" {
		min, err1 := strconv.ParseFloat(fm.Min, 64)
		max, err2 := strconv.ParseFloat(fm.Max, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("corrupt column stats (%q, %q): %w", fm.Min, fm.Max, ErrCorruptSegment)
		}
		c.min, c.max, c.stats = min, max, true
	}
	for si, loc := range fm.Segs {
		if loc.Min == "" && loc.Max == "" {
			continue
		}
		min, err1 := strconv.ParseFloat(loc.Min, 64)
		max, err2 := strconv.ParseFloat(loc.Max, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("segment %d: corrupt segment stats (%q, %q): %w", si, loc.Min, loc.Max, ErrCorruptSegment)
		}
		if c.sstats == nil {
			c.sstats = make([]segStat, len(fm.Segs))
		}
		c.sstats[si] = segStat{min: min, max: max, nulls: loc.Nulls, ok: true}
	}
	if err := c.validate(fileSize); err != nil {
		return nil, err
	}
	return c, nil
}

// validate checks the column's blob geometry against the file size, so
// serving never reads out of bounds and a fixed-width blob of the wrong
// length fails the open instead of a read mid-serve. A compressed blob
// is refused.
func (c *fileColumn) validate(fileSize int64) error {
	wantSegs := (c.rows + SegmentSize - 1) / SegmentSize
	if c.rows < 0 || len(c.segs) != wantSegs {
		return fmt.Errorf("%d segments for %d rows, want %d: %w", len(c.segs), c.rows, wantSegs, ErrCorruptSegment)
	}
	for si, loc := range c.segs {
		if loc.Enc != 0 {
			return fmt.Errorf("segment %d: VSEGCAT3 with compressed payloads (enc %d): %w", si, loc.Enc, errLayout)
		}
		rows := c.segRows(si)
		payload, exact := payloadSize(c.kind, rows)
		want := int64((rows+7)/8) + payload
		if loc.Off < int64(len(segMagic)) || loc.Len < want || exact && loc.Len != want || loc.Len > fileSize-loc.Off {
			return fmt.Errorf("segment %d: blob (%d,%d) out of bounds or of the wrong length: %w",
				si, loc.Off, loc.Len, ErrCorruptSegment)
		}
	}
	return nil
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
// stats.
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
