package dataset

import (
	"math"
	"time"
)

// SegmentSize is the row count of one column segment — 4096, matching
// the fused evaluator's chunk size so a segment decoded from disk is
// consumed by exactly one evaluator chunk. Every column, resident or
// file-backed, is stored in segments of this size.
const SegmentSize = 1 << segShift

const (
	segShift = 12
	segMask  = SegmentSize - 1
)

// segment is SegmentSize rows of one column (a table's last segment
// possibly fewer): null flags plus the one payload slice of the column's
// kind — floats (NaN at null rows), ints, times, bools, or strs for the
// string kinds; the other payload slices are nil. It is what Append
// fills, what a file blob decodes to, what the writer encodes, and what
// Value, IsNull and ReadFloats read, resident or file-backed alike.
type segment struct {
	nulls  []bool
	floats []float64
	ints   []int64
	times  []time.Time
	bools  []bool
	strs   []string
}

// newSegment returns a segment of kind k holding n zero rows, with room
// for capacity.
func newSegment(k Kind, n, capacity int) segment {
	s := segment{nulls: make([]bool, n, capacity)}
	switch k {
	case KindFloat:
		s.floats = make([]float64, n, capacity)
	case KindInt:
		s.ints = make([]int64, n, capacity)
	case KindTime:
		s.times = make([]time.Time, n, capacity)
	case KindBool:
		s.bools = make([]bool, n, capacity)
	default:
		s.strs = make([]string, n, capacity)
	}
	return s
}

// append adds v, which a column of kind k holds (Kind.holds) or is null.
// A null row stores the kind's zero payload, NaN in a float segment.
func (s *segment) append(k Kind, v Value) {
	s.nulls = append(s.nulls, v.Null)
	if v.Null {
		v = Value{Kind: k, F: math.NaN()}
	}
	switch k {
	case KindFloat:
		if v.Kind == KindInt {
			v.F = float64(v.I)
		}
		s.floats = append(s.floats, v.F)
	case KindInt:
		s.ints = append(s.ints, v.I)
	case KindTime:
		s.times = append(s.times, v.T)
	case KindBool:
		s.bools = append(s.bools, v.B)
	default:
		s.strs = append(s.strs, v.S)
	}
}

// value returns row i as a Value of kind k.
func (s *segment) value(k Kind, i int) Value {
	if s.nulls[i] {
		return Null(k)
	}
	switch k {
	case KindFloat:
		return Float(s.floats[i])
	case KindInt:
		return Int(s.ints[i])
	case KindTime:
		return Time(s.times[i])
	case KindBool:
		return Bool(s.bools[i])
	default:
		return Value{Kind: k, S: s.strs[i]}
	}
}

// readFloats writes rows [lo, hi) into dst under the Value.AsFloat
// coercion: floats as they are (a null row holds NaN already), ints
// exactly, times as Unix seconds, bools as 0/1, and NaN for nulls and
// the string kinds.
func (s *segment) readFloats(k Kind, dst []float64, lo, hi int) {
	switch k {
	case KindFloat:
		copy(dst, s.floats[lo:hi])
	case KindInt:
		for i := lo; i < hi; i++ {
			if s.nulls[i] {
				dst[i-lo] = math.NaN()
			} else {
				dst[i-lo] = float64(s.ints[i])
			}
		}
	case KindTime:
		for i := lo; i < hi; i++ {
			if s.nulls[i] {
				dst[i-lo] = math.NaN()
			} else {
				dst[i-lo] = float64(s.times[i].Unix())
			}
		}
	case KindBool:
		for i := lo; i < hi; i++ {
			switch {
			case s.nulls[i]:
				dst[i-lo] = math.NaN()
			case s.bools[i]:
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
}

// segStat is what a scan of rows in row order under the ReadFloats
// coercion finds: the extremes of the usable values (the first of two
// equal ones, -0 and +0, kept), the count of unusable rows (null, NaN,
// or any row of a string kind), and ok when some row was usable.
type segStat struct {
	min, max float64
	nulls    int
	ok       bool
}

// add folds in one row's coerced value.
func (s *segStat) add(f float64, usable bool) {
	switch {
	case !usable || f != f:
		s.nulls++
	case !s.ok:
		s.min, s.max, s.ok = f, f, true
	case f < s.min:
		s.min = f
	case f > s.max:
		s.max = f
	}
}

// Column is one attribute of a table: a typed, nullable vector of values
// stored column-oriented in segments, so the distance pipeline streams an
// attribute without touching the rest of the row. A resident column holds
// its segments and grows by Table.AppendRow; a file-backed column
// (OpenCatalogFile) reads them through its catalog's decoded-segment
// cache and is immutable. Either way it knows its extremes and its
// per-segment stats without a scan: a resident column folds them on
// append, a file-backed one has them from the footer.
type Column struct {
	kind  Kind
	rows  int
	all   segStat   // the column's extremes
	stats []segStat // per segment
	segs  []segment // resident: the segments

	// File-backed: the catalog's segment source, the column's key in its
	// cache and the blob of every segment.
	src   *fileSource
	id    int
	blobs []segBlob
}

// Len returns the number of entries.
func (c *Column) Len() int { return c.rows }

// Value returns entry i as a Value.
func (c *Column) Value(i int) Value { return c.segment(i>>segShift).value(c.kind, i&segMask) }

// IsNull reports whether entry i is null.
func (c *Column) IsNull(i int) bool { return c.segment(i >> segShift).nulls[i&segMask] }

// append adds v, which the column holds (Kind.holds) or is null, to a
// resident column, folding it into the column's stats.
func (c *Column) append(v Value) {
	if c.rows&segMask == 0 {
		c.segs = append(c.segs, newSegment(c.kind, 0, SegmentSize))
		c.stats = append(c.stats, segStat{})
	}
	last := len(c.segs) - 1
	c.segs[last].append(c.kind, v)
	f, ok := v.AsFloat()
	c.stats[last].add(f, ok)
	c.all.add(f, ok)
	c.rows++
}

// MinMax returns the column's extremes under the ReadFloats coercion,
// NaN and nulls skipped; ok is false when it has no usable value (a
// string column never has one). The query-modification sliders display
// these bounds "to give the user a feeling for useful query values"
// (section 4.3).
func (c *Column) MinMax() (min, max float64, ok bool) { return c.all.min, c.all.max, c.all.ok }

// SegmentStats returns segment si's stats (rows [si*SegmentSize,
// min((si+1)*SegmentSize, Len()))): min and max bound every usable value
// the segment reads as under ReadFloats, and nulls counts the rows with
// no usable value (nulls, plus NaN entries of float columns). ok is false
// when the segment has no usable value (all-null segments, string
// columns) or does not exist — a caller may then read, never assume.
//
// The contract is what makes predicate pushdown sound: ok with
// nulls == 0 and [min, max] strictly inside a query range proves every
// row of the segment scores range distance exactly 0, so the scan may
// skip the read and leave a zero-filled distance range in place.
func (c *Column) SegmentStats(si int) (min, max float64, nulls int, ok bool) {
	if si < 0 || si >= len(c.stats) || !c.stats[si].ok {
		return 0, 0, 0, false
	}
	st := c.stats[si]
	return st.min, st.max, st.nulls, true
}

// ReadFloats reads rows [from, from+len(dst)) into dst with the
// Value.AsFloat coercion (ints exactly, times as Unix seconds, bools as
// 0/1) and NaN for nulls and the string kinds. The range need not be
// segment-aligned (the engine's parallel chunking differs from the
// storage segmentation); each segment it covers is read once.
func (c *Column) ReadFloats(dst []float64, from int) {
	for at := 0; at < len(dst); {
		row := from + at
		lo := row & segMask
		hi := min(lo+len(dst)-at, SegmentSize)
		c.segment(row>>segShift).readFloats(c.kind, dst[at:], lo, hi)
		at += hi - lo
	}
}

// segment returns segment si, held or from the file.
func (c *Column) segment(si int) *segment {
	if c.src != nil {
		return c.src.segment(c, si)
	}
	return &c.segs[si]
}

// segRows returns the row count of segment si.
func (c *Column) segRows(si int) int { return min(SegmentSize, c.rows-si*SegmentSize) }
