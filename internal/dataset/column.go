package dataset

import (
	"fmt"
	"math"
	"time"
)

// SegmentSize is the row count of one column segment — 4096, matching
// the fused evaluator's chunk size so a segment decoded from disk is
// consumed by exactly one evaluator chunk. All columnar storage (both
// the in-memory columns below and the file-backed columns of
// segfile.go) is aligned to it.
const SegmentSize = 1 << segShift

const (
	segShift = 12
	segMask  = SegmentSize - 1
)

// segs is chunk-aligned segmented storage: values live in fixed-size
// segments instead of one flat slice, so growth never reallocates or
// copies existing data and the layout matches the on-disk segment
// format one-to-one.
type segs[T any] struct {
	chunks [][]T
	n      int
}

func (s *segs[T]) append(v T) {
	if s.n&segMask == 0 {
		s.chunks = append(s.chunks, make([]T, 0, SegmentSize))
	}
	last := len(s.chunks) - 1
	s.chunks[last] = append(s.chunks[last], v)
	s.n++
}

func (s *segs[T]) at(i int) T { return s.chunks[i>>segShift][i&segMask] }

// seg returns segment si as a read-only slice.
func (s *segs[T]) seg(si int) []T { return s.chunks[si] }

func (s *segs[T]) numSegs() int { return len(s.chunks) }

// Column is a typed, nullable vector of values — one attribute of a
// table, stored column-oriented so the distance pipeline can stream an
// attribute without touching the rest of the row.
type Column interface {
	// Kind returns the column's datatype.
	Kind() Kind
	// Len returns the number of entries.
	Len() int
	// Value returns entry i as a Value.
	Value(i int) Value
	// IsNull reports whether entry i is null.
	IsNull(i int) bool
	// Append adds v, which must match the column kind (or be null).
	Append(v Value) error
}

// FloatReader is implemented by columns that can bulk-decode a row
// range into float64s with the Value.AsFloat coercion (ints exactly,
// times as Unix seconds, bools as 0/1) and NaN for nulls. It is the
// fast path of Table.FloatsOf and the streaming distance pipeline:
// dst may cover an arbitrary [from, from+len(dst)) row range, which
// need not be segment-aligned (the engine's parallel chunking differs
// from the storage segmentation).
type FloatReader interface {
	ReadFloats(dst []float64, from int)
}

// MinMaxer is implemented by every numeric column: it knows its extremes
// without a scan (file-backed columns from the catalog footer, in-memory
// ones kept on Append). ok is false when it has no non-null numeric value.
type MinMaxer interface {
	MinMax() (min, max float64, ok bool)
}

// extremes is an in-memory numeric column's MinMaxer: what a scan of its
// AsFloat values in row order finds, NaN and nulls skipped.
type extremes struct {
	min, max float64
	ok       bool
}

// add folds one appended value in, as AsFloat coerces it.
func (x *extremes) add(f float64, ok bool) {
	switch {
	case !ok || f != f:
	case !x.ok:
		x.min, x.max, x.ok = f, f, true
	case f < x.min:
		x.min = f
	case f > x.max:
		x.max = f
	}
}

// MinMax implements MinMaxer.
func (x *extremes) MinMax() (min, max float64, ok bool) { return x.min, x.max, x.ok }

// SegmentStatser is implemented by columns that know per-segment
// statistics without decoding — file-backed columns carry them in the
// catalog file's footer. For segment si (rows
// [si*SegmentSize, min((si+1)*SegmentSize, Len()))), min and max bound
// every usable value the segment decodes to under the ReadFloats
// coercion, and nulls counts the rows with no usable value (null rows,
// plus NaN entries of float columns). ok is false when the segment has
// no stats (all-null segments, string columns) — a
// caller may then decode, never assume.
//
// The contract is what makes predicate pushdown sound: ok with
// nulls == 0 and [min, max] strictly inside a query range proves every
// row of the segment scores range distance exactly 0, so the scan may
// skip the decode and leave a zero-filled distance range in place.
type SegmentStatser interface {
	SegmentStats(si int) (min, max float64, nulls int, ok bool)
}

// readOnly marks columns that reject Append (file-backed columns).
type readOnly interface {
	readOnlyColumn()
}

// NewColumn returns an empty column of the given kind.
func NewColumn(k Kind) Column {
	switch k {
	case KindFloat:
		return &FloatColumn{}
	case KindInt:
		return &IntColumn{}
	case KindTime:
		return &TimeColumn{}
	case KindBool:
		return &BoolColumn{}
	default:
		return &StringColumn{kind: k}
	}
}

func kindMismatch(want, got Kind) error {
	return fmt.Errorf("dataset: column kind %v cannot hold %v value", want, got)
}

// readSegmented streams rows [from, from+len(dst)) through a
// per-segment kernel: fn decodes segment si's rows [lo, hi) into
// dst[at:]. It factors the segment-boundary arithmetic out of every
// ReadFloats implementation.
func readSegmented(dst []float64, from int, fn func(dst []float64, si, lo, hi int)) {
	at := 0
	for at < len(dst) {
		row := from + at
		si, off := row>>segShift, row&segMask
		hi := off + (len(dst) - at)
		if hi > SegmentSize {
			hi = SegmentSize
		}
		fn(dst[at:], si, off, hi)
		at += hi - off
	}
}

// FloatColumn stores float64 values.
type FloatColumn struct {
	vals  segs[float64]
	nulls segs[bool]
	extremes
}

// Kind implements Column.
func (c *FloatColumn) Kind() Kind { return KindFloat }

// Len implements Column.
func (c *FloatColumn) Len() int { return c.vals.n }

// IsNull implements Column.
func (c *FloatColumn) IsNull(i int) bool { return c.nulls.at(i) }

// Value implements Column.
func (c *FloatColumn) Value(i int) Value {
	if c.nulls.at(i) {
		return Null(KindFloat)
	}
	return Float(c.vals.at(i))
}

// Append implements Column. Non-null int values are accepted and
// widened, since numeric literals flow through the parser as either.
func (c *FloatColumn) Append(v Value) error {
	if v.Null {
		c.vals.append(math.NaN())
		c.nulls.append(true)
		return nil
	}
	switch v.Kind {
	case KindFloat:
		c.vals.append(v.F)
	case KindInt:
		c.vals.append(float64(v.I))
	default:
		return kindMismatch(KindFloat, v.Kind)
	}
	c.nulls.append(false)
	c.add(v.AsFloat())
	return nil
}

// Float returns entry i and whether it is non-null, without boxing.
func (c *FloatColumn) Float(i int) (float64, bool) {
	if c.nulls.at(i) {
		return math.NaN(), false
	}
	return c.vals.at(i), true
}

// ReadFloats implements FloatReader. Null entries already hold NaN in
// the value segments, so this is a straight per-segment copy.
func (c *FloatColumn) ReadFloats(dst []float64, from int) {
	readSegmented(dst, from, func(dst []float64, si, lo, hi int) {
		copy(dst, c.vals.seg(si)[lo:hi])
	})
}

// IntColumn stores int64 values.
type IntColumn struct {
	vals  segs[int64]
	nulls segs[bool]
	extremes
}

// Kind implements Column.
func (c *IntColumn) Kind() Kind { return KindInt }

// Len implements Column.
func (c *IntColumn) Len() int { return c.vals.n }

// IsNull implements Column.
func (c *IntColumn) IsNull(i int) bool { return c.nulls.at(i) }

// Value implements Column.
func (c *IntColumn) Value(i int) Value {
	if c.nulls.at(i) {
		return Null(KindInt)
	}
	return Int(c.vals.at(i))
}

// Append implements Column.
func (c *IntColumn) Append(v Value) error {
	if v.Null {
		c.vals.append(0)
		c.nulls.append(true)
		return nil
	}
	if v.Kind != KindInt {
		return kindMismatch(KindInt, v.Kind)
	}
	c.vals.append(v.I)
	c.nulls.append(false)
	c.add(v.AsFloat())
	return nil
}

// ReadFloats implements FloatReader.
func (c *IntColumn) ReadFloats(dst []float64, from int) {
	readSegmented(dst, from, func(dst []float64, si, lo, hi int) {
		vals, nulls := c.vals.seg(si), c.nulls.seg(si)
		for i := lo; i < hi; i++ {
			if nulls[i] {
				dst[i-lo] = math.NaN()
			} else {
				dst[i-lo] = float64(vals[i])
			}
		}
	})
}

// StringColumn stores string values; it backs the string, ordinal and
// nominal kinds.
type StringColumn struct {
	kind  Kind
	vals  segs[string]
	nulls segs[bool]
}

// Kind implements Column. A zero-value StringColumn is a plain string
// column.
func (c *StringColumn) Kind() Kind {
	if !c.kind.IsStringy() {
		return KindString
	}
	return c.kind
}

// Len implements Column.
func (c *StringColumn) Len() int { return c.vals.n }

// IsNull implements Column.
func (c *StringColumn) IsNull(i int) bool { return c.nulls.at(i) }

// Value implements Column.
func (c *StringColumn) Value(i int) Value {
	if c.nulls.at(i) {
		return Null(c.Kind())
	}
	return Value{Kind: c.Kind(), S: c.vals.at(i)}
}

// Append implements Column.
func (c *StringColumn) Append(v Value) error {
	if v.Null {
		c.vals.append("")
		c.nulls.append(true)
		return nil
	}
	if !v.Kind.IsStringy() {
		return kindMismatch(c.Kind(), v.Kind)
	}
	c.vals.append(v.S)
	c.nulls.append(false)
	return nil
}

// Str returns entry i and whether it is non-null.
func (c *StringColumn) Str(i int) (string, bool) {
	if c.nulls.at(i) {
		return "", false
	}
	return c.vals.at(i), true
}

// TimeColumn stores instants.
type TimeColumn struct {
	vals  segs[time.Time]
	nulls segs[bool]
	extremes
}

// Kind implements Column.
func (c *TimeColumn) Kind() Kind { return KindTime }

// Len implements Column.
func (c *TimeColumn) Len() int { return c.vals.n }

// IsNull implements Column.
func (c *TimeColumn) IsNull(i int) bool { return c.nulls.at(i) }

// Value implements Column.
func (c *TimeColumn) Value(i int) Value {
	if c.nulls.at(i) {
		return Null(KindTime)
	}
	return Time(c.vals.at(i))
}

// Append implements Column.
func (c *TimeColumn) Append(v Value) error {
	if v.Null {
		c.vals.append(time.Time{})
		c.nulls.append(true)
		return nil
	}
	if v.Kind != KindTime {
		return kindMismatch(KindTime, v.Kind)
	}
	c.vals.append(v.T)
	c.nulls.append(false)
	c.add(v.AsFloat())
	return nil
}

// ReadFloats implements FloatReader (Unix seconds, per AsFloat).
func (c *TimeColumn) ReadFloats(dst []float64, from int) {
	readSegmented(dst, from, func(dst []float64, si, lo, hi int) {
		vals, nulls := c.vals.seg(si), c.nulls.seg(si)
		for i := lo; i < hi; i++ {
			if nulls[i] {
				dst[i-lo] = math.NaN()
			} else {
				dst[i-lo] = float64(vals[i].Unix())
			}
		}
	})
}

// BoolColumn stores booleans.
type BoolColumn struct {
	vals  segs[bool]
	nulls segs[bool]
	extremes
}

// Kind implements Column.
func (c *BoolColumn) Kind() Kind { return KindBool }

// Len implements Column.
func (c *BoolColumn) Len() int { return c.vals.n }

// IsNull implements Column.
func (c *BoolColumn) IsNull(i int) bool { return c.nulls.at(i) }

// Value implements Column.
func (c *BoolColumn) Value(i int) Value {
	if c.nulls.at(i) {
		return Null(KindBool)
	}
	return Bool(c.vals.at(i))
}

// Append implements Column.
func (c *BoolColumn) Append(v Value) error {
	if v.Null {
		c.vals.append(false)
		c.nulls.append(true)
		return nil
	}
	if v.Kind != KindBool {
		return kindMismatch(KindBool, v.Kind)
	}
	c.vals.append(v.B)
	c.nulls.append(false)
	c.add(v.AsFloat())
	return nil
}

// ReadFloats implements FloatReader (0/1, per AsFloat).
func (c *BoolColumn) ReadFloats(dst []float64, from int) {
	readSegmented(dst, from, func(dst []float64, si, lo, hi int) {
		vals, nulls := c.vals.seg(si), c.nulls.seg(si)
		for i := lo; i < hi; i++ {
			switch {
			case nulls[i]:
				dst[i-lo] = math.NaN()
			case vals[i]:
				dst[i-lo] = 1
			default:
				dst[i-lo] = 0
			}
		}
	})
}
