// Package dataset is the storage substrate of the VisDB reproduction: a
// typed, column-oriented table store, resident or served from segment
// files, with a catalog of named "connections" (the predefined,
// parameterizable joins of the GRADI query interface, section 4.1), plus
// CSV import/export.
package dataset

import (
	"fmt"
	"math"
	"strconv"
	"time"
)

// Kind enumerates the datatypes the engine understands. Ordinal and
// Nominal are string-valued but carry category semantics so that
// distance matrices and discrete sliders (section 4.3) apply.
type Kind int

const (
	KindFloat Kind = iota
	KindInt
	KindString
	KindTime
	KindBool
	KindOrdinal
	KindNominal
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindFloat:
		return "float"
	case KindInt:
		return "int"
	case KindString:
		return "string"
	case KindTime:
		return "time"
	case KindBool:
		return "bool"
	case KindOrdinal:
		return "ordinal"
	case KindNominal:
		return "nominal"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// IsStringy reports whether values of the kind are stored as strings.
func (k Kind) IsStringy() bool {
	return k == KindString || k == KindOrdinal || k == KindNominal
}

// holds reports whether a column of kind k stores a non-null value of
// kind v: its own kind, an int widened into a float column (numeric
// literals flow through the parser as either), or any string kind in a
// string-kind column.
func (k Kind) holds(v Kind) bool {
	return v == k || k == KindFloat && v == KindInt || k.IsStringy() && v.IsStringy()
}

// IsNumeric reports whether values of the kind coerce naturally to
// float64 (metric types in the paper's terminology).
func (k Kind) IsNumeric() bool {
	return k == KindFloat || k == KindInt || k == KindTime || k == KindBool
}

// Value is a tagged union holding one cell of a table.
type Value struct {
	Kind Kind
	Null bool
	F    float64
	I    int64
	S    string
	T    time.Time
	B    bool
}

// Float wraps a float64.
func Float(f float64) Value { return Value{Kind: KindFloat, F: f} }

// Int wraps an int64.
func Int(i int64) Value { return Value{Kind: KindInt, I: i} }

// String wraps a string.
func Str(s string) Value { return Value{Kind: KindString, S: s} }

// Ordinal wraps a category label with ordinal semantics.
func Ordinal(s string) Value { return Value{Kind: KindOrdinal, S: s} }

// Nominal wraps a category label with nominal semantics.
func Nominal(s string) Value { return Value{Kind: KindNominal, S: s} }

// Time wraps an instant.
func Time(t time.Time) Value { return Value{Kind: KindTime, T: t} }

// Bool wraps a bool.
func Bool(b bool) Value { return Value{Kind: KindBool, B: b} }

// Null returns the null value of the given kind.
func Null(k Kind) Value { return Value{Kind: k, Null: true} }

// AsFloat coerces the value to float64: floats directly, ints exactly,
// times as Unix seconds, bools as 0/1. ok is false for nulls and
// string-typed values.
func (v Value) AsFloat() (f float64, ok bool) {
	if v.Null {
		return math.NaN(), false
	}
	switch v.Kind {
	case KindFloat:
		return v.F, true
	case KindInt:
		return float64(v.I), true
	case KindTime:
		return float64(v.T.Unix()), true
	case KindBool:
		if v.B {
			return 1, true
		}
		return 0, true
	default:
		return math.NaN(), false
	}
}

// AsString coerces the value to a string: stringy kinds directly, others
// via formatting. ok is false for nulls.
func (v Value) AsString() (s string, ok bool) {
	if v.Null {
		return "", false
	}
	if v.Kind.IsStringy() {
		return v.S, true
	}
	return v.String(), true
}

// String renders the value for display and CSV export. Nulls render as
// the empty string; times as RFC 3339.
func (v Value) String() string {
	if v.Null {
		return ""
	}
	switch v.Kind {
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindTime:
		return v.T.Format(time.RFC3339)
	case KindBool:
		return strconv.FormatBool(v.B)
	default:
		return v.S
	}
}

// Equal reports deep equality of two values (same kind, both null or
// same payload).
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind || v.Null != o.Null {
		return false
	}
	if v.Null {
		return true
	}
	switch v.Kind {
	case KindFloat:
		return v.F == o.F
	case KindInt:
		return v.I == o.I
	case KindTime:
		return v.T.Equal(o.T)
	case KindBool:
		return v.B == o.B
	default:
		return v.S == o.S
	}
}

// ParseValue parses s into a Value of kind k. The empty string parses as
// null. Times accept RFC 3339; bools accept strconv.ParseBool forms.
func ParseValue(k Kind, s string) (Value, error) {
	if s == "" {
		return Null(k), nil
	}
	switch k {
	case KindFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, fmt.Errorf("dataset: parse float %q: %w", s, err)
		}
		return Float(f), nil
	case KindInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("dataset: parse int %q: %w", s, err)
		}
		return Int(i), nil
	case KindTime:
		t, err := time.Parse(time.RFC3339, s)
		if err != nil {
			return Value{}, fmt.Errorf("dataset: parse time %q: %w", s, err)
		}
		return Time(t), nil
	case KindBool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return Value{}, fmt.Errorf("dataset: parse bool %q: %w", s, err)
		}
		return Bool(b), nil
	case KindOrdinal:
		return Ordinal(s), nil
	case KindNominal:
		return Nominal(s), nil
	default:
		return Str(s), nil
	}
}
