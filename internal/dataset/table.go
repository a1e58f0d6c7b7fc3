package dataset

import (
	"fmt"
	"math"
)

// Field describes one attribute of a schema: its name, kind and, for
// ordinal/nominal kinds, the category labels in rank order.
type Field struct {
	Name       string
	Kind       Kind
	Categories []string
}

// Schema is an ordered list of fields.
type Schema []Field

// Validate checks that field names are non-empty and unique and that
// categorical fields declare their categories.
func (s Schema) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("dataset: schema has no fields")
	}
	seen := make(map[string]bool, len(s))
	for i, f := range s {
		if f.Name == "" {
			return fmt.Errorf("dataset: field %d has empty name", i)
		}
		if seen[f.Name] {
			return fmt.Errorf("dataset: duplicate field name %q", f.Name)
		}
		seen[f.Name] = true
		if (f.Kind == KindOrdinal || f.Kind == KindNominal) && len(f.Categories) == 0 {
			return fmt.Errorf("dataset: categorical field %q declares no categories", f.Name)
		}
	}
	return nil
}

// Index returns the position of the named field, or -1.
func (s Schema) Index(name string) int {
	for i, f := range s {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Table is an in-memory, column-oriented relation.
type Table struct {
	name   string
	schema Schema
	cols   []Column
}

// NewTable creates an empty table with the given name and schema.
func NewTable(name string, schema Schema) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("dataset: table needs a name")
	}
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	t := &Table{name: name, schema: append(Schema(nil), schema...)}
	t.cols = make([]Column, len(schema))
	for i, f := range schema {
		t.cols[i] = NewColumn(f.Kind)
	}
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema (shared; callers must not mutate).
func (t *Table) Schema() Schema { return t.schema }

// NumRows returns the row count.
func (t *Table) NumRows() int {
	if len(t.cols) == 0 {
		return 0
	}
	return t.cols[0].Len()
}

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.cols) }

// AppendRow appends one row; vals must match the schema in count and
// kinds. On a kind mismatch the row is not partially applied.
// File-backed tables are immutable and reject appends.
func (t *Table) AppendRow(vals ...Value) error {
	if len(vals) != len(t.cols) {
		return fmt.Errorf("dataset: table %s: row has %d values, want %d", t.name, len(vals), len(t.cols))
	}
	if len(t.cols) > 0 {
		if _, ro := t.cols[0].(readOnly); ro {
			return fmt.Errorf("dataset: table %s is file-backed and read-only", t.name)
		}
	}
	for i, v := range vals {
		if v.Null {
			continue
		}
		k := t.schema[i].Kind
		ok := v.Kind == k ||
			(k == KindFloat && v.Kind == KindInt) ||
			(k.IsStringy() && v.Kind.IsStringy())
		if !ok {
			return fmt.Errorf("dataset: table %s: column %q holds %v, got %v", t.name, t.schema[i].Name, k, v.Kind)
		}
	}
	for i, v := range vals {
		if v.Null {
			v = Null(t.schema[i].Kind)
		} else if t.schema[i].Kind.IsStringy() {
			v.Kind = t.schema[i].Kind
		}
		if err := t.cols[i].Append(v); err != nil {
			// Unreachable after the pre-validation above, but keep the
			// invariant that columns never go ragged.
			panic(fmt.Sprintf("dataset: ragged append after validation: %v", err))
		}
	}
	return nil
}

// Column returns the column with the given field name.
func (t *Table) Column(name string) (Column, error) {
	i := t.schema.Index(name)
	if i < 0 {
		return nil, fmt.Errorf("dataset: table %s has no column %q", t.name, name)
	}
	return t.cols[i], nil
}

// ColumnAt returns column i.
func (t *Table) ColumnAt(i int) Column { return t.cols[i] }

// Value returns the cell at (row, field name).
func (t *Table) Value(row int, name string) (Value, error) {
	c, err := t.Column(name)
	if err != nil {
		return Value{}, err
	}
	if row < 0 || row >= c.Len() {
		return Value{}, fmt.Errorf("dataset: row %d out of range [0,%d)", row, c.Len())
	}
	return c.Value(row), nil
}

// Row materializes row i as a value slice in schema order.
func (t *Table) Row(i int) []Value {
	out := make([]Value, len(t.cols))
	for j, c := range t.cols {
		out[j] = c.Value(i)
	}
	return out
}

// FloatsOf streams the named column as float64s (NaN for nulls and
// non-coercible kinds). It is the bulk materializing accessor; callers
// that can consume a row range at a time should use FloatReaderOf
// instead, which keeps file-backed columns at O(segment) resident.
func (t *Table) FloatsOf(name string) ([]float64, error) {
	c, err := t.Column(name)
	if err != nil {
		return nil, err
	}
	out := make([]float64, c.Len())
	if fr, ok := c.(FloatReader); ok {
		fr.ReadFloats(out, 0)
		return out, nil
	}
	for i := range out {
		f, ok := c.Value(i).AsFloat()
		if !ok {
			f = math.NaN()
		}
		out[i] = f
	}
	return out, nil
}

// FloatReaderOf returns the named column's bulk float reader, or nil
// for kinds without a numeric coercion (strings). The returned reader
// coerces exactly like FloatsOf; reading range by range is what lets
// the predicate pipeline evaluate a file-backed catalog without ever
// materializing an n-sized column copy.
func (t *Table) FloatReaderOf(name string) (FloatReader, error) {
	c, err := t.Column(name)
	if err != nil {
		return nil, err
	}
	fr, _ := c.(FloatReader)
	return fr, nil
}

// MinMaxOf returns the minimum and maximum non-null coerced value of a
// numeric column; ok is false when the column has no non-null values.
// The query-modification sliders display these bounds "to give the user
// a feeling for useful query values" (section 4.3). Every numeric column
// knows them without touching data (MinMaxer); a string column has none.
func (t *Table) MinMaxOf(name string) (min, max float64, ok bool, err error) {
	c, err := t.Column(name)
	if err != nil {
		return 0, 0, false, err
	}
	if mm, isMM := c.(MinMaxer); isMM {
		min, max, ok = mm.MinMax()
	}
	return min, max, ok, nil
}
