package dataset

import "fmt"

// Field describes one attribute of a schema: its name, kind and, for
// ordinal/nominal kinds, the category labels in rank order.
type Field struct {
	Name       string
	Kind       Kind
	Categories []string
}

// Schema is an ordered list of fields.
type Schema []Field

// Validate checks that field names are non-empty and unique, that every
// kind is one of KindFloat…KindNominal, and that categorical fields
// declare their categories.
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
		if f.Kind < KindFloat || f.Kind > KindNominal {
			return fmt.Errorf("dataset: field %q has no kind the engine knows (%v)", f.Name, f.Kind)
		}
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

// Table is a column-oriented relation, resident or file-backed.
type Table struct {
	name   string
	schema Schema
	cols   []*Column
}

// NewTable creates an empty resident table with the given name and
// schema.
func NewTable(name string, schema Schema) (*Table, error) {
	if name == "" {
		return nil, fmt.Errorf("dataset: table needs a name")
	}
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	t := &Table{name: name, schema: append(Schema(nil), schema...)}
	t.cols = make([]*Column, len(schema))
	for i, f := range schema {
		t.cols[i] = &Column{kind: f.Kind}
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
	if len(t.cols) > 0 && t.cols[0].src != nil {
		return fmt.Errorf("dataset: table %s is file-backed and read-only", t.name)
	}
	for i, v := range vals {
		if k := t.schema[i].Kind; !v.Null && !k.holds(v.Kind) {
			return fmt.Errorf("dataset: table %s: column %q holds %v, got %v", t.name, t.schema[i].Name, k, v.Kind)
		}
	}
	for i, v := range vals {
		t.cols[i].append(v)
	}
	return nil
}

// Column returns the column with the given field name.
func (t *Table) Column(name string) (*Column, error) {
	i := t.schema.Index(name)
	if i < 0 {
		return nil, fmt.Errorf("dataset: table %s has no column %q", t.name, name)
	}
	return t.cols[i], nil
}

// ColumnAt returns column i.
func (t *Table) ColumnAt(i int) *Column { return t.cols[i] }

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

// FloatsOf reads the named column whole as float64s (Column.ReadFloats:
// NaN for nulls and the string kinds). Callers that can consume a row
// range at a time should read the column itself, which keeps a
// file-backed column at O(segment) resident.
func (t *Table) FloatsOf(name string) ([]float64, error) {
	c, err := t.Column(name)
	if err != nil {
		return nil, err
	}
	out := make([]float64, c.Len())
	c.ReadFloats(out, 0)
	return out, nil
}
