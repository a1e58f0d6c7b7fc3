package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
)

// WriteCSV writes the table as CSV with a header row of field names.
// Null cells serialize as empty strings; times as RFC 3339. Two format
// limitations follow from the CSV convention: an empty string is
// indistinguishable from NULL on read, and a single-column table's
// all-null rows vanish (encoding/csv skips bare empty lines).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(t.schema))
	for i, f := range t.schema {
		header[i] = f.Name
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("dataset: write csv header: %w", err)
	}
	row := make([]string, len(t.cols))
	for r := 0; r < t.NumRows(); r++ {
		for c, col := range t.cols {
			row[c] = col.Value(r).String()
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("dataset: write csv row %d: %w", r, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a table from CSV. The header must match the schema's
// field names in order; cells parse per the schema kinds, empty cells
// becoming nulls.
func ReadCSV(r io.Reader, name string, schema Schema) (*Table, error) {
	t, err := NewTable(name, schema)
	if err != nil {
		return nil, err
	}
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read csv header: %w", err)
	}
	if len(header) != len(schema) {
		return nil, fmt.Errorf("dataset: csv has %d columns, schema has %d", len(header), len(schema))
	}
	for i, h := range header {
		if h != schema[i].Name {
			return nil, fmt.Errorf("dataset: csv column %d is %q, schema says %q", i, h, schema[i].Name)
		}
	}
	vals := make([]Value, len(schema))
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: read csv line %d: %w", line, err)
		}
		for i, cell := range rec {
			v, err := ParseValue(schema[i].Kind, cell)
			if err != nil {
				return nil, fmt.Errorf("dataset: csv line %d column %q: %w", line, schema[i].Name, err)
			}
			vals[i] = v
		}
		if err := t.AppendRow(vals...); err != nil {
			return nil, fmt.Errorf("dataset: csv line %d: %w", line, err)
		}
	}
	return t, nil
}
