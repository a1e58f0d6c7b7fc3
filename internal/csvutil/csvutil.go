// Package csvutil loads CSV files into dataset tables with schema
// inference, for the command-line tools: each column is typed float64
// if every non-empty cell parses as a number, time if every cell parses
// as RFC 3339, bool if every cell parses as a boolean, and string
// otherwise.
//
// Inference and loading are both streaming: a first pass over the
// rows narrows the per-column kind flags without retaining any row,
// and a second pass appends rows chunk-by-chunk into segmented
// columns. LoadInferred reopens the file for the second pass, so no
// pass retains the CSV's rows.
package csvutil

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"repro/internal/dataset"
)

// LoadInferred reads path and returns a table with an inferred schema.
// The file is streamed twice (infer, then load); no pass retains rows.
func LoadInferred(path, name string) (*dataset.Table, error) {
	schema, err := InferSchemaFile(path)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tbl, err := dataset.NewTable(name, schema)
	if err != nil {
		return nil, err
	}
	if err := streamRows(f, schema, tbl.AppendRow); err != nil {
		return nil, err
	}
	return tbl, nil
}

// InferSchemaFile streams path once and returns the inferred schema.
func InferSchemaFile(path string) (dataset.Schema, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return InferSchema(f)
}

// InferSchema streams the CSV once, narrowing each column's candidate
// kinds cell by cell without retaining rows.
func InferSchema(r io.Reader) (dataset.Schema, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("csvutil: empty file")
		}
		return nil, fmt.Errorf("csvutil: %w", err)
	}
	names := append([]string(nil), header...)
	flags := make([]kindFlags, len(names))
	for i := range flags {
		flags[i] = kindFlags{isFloat: true, isTime: true, isBool: true}
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("csvutil: %w", err)
		}
		for c := range names {
			if c >= len(rec) || rec[c] == "" {
				continue
			}
			flags[c].narrow(rec[c])
		}
	}
	schema := make(dataset.Schema, len(names))
	for c, h := range names {
		schema[c] = dataset.Field{Name: h, Kind: flags[c].kind()}
	}
	return schema, nil
}

// streamRows parses r's data rows per schema and hands each to append.
func streamRows(r io.Reader, schema dataset.Schema, append func(...dataset.Value) error) error {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	if _, err := cr.Read(); err != nil { // header
		return fmt.Errorf("csvutil: %w", err)
	}
	vals := make([]dataset.Value, len(schema))
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("csvutil: %w", err)
		}
		if len(rec) != len(schema) {
			return fmt.Errorf("csvutil: row %d has %d cells, want %d", line, len(rec), len(schema))
		}
		for c, cell := range rec {
			v, err := dataset.ParseValue(schema[c].Kind, cell)
			if err != nil {
				return fmt.Errorf("csvutil: row %d column %q: %w", line, schema[c].Name, err)
			}
			vals[c] = v
		}
		if err := append(vals...); err != nil {
			return err
		}
	}
}

// kindFlags tracks which kinds every non-empty cell of a column has
// supported so far.
type kindFlags struct {
	isFloat, isTime, isBool, any bool
}

func (k *kindFlags) narrow(cell string) {
	k.any = true
	if k.isFloat {
		if _, err := strconv.ParseFloat(cell, 64); err != nil {
			k.isFloat = false
		}
	}
	if k.isTime {
		if _, err := time.Parse(time.RFC3339, cell); err != nil {
			k.isTime = false
		}
	}
	if k.isBool {
		if _, err := strconv.ParseBool(cell); err != nil {
			k.isBool = false
		}
	}
}

// kind picks the most specific kind the column's cells all support.
func (k *kindFlags) kind() dataset.Kind {
	switch {
	case !k.any:
		return dataset.KindString
	case k.isTime:
		return dataset.KindTime
	case k.isBool:
		return dataset.KindBool
	case k.isFloat:
		return dataset.KindFloat
	default:
		return dataset.KindString
	}
}
