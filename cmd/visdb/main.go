// Command visdb runs a visual feedback query against a built-in or CSV
// dataset and renders the visualization windows.
//
// Usage:
//
//	visdb -data env -query "SELECT Temperature FROM Weather WHERE Temperature > 20" -out out/
//	visdb -data cad -query-file q.sql -ascii
//	visdb -data mytable.csv -table T -query "SELECT x FROM T WHERE x > 1"
//
// Built-in datasets: env (weather + air pollution), cad (27-parameter
// parts), multidb (two person databases). CSV schemas are inferred
// column-by-column (float, then RFC 3339 time, else string).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/csvutil"
	"repro/visdb"
)

func main() {
	var (
		data      = flag.String("data", "env", "dataset: env, cad, multidb, or a CSV path")
		table     = flag.String("table", "", "table name for CSV input (default: file base name)")
		sql       = flag.String("query", "", "query in the VisDB dialect")
		queryFile = flag.String("query-file", "", "file holding the query")
		out       = flag.String("out", "out", "output directory for PNGs")
		gridW     = flag.Int("grid-w", 128, "item grid width per window")
		gridH     = flag.Int("grid-h", 128, "item grid height per window")
		px        = flag.Int("px", 1, "pixels per item (1, 4 or 16)")
		cols      = flag.Int("cols", 2, "window columns in the composed image")
		ascii     = flag.Bool("ascii", false, "print an ASCII preview")
		ansi      = flag.Bool("ansi", false, "print a 256-color ANSI preview")
		gradi     = flag.Bool("gradi", true, "print the GRADI query representation")
		hours     = flag.Int("hours", 720, "env dataset: hours of weather data")
		seed      = flag.Int64("seed", 1, "generator seed")
	)
	flag.Parse()
	if err := run(*data, *table, *sql, *queryFile, *out, *gridW, *gridH, *px, *cols, *ascii, *ansi, *gradi, *hours, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "visdb:", err)
		os.Exit(1)
	}
}

func run(data, table, sql, queryFile, out string, gridW, gridH, px, cols int, ascii, ansi, gradi bool, hours int, seed int64) error {
	if sql == "" && queryFile != "" {
		b, err := os.ReadFile(queryFile)
		if err != nil {
			return err
		}
		sql = string(b)
	}
	if strings.TrimSpace(sql) == "" {
		return fmt.Errorf("no query given (use -query or -query-file)")
	}
	cat, err := loadData(data, table, hours, seed)
	if err != nil {
		return err
	}
	q, err := visdb.Parse(sql)
	if err != nil {
		return err
	}
	if gradi {
		fmt.Println(visdb.Gradi(q))
	}
	start := time.Now()
	s, err := visdb.NewSessionQuery(cat, visdb.Options{GridW: gridW, GridH: gridH, PixelsPerItem: px}, q)
	if err != nil {
		return err
	}
	panel := s.PanelText()
	elapsed := time.Since(start)
	fmt.Println(panel)
	fmt.Printf("(query executed in %v)\n", elapsed.Round(time.Millisecond))
	img, err := s.Image(cols)
	if err != nil {
		return err
	}
	if out != "" {
		path := filepath.Join(out, "visdb.png")
		if err := img.SavePNG(path); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	if ascii {
		fmt.Println(img.ASCII(120, 40))
	}
	if ansi {
		fmt.Println(img.ANSI(120, 40))
	}
	return nil
}

func loadData(data, table string, hours int, seed int64) (*visdb.Catalog, error) {
	switch data {
	case "env":
		cat, _, err := visdb.Environmental(visdb.EnvConfig{Hours: hours, Seed: seed})
		return cat, err
	case "cad":
		tbl, _, err := visdb.CADParts(visdb.CADConfig{Seed: seed})
		if err != nil {
			return nil, err
		}
		cat := visdb.NewCatalog()
		return cat, cat.AddTable(tbl)
	case "multidb":
		cat, _, err := visdb.MultiDB(visdb.MultiDBConfig{Seed: seed})
		return cat, err
	default:
		if table == "" {
			table = strings.TrimSuffix(filepath.Base(data), filepath.Ext(data))
		}
		tbl, err := csvutil.LoadInferred(data, table)
		if err != nil {
			return nil, err
		}
		cat := visdb.NewCatalog()
		return cat, cat.AddTable(tbl)
	}
}
