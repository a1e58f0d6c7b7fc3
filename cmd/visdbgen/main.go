// Command visdbgen generates the synthetic datasets of the
// reproduction and writes them as CSV files or as a single on-disk
// segment catalog (-format seg) that visdbd serves directly from the
// file with bounded resident memory.
//
// Usage:
//
//	visdbgen -kind env -hours 720 -out data/
//	visdbgen -kind cad -parts 5000 -out data/
//	visdbgen -kind multidb -people 400 -out data/
//	visdbgen -kind traffic -rows 1000000 -format seg -out data/
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/datagen"
	"repro/visdb"
)

func main() {
	var (
		kind   = flag.String("kind", "env", "dataset kind: env, cad, multidb, traffic")
		out    = flag.String("out", "data", "output directory")
		format = flag.String("format", "csv", "output format: csv (one file per table) or seg (one segment catalog <kind>.visdb)")
		seed   = flag.Int64("seed", 1, "generator seed")
		hours  = flag.Int("hours", 720, "env: hours of weather data")
		every  = flag.Int("every", 1, "env: pollution sampled every N hours")
		offset = flag.Int("offset", 30, "env: pollution timestamp offset (minutes)")
		hot    = flag.Int("hotspots", 5, "env: planted exceptional ozone values")
		parts  = flag.Int("parts", 1000, "cad: number of parts")
		people = flag.Int("people", 300, "multidb: entities in database A")
		rows   = flag.Int("rows", 200000, "traffic: row count")
	)
	flag.Parse()
	if err := run(*kind, *out, *format, *seed, *hours, *every, *offset, *hot, *parts, *people, *rows); err != nil {
		fmt.Fprintln(os.Stderr, "visdbgen:", err)
		os.Exit(1)
	}
}

func run(kind, out, format string, seed int64, hours, every, offset, hot, parts, people, rows int) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	var cat *visdb.Catalog
	switch kind {
	case "env":
		c, truth, err := visdb.Environmental(visdb.EnvConfig{
			Hours: hours, PollutionEvery: every, OffsetMinutes: offset,
			HotSpots: hot, Seed: seed,
		})
		if err != nil {
			return err
		}
		cat = c
		fmt.Printf("planted: ozone lag %dh, %d hot spots\n", truth.LagHours, len(truth.HotSpotRows))
	case "cad":
		tbl, truth, err := visdb.CADParts(visdb.CADConfig{Parts: parts, Seed: seed})
		if err != nil {
			return err
		}
		cat = visdb.NewCatalog()
		if err := cat.AddTable(tbl); err != nil {
			return err
		}
		fmt.Printf("planted: %d exact matches, near-miss row %d\n", len(truth.ExactRows), truth.NearMissRow)
		sqlPath := filepath.Join(out, "cad_query.sql")
		if err := os.WriteFile(sqlPath, []byte(visdb.CADQuerySQL(truth, 0)+"\n"), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", sqlPath)
	case "multidb":
		c, truth, err := visdb.MultiDB(visdb.MultiDBConfig{People: people, Seed: seed})
		if err != nil {
			return err
		}
		cat = c
		fmt.Printf("planted: %d true correspondences\n", len(truth.Matches))
	case "traffic":
		c, err := datagen.Traffic(rows, seed)
		if err != nil {
			return err
		}
		cat = c
		fmt.Printf("generated: %d uniform traffic rows (seed %d)\n", rows, seed)
	default:
		return fmt.Errorf("unknown kind %q (env, cad, multidb, traffic)", kind)
	}
	switch format {
	case "csv":
		for _, name := range cat.TableNames() {
			t, err := cat.Table(name)
			if err != nil {
				return err
			}
			path := filepath.Join(out, t.Name()+".csv")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := t.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("wrote %s (%d rows)\n", path, t.NumRows())
		}
	case "seg":
		path := filepath.Join(out, kind+".visdb")
		epoch, err := visdb.WriteCatalogFile(path, cat)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s (format v3, epoch %x)\n", path, epoch)
	default:
		return fmt.Errorf("unknown format %q (csv, seg)", format)
	}
	return nil
}
