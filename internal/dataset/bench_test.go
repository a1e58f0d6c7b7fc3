package dataset_test

import (
	"path/filepath"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
)

// benchRows is the row count of the benchmark Traffic catalog, the size
// the repository benchmark serves.
const benchRows = 200_000

// BenchmarkReadFloats reads column a of a 200k-row Traffic table whole
// in SegmentSize-row ranges, as a leaf's distance pass reads it: from the
// resident column, and from its segment file under a one-byte cache, so
// every range reads and decodes its blob (the cold-disk path).
func BenchmarkReadFloats(b *testing.B) {
	mem, err := datagen.Traffic(benchRows, 1)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "traffic.vseg")
	if _, err := dataset.WriteCatalogFile(path, mem); err != nil {
		b.Fatal(err)
	}
	disk, err := dataset.OpenCatalogFile(path, dataset.OpenOptions{CacheBytes: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer disk.Close()
	for _, backing := range []struct {
		name string
		cat  *dataset.Catalog
	}{{"resident", mem}, {"file", disk}} {
		b.Run(backing.name, func(b *testing.B) {
			tbl, err := backing.cat.Table("S")
			if err != nil {
				b.Fatal(err)
			}
			col, err := tbl.Column("a")
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]float64, dataset.SegmentSize)
			b.SetBytes(8 * benchRows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for from := 0; from < benchRows; from += len(buf) {
					col.ReadFloats(buf[:min(len(buf), benchRows-from)], from)
				}
			}
		})
	}
}

// BenchmarkWriteCatalogFile writes the 200k-row Traffic catalog as a
// segment file.
func BenchmarkWriteCatalogFile(b *testing.B) {
	mem, err := datagen.Traffic(benchRows, 1)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "traffic.vseg")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.WriteCatalogFile(path, mem); err != nil {
			b.Fatal(err)
		}
	}
}
