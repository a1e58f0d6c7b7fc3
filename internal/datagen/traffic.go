package datagen

import (
	"math/rand"

	"repro/internal/dataset"
)

// TrafficQueries is the interaction workload that pairs with Traffic:
// the session queries the randomized concurrent scripts rotate
// through. One definition keeps the repository benchmark (bench/) and
// the server's and router's replay-identity suites on the exact same
// workload.
func TrafficQueries() []string {
	return []string{
		`SELECT a FROM S WHERE a > 50 AND b < 40`,
		`SELECT a FROM S WHERE a > 50 AND c BETWEEN 20 AND 30`,
		`SELECT a FROM S WHERE a > 50 AND b < 40 OR c BETWEEN 20 AND 30 WEIGHT 2`,
	}
}

// Traffic generates the numeric catalog the concurrent-traffic and
// serving workloads query: one table S with float attributes a, b, c
// drawn uniformly from [0, 100) plus a clustered attribute t that
// ascends with the row index (i/rows*100 plus uniform [0,1) noise).
// The uniform columns make every storage segment span nearly the full
// domain — per-segment stats can never prune them — while t's segments
// cover narrow ascending slices, so a range predicate on t exercises
// the segment-stats pushdown (and t's near-constant high float bits
// compress, where the uniform columns stay raw). Unlike the
// paper-scenario generators it plants nothing — the point is cheap,
// deterministic bulk data whose leaf distances do real work at any row
// count, so the same (rows, seed) pair always reproduces the exact
// catalog on both ends of a client/server benchmark.
func Traffic(rows int, seed int64) (*dataset.Catalog, error) {
	rng := rand.New(rand.NewSource(seed))
	tbl, err := dataset.NewTable("S", dataset.Schema{
		{Name: "a", Kind: dataset.KindFloat},
		{Name: "b", Kind: dataset.KindFloat},
		{Name: "c", Kind: dataset.KindFloat},
		{Name: "t", Kind: dataset.KindFloat},
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < rows; i++ {
		if err := tbl.AppendRow(
			dataset.Float(rng.Float64()*100),
			dataset.Float(rng.Float64()*100),
			dataset.Float(rng.Float64()*100),
			dataset.Float(float64(i)/float64(rows)*100+rng.Float64()),
		); err != nil {
			return nil, err
		}
	}
	cat := dataset.NewCatalog()
	if err := cat.AddTable(tbl); err != nil {
		return nil, err
	}
	return cat, nil
}
