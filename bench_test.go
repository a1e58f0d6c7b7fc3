package repro

// Repository-level benchmarks: one per figure and quantitative claim of
// the paper (the regenerating correctness harness is
// internal/experiments, runnable via cmd/visdbbench), plus
// micro-benchmarks of the pipeline stages. Run with:
//
//	go test -bench=. -benchmem
import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/arrange"
	"repro/internal/colormap"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/join"
	"repro/internal/query"
	"repro/internal/reduce"
	"repro/internal/relevance"
	"repro/internal/render"
	"repro/internal/session"
	"repro/internal/topk"
)

const paperQuery = `
SELECT Temperature, Solar_Radiation, Humidity, Ozone
FROM Weather, Air-Pollution
WHERE (Temperature > 15.0 OR Solar_Radiation > 600 OR Humidity < 60)
  AND CONNECT with-time-diff(120)`

// --- Figure 1a: spiral arrangement + coloring of 65,536 items -------

func BenchmarkFig1aSpiral(b *testing.B) {
	const w, h = 256, 256
	rng := rand.New(rand.NewSource(1))
	dists := make([]float64, w*h)
	for i := range dists {
		dists[i] = math.Abs(rng.NormFloat64())
	}
	sorted, _ := reduce.SortWithIndex(relevance.Normalize(dists, 0))
	cm := colormap.VisDB(colormap.DefaultLevels)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		win := render.NewWindow("f1a", w, h, 1)
		for k, cell := range arrange.Spiral(w, h) {
			win.SetCell(cell, cm.AtNorm(sorted[k]/relevance.Scale))
		}
	}
}

// --- Figure 1b: 2D quadrant arrangement -----------------------------

func BenchmarkFig1b2D(b *testing.B) {
	const w, h = 128, 128
	rng := rand.New(rand.NewSource(2))
	items := make([]arrange.QuadItem, w*h*3/4)
	for i := range items {
		items[i] = arrange.QuadItem{SignX: rng.Intn(3) - 1, SignY: rng.Intn(3) - 1}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arrange.Quad2D(w, h, items)
	}
}

// --- Figure 2: display-reduction heuristics --------------------------

func BenchmarkFig2Heuristic(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	dists := make([]float64, 50000)
	for i := range dists {
		if i < 10000 {
			dists[i] = 1 + 0.1*rng.NormFloat64()
		} else {
			dists[i] = 100 + rng.NormFloat64()
		}
	}
	sorted, _ := reduce.SortWithIndex(dists)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reduce.Cut(sorted, 12000, 2)
	}
}

// --- Figure 3: query parsing + GRADI rendering -----------------------

func BenchmarkFig3Parse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q, err := query.Parse(paperQuery)
		if err != nil {
			b.Fatal(err)
		}
		_ = query.Gradi(q)
	}
}

// --- Figures 4/5: the full pipeline on 68,376 objects ----------------

func fig4Engine(b *testing.B) *core.Engine {
	b.Helper()
	cat, _, err := datagen.Environmental(datagen.EnvConfig{
		Hours: 2849, PollutionEvery: 119, OffsetMinutes: 0, Seed: 1994,
	})
	if err != nil {
		b.Fatal(err)
	}
	return core.New(cat, nil, core.Options{GridW: 165, GridH: 165})
}

func BenchmarkFig4Pipeline(b *testing.B) {
	eng := fig4Engine(b)
	q, err := query.Parse(paperQuery)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5ORPart(b *testing.B) {
	eng := fig4Engine(b)
	res, err := eng.RunSQL(paperQuery)
	if err != nil {
		b.Fatal(err)
	}
	orPart := res.Query.Where.(*query.BoolExpr).Children[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := res.DrillDownWindows(orPart, false); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Claim C1: O(n log n) scaling sweep ------------------------------

func BenchmarkScaling(b *testing.B) {
	for _, n := range []int{10000, 100000, 1000000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			tbl, err := dataset.NewTable("S", dataset.Schema{
				{Name: "a", Kind: dataset.KindFloat},
				{Name: "b", Kind: dataset.KindFloat},
				{Name: "c", Kind: dataset.KindFloat},
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if err := tbl.AppendRow(
					dataset.Float(rng.Float64()*100),
					dataset.Float(rng.Float64()*100),
					dataset.Float(rng.Float64()*100),
				); err != nil {
					b.Fatal(err)
				}
			}
			cat := dataset.NewCatalog()
			if err := cat.AddTable(tbl); err != nil {
				b.Fatal(err)
			}
			eng := core.New(cat, nil, core.Options{GridW: 128, GridH: 128})
			q, err := query.Parse(`SELECT a FROM S WHERE a > 50 AND b < 40 OR c BETWEEN 20 AND 30`)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Interactive loop: incremental reruns ----------------------------

// interactTable builds the n-row three-attribute table the interaction
// benchmarks share.
func interactCatalog(b *testing.B, n int) *dataset.Catalog {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	tbl, err := dataset.NewTable("S", dataset.Schema{
		{Name: "a", Kind: dataset.KindFloat},
		{Name: "b", Kind: dataset.KindFloat},
		{Name: "c", Kind: dataset.KindFloat},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tbl.AppendRow(
			dataset.Float(rng.Float64()*100),
			dataset.Float(rng.Float64()*100),
			dataset.Float(rng.Float64()*100),
		); err != nil {
			b.Fatal(err)
		}
	}
	cat := dataset.NewCatalog()
	if err := cat.AddTable(tbl); err != nil {
		b.Fatal(err)
	}
	return cat
}

const interactQuery = `SELECT a FROM S WHERE a > 50 AND b < 40 OR c BETWEEN 20 AND 30`

// stringCatalog builds an n-row person table for the approximate-match
// workloads: edit-distance predicates are the paper's "complex distance
// functions" whose recomputation cost motivates both the
// auto-recalculate-off escape hatch and the session cache.
func stringCatalog(b *testing.B, n int) *dataset.Catalog {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	tbl, err := dataset.NewTable("P", dataset.Schema{
		{Name: "name", Kind: dataset.KindString},
		{Name: "city", Kind: dataset.KindString},
		{Name: "age", Kind: dataset.KindInt},
	})
	if err != nil {
		b.Fatal(err)
	}
	names := []string{"miller", "smith", "meier", "schmidt", "maier", "mueller", "smythe", "schmitt"}
	cities := []string{"munich", "berlin", "hamburg", "bremen", "cologne", "dresden"}
	for i := 0; i < n; i++ {
		if err := tbl.AppendRow(
			dataset.Str(names[rng.Intn(len(names))]),
			dataset.Str(cities[rng.Intn(len(cities))]),
			dataset.Int(int64(18+rng.Intn(60))),
		); err != nil {
			b.Fatal(err)
		}
	}
	cat := dataset.NewCatalog()
	if err := cat.AddTable(tbl); err != nil {
		b.Fatal(err)
	}
	return cat
}

const stringQuery = `SELECT name FROM P WHERE name = 'meyer' USING edit AND city = 'muenchen' USING edit AND age BETWEEN 30 AND 40`

// reweightWorkload runs one cold/warm pair: a fresh Engine.Run per
// weight change versus the session's cached Recalculate.
func reweightWorkload(b *testing.B, cat *dataset.Catalog, opt core.Options, sql string) {
	b.Run("cold", func(b *testing.B) {
		q, err := query.Parse(sql)
		if err != nil {
			b.Fatal(err)
		}
		eng := core.New(cat, nil, opt)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			query.Predicates(q.Where)[0].SetWeight(float64(2 + i%2))
			if _, err := eng.Run(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		s, err := session.NewSQL(cat, nil, opt, sql)
		if err != nil {
			b.Fatal(err)
		}
		pred := query.Predicates(s.Query().Where)[0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Alternate so every iteration is a real change (no-op
			// drags skip recalculation entirely).
			if err := s.SetWeight(pred, float64(2+i%2)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReweight is the section 5.2 weighting-slider loop at
// n = 1e6 across three workloads: cheap numeric predicates (the cache's
// worst case — leaf recomputation never dominated), the paper query
// over a ~1e6-pair approximate join, and edit-distance predicates (the
// "complex distance functions" the paper's auto-recalculate-off option
// existed for). The warm side serves every leaf vector — and its
// normalization quantiles — from the session cache and writes into
// pooled buffers; cached and cold results are bit-identical
// (TestInteractionScriptMatchesFreshEngine and the core cache tests).
func BenchmarkReweight(b *testing.B) {
	const n = 1_000_000
	opt := core.Options{GridW: 128, GridH: 128}
	b.Run("numeric", func(b *testing.B) {
		reweightWorkload(b, interactCatalog(b, n), opt, interactQuery)
	})
	b.Run("join", func(b *testing.B) {
		cat, _, err := datagen.Environmental(datagen.EnvConfig{
			Hours: 10900, PollutionEvery: 119, OffsetMinutes: 0, Seed: 1994,
		})
		if err != nil {
			b.Fatal(err)
		}
		reweightWorkload(b, cat, opt, paperQuery) // ~1e6 cross-product pairs
	})
	b.Run("strings", func(b *testing.B) {
		reweightWorkload(b, stringCatalog(b, n), opt, stringQuery)
	})
}

// BenchmarkSliderDrag is the range-slider drag at n = 1e6: each step
// recomputes exactly the dragged predicate's leaf (the numeric age
// slider) and serves the two edit-distance leaves from the cache — the
// figure-4 drag loop over the expensive-predicate workload.
func BenchmarkSliderDrag(b *testing.B) {
	const n = 1_000_000
	cat := stringCatalog(b, n)
	opt := core.Options{GridW: 128, GridH: 128}
	s, err := session.NewSQL(cat, nil, opt, stringQuery)
	if err != nil {
		b.Fatal(err)
	}
	c, err := s.FindCond("age")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.SetRange(c, float64(25+i%10), float64(45+i%10)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDrag is one kind of interaction step, driven b.N times on a
// session of its own.
type benchDrag struct {
	name string
	step func(s *session.Session, i int) error
}

// runDrags runs every drag on a fresh session over sql at n = 2e5
// (Traffic, a 128×128 grid) and reports the engine's own stage split per
// step: select_ms (which includes root_combine_ms), scale_ms, dist_ms,
// eval_ms, total_ms, refined_ratio — the rows whose exact root value was
// computed, out of n — and pruned_ratio — the root chunks with none of
// them, out of all root chunks of the steps that ranked by selection.
// Runs that sort (FullSort) report sort_ms instead of select_ms;
// reduce_ms holds the display reduction and the placement (under
// Arrange2D, the band of combined quantiles and its ranking).
func runDrags(b *testing.B, sql string, drags []benchDrag) {
	cat, err := datagen.Traffic(200_000, 1994)
	if err != nil {
		b.Fatal(err)
	}
	runDragsOn(b, cat, core.Options{GridW: 128, GridH: 128}, sql, drags)
}

// runDragsOn is runDrags over any catalog and engine options.
func runDragsOn(b *testing.B, cat *dataset.Catalog, opt core.Options, sql string, drags []benchDrag) {
	for _, drag := range drags {
		b.Run(drag.name, func(b *testing.B) {
			s, err := session.NewSQL(cat, nil, opt, sql)
			if err != nil {
				b.Fatal(err)
			}
			var sum core.StageTimings
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := drag.step(s, i); err != nil {
					b.Fatal(err)
				}
				tm := s.Result().Timings
				sum.Select += tm.Select
				sum.RootCombine += tm.RootCombine
				sum.Scale += tm.Scale
				sum.Distances += tm.Distances
				sum.Evaluate += tm.Evaluate
				sum.Sort += tm.Sort
				sum.Reduce += tm.Reduce
				sum.Total += tm.Total
				sum.Refined += tm.Refined
				sum.Pruned += tm.Pruned
				sum.Chunks += tm.Chunks
			}
			for _, m := range []struct {
				d    time.Duration
				unit string
			}{
				{sum.Select, "select_ms"}, {sum.RootCombine, "root_combine_ms"}, {sum.Scale, "scale_ms"},
				{sum.Distances, "dist_ms"}, {sum.Evaluate, "eval_ms"}, {sum.Sort, "sort_ms"},
				{sum.Reduce, "reduce_ms"}, {sum.Total, "total_ms"},
			} {
				b.ReportMetric(m.d.Seconds()*1e3/float64(b.N), m.unit)
			}
			b.ReportMetric(float64(sum.Pruned)/float64(max(sum.Chunks, 1)), "pruned_ratio")
			b.ReportMetric(float64(sum.Refined)/float64(b.N)/float64(s.Result().N), "refined_ratio")
		})
	}
}

// BenchmarkCodePlane is the code pass alone, on one core: the code plane
// of a fresh range leaf — the distances of BETWEEN 40 AND 60 over
// Traffic's uniform c (which class a row falls into is a coin flip: an
// exact answer a fifth of the time, else a bucket at random) and over
// its ascending t (the predictor learns every branch), 200k rows. The
// kernel branches on neither, so it reads the same on both.
func BenchmarkCodePlane(b *testing.B) {
	cat, err := datagen.Traffic(200_000, 1994)
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := cat.Table("S")
	if err != nil {
		b.Fatal(err)
	}
	for _, col := range []struct{ name, attr string }{{"uniform", "c"}, {"ascending", "t"}} {
		b.Run(col.name, func(b *testing.B) {
			column, err := tbl.Column(col.attr)
			if err != nil {
				b.Fatal(err)
			}
			dists := make([]float64, column.Len())
			column.ReadFloats(dists, 0)
			for i, v := range dists {
				dists[i] = max(40-v, v-60, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				relevance.BuildCodes(dists)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, "ms/plane")
		})
	}
}

// BenchmarkCodeRange is the crossing-bucket gather of Codes.Range over
// a range leaf of the traffic table's uniform column c and of its
// ascending column t, coded as the leaf's compute codes it: keep half of
// the rows, past the exact answers, so that the counts name a bucket and
// one pass over the plane's bytes gathers its rows. On t the bucket's
// rows are two runs; on c they are spread over the whole plane.
func BenchmarkCodeRange(b *testing.B) {
	cat, err := datagen.Traffic(200_000, 1994)
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := cat.Table("S")
	if err != nil {
		b.Fatal(err)
	}
	for _, col := range []struct{ name, attr string }{{"uniform", "c"}, {"ascending", "t"}} {
		b.Run(col.name, func(b *testing.B) {
			column, err := tbl.Column(col.attr)
			if err != nil {
				b.Fatal(err)
			}
			dists := make([]float64, column.Len())
			column.ReadFloats(dists, 0)
			dmax := 0.0
			for i, v := range dists {
				dists[i] = max(40-v, v-60, 0)
				dmax = max(dmax, dists[i])
			}
			cp := relevance.NewCodes(len(dists), 0, dmax)
			cp.Encode(dists, 0, cp.Chunks())
			keep := len(dists) / 2
			if _, gathered := cp.Range(dists, keep); !gathered {
				b.Fatalf("keep %d is answered without the gather", keep)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cp.Range(dists, keep)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, "ms/range")
		})
	}
}

// BenchmarkNestedDrag is the interaction loop over the one traffic query
// with an interior node — (a AND b) OR c — the traffic the repository
// benchmark's flat two-leaf ANDs never produce. Four drags: the weight
// of the leaf outside the AND part (the part's cached vector and its
// range are reused as they are), the weight of the part itself (reused
// vector, a new keep count every step), a range inside the part (every
// step computes a leaf and fills a new part vector) and a range outside
// it (the part hits every step). A fifth, three-level, runs a query
// whose AND part holds an OR part: even steps drag a range inside the
// inner part (a leaf and both parts filled), odd steps the weight of the
// leaf outside both (both parts hit).
func BenchmarkNestedDrag(b *testing.B) {
	runDrags(b, datagen.TrafficQueries()[2], []benchDrag{
		// Predicates of the OR root are [AND(a, b), c].
		{"weight-leaf", func(s *session.Session, i int) error {
			return s.SetWeight(query.Predicates(s.Query().Where)[1], 1+float64(i%7)/2)
		}},
		{"weight-part", func(s *session.Session, i int) error {
			return s.SetWeight(query.Predicates(s.Query().Where)[0], 1+float64(i%97)/16)
		}},
		{"range-inside", func(s *session.Session, i int) error {
			return s.SetRangeByAttr("a", float64(i%1000)/10, math.Inf(1))
		}},
		{"range-outside", func(s *session.Session, i int) error {
			lo := float64(i%800) / 10
			return s.SetRangeByAttr("c", lo, lo+10)
		}},
	})
	runDrags(b, `SELECT a FROM S WHERE (a > 50 AND (b < 40 OR t > 90)) OR c BETWEEN 20 AND 30 WEIGHT 2`, []benchDrag{
		{"three-level", func(s *session.Session, i int) error {
			if i%2 == 1 {
				return s.SetWeight(query.Predicates(s.Query().Where)[1], 1+float64(i%7)/2)
			}
			return s.SetRangeByAttr("b", math.Inf(-1), float64(i%1000)/10)
		}},
	})
}

// BenchmarkFlatDrag is the step the repository benchmark's script is
// made of, one kind of step at a time: the flat two-leaf AND of
// TrafficQueries()[1] under the script's weight set and its 3-40-wide
// ranges. It is the profile harness for the root stage (`-cpuprofile` on
// /weight is RankRoot and little else).
func BenchmarkFlatDrag(b *testing.B) {
	weights := []float64{0.5, 1, 2, 3}
	runDrags(b, datagen.TrafficQueries()[1], []benchDrag{
		// Alternate the two predicates; each walks the weight set, so no
		// step restates the value it finds.
		{"weight", func(s *session.Session, i int) error {
			return s.SetWeight(query.Predicates(s.Query().Where)[i%2], weights[(2+i/2)%len(weights)])
		}},
		{"range", func(s *session.Session, i int) error {
			lo, width := float64(i*7%60), float64(3+i*5%38)
			return s.SetRangeByAttr("c", lo, lo+width)
		}},
	})
}

// BenchmarkClusteredDrag is BenchmarkFlatDrag over Traffic's ascending
// t: a range on t ANDed with b < 40, under the script's weight set and
// its 3-40-wide ranges on t. On a clustered column whole evaluator
// chunks lie past the root's cut, the traffic the code planes' per-chunk
// least codes let the filter skip.
func BenchmarkClusteredDrag(b *testing.B) {
	weights := []float64{0.5, 1, 2, 3}
	runDrags(b, `SELECT a FROM S WHERE t BETWEEN 20 AND 30 AND b < 40`, []benchDrag{
		{"weight", func(s *session.Session, i int) error {
			return s.SetWeight(query.Predicates(s.Query().Where)[i%2], weights[(2+i/2)%len(weights)])
		}},
		{"range", func(s *session.Session, i int) error {
			lo, width := float64(i*7%60), float64(3+i*5%38)
			return s.SetRangeByAttr("t", lo, lo+width)
		}},
	})
}

// BenchmarkDrag2D is a weight drag under the figure-1b arrangement at
// n = 2e5: every step ranks the root by selection like the spiral,
// counts the band of combined quantiles over the axes' sorted samples,
// ranks the band's members and places the displayed ones by the signs
// of the two axis conditions' distances.
// numeric places by two range conditions of Traffic; strings by an
// edit-distance condition and a numeric one of the person table (the
// edit distance is the costly pass). Each runs through a session, which
// serves the leaves from its cache, and as -uncached through a bare
// engine, which computes every leaf and both axes every step. The
// session's weight drag never computes an axis; its range-weight drag
// alternates a range drag on the Y axis condition, which fills a new
// axis entry, with a weight step, which reuses it.
func BenchmarkDrag2D(b *testing.B) {
	weights := []float64{0.5, 1, 2, 3}
	weight := benchDrag{"weight", func(s *session.Session, i int) error {
		return s.SetWeight(query.Predicates(s.Query().Where)[i%2], weights[(2+i/2)%len(weights)])
	}}
	traffic, err := datagen.Traffic(200_000, 1994)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name         string
		cat          *dataset.Catalog
		sql          string
		axisX, axisY string
	}{
		{"numeric", traffic, datagen.TrafficQueries()[0], "a", "b"},
		{"strings", stringCatalog(b, 200_000),
			`SELECT name FROM P WHERE name = 'meyer' USING edit AND age BETWEEN 30 AND 40`, "name", "age"},
	} {
		opt := core.Options{GridW: 128, GridH: 128, Arrangement: core.Arrange2D, AxisX: tc.axisX, AxisY: tc.axisY}
		rangeWeight := benchDrag{"range-weight", func(s *session.Session, i int) error {
			if i%2 == 1 {
				return s.SetWeight(query.Predicates(s.Query().Where)[1], weights[(2+i/2)%len(weights)])
			}
			lo, width := float64(i*7%60), float64(3+i*5%38)
			return s.SetRangeByAttr(tc.axisY, lo, lo+width)
		}}
		b.Run(tc.name, func(b *testing.B) { runDragsOn(b, tc.cat, opt, tc.sql, []benchDrag{weight, rangeWeight}) })
		b.Run(tc.name+"-uncached", func(b *testing.B) {
			eng := core.New(tc.cat, nil, opt)
			q, err := query.Parse(tc.sql)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				query.Predicates(q.Where)[i%2].SetWeight(weights[(2+i/2)%len(weights)])
				if _, err := eng.Run(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConcurrentSessions is the multi-tenant serving workload:
// M sessions on one catalog attached to a shared catalog-level cache,
// interacting concurrently. Session 1 pays the cold leaf computation;
// every later session starts warm off the shared tier (asserted via
// StageTimings.SharedHits), and steady-state interactions run fully
// cached. Reported metrics: shared-tier hit rate and resident bytes.
func BenchmarkConcurrentSessions(b *testing.B) {
	const (
		n        = 200_000
		sessions = 4
	)
	cat := interactCatalog(b, n)
	opt := core.Options{GridW: 128, GridH: 128}
	shared := core.NewSharedCache(0, 0)
	// Each pooled session carries its own interaction counter: the
	// weight alternation must be per-session (a per-goroutine counter
	// would let interleaved goroutines repeat a session's current
	// weight, degenerating iterations into no-op recalcs).
	type benchSession struct {
		s *session.Session
		i int
	}
	pool := make(chan *benchSession, sessions)
	for i := 0; i < sessions; i++ {
		s, err := session.NewSQLSharedCtx(context.Background(), cat, nil, opt, interactQuery, shared)
		if err != nil {
			b.Fatal(err)
		}
		tm := s.Result().Timings
		if i == 0 {
			if tm.SharedHits != 0 {
				b.Fatalf("first session warm-started: %+v", tm)
			}
		} else if tm.SharedHits == 0 || tm.CacheHits != tm.SharedHits || tm.CacheMisses != 0 {
			// The acceptance property of the shared tier: sessions after
			// the first serve every leaf across sessions, visible in the
			// run's cache attribution.
			b.Fatalf("session %d did not warm-start off the shared tier: %+v", i, tm)
		}
		pool <- &benchSession{s: s}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			bs := <-pool
			pred := query.Predicates(bs.s.Query().Where)[0]
			// Alternate weights so every iteration really recalculates.
			if err := bs.s.SetWeight(pred, float64(2+bs.i%2)); err != nil {
				b.Error(err)
			}
			bs.i++
			pool <- bs
		}
	})
	b.StopTimer()
	st := shared.Stats()
	total := st.Hits + st.Misses
	if total > 0 {
		b.ReportMetric(float64(st.Hits)/float64(total), "shared-hit-rate")
	}
	b.ReportMetric(float64(st.Bytes)/(1<<20), "shared-MiB")
}

// BenchmarkSortRanking isolates the ranking stage the paper names as
// the dominating cost: the full O(n log n) sort against the
// selection-based partial ranking that materializes only the display
// budget (a 128×128 grid plus the gap-heuristic margin).
func BenchmarkSortRanking(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	dists := make([]float64, 300000)
	for i := range dists {
		dists[i] = rng.Float64() * 255
	}
	const displayBudget = 128*128 + (128*128)/4 + 32
	b.Run("fullsort", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			reduce.SortWithIndex(dists)
		}
	})
	b.Run("select-k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			topk.SelectKWithIndex(dists, displayBudget)
		}
	})
}

// --- Claim C2: display capacity (pure arithmetic; bench the window
// fill at the paper's display budget) ---------------------------------

func BenchmarkCapacityWindowFill(b *testing.B) {
	const w, h = 1024, 1280 / 4 // one of four windows on the paper display
	cm := colormap.VisDB(colormap.DefaultLevels)
	cells := arrange.Spiral(w, h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		win := render.NewWindow("cap", w, h, 1)
		for k, cell := range cells {
			win.SetCell(cell, cm.At(k%256))
		}
	}
}

// --- Claim C3: hot-spot recall workload ------------------------------

func BenchmarkHotSpotRecall(b *testing.B) {
	tbl, truth, err := datagen.CADParts(datagen.CADConfig{Parts: 2000, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	cat := dataset.NewCatalog()
	if err := cat.AddTable(tbl); err != nil {
		b.Fatal(err)
	}
	eng := core.New(cat, nil, core.Options{GridW: 48, GridH: 48})
	q, err := query.Parse(datagen.CADQuerySQL(truth, 0))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Claim C4: approximate join scoring ------------------------------

func BenchmarkApproxJoin(b *testing.B) {
	cat, _, err := datagen.Environmental(datagen.EnvConfig{Hours: 480, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	w, err := cat.Table("Weather")
	if err != nil {
		b.Fatal(err)
	}
	p, err := cat.Table("Air-Pollution")
	if err != nil {
		b.Fatal(err)
	}
	conn, err := cat.Connection("with-time-diff")
	if err != nil {
		b.Fatal(err)
	}
	pairs := join.Pairs(w.NumRows(), p.NumRows(), 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := join.ConnDistancesRange(conn, w, p, pairs, make([]float64, len(pairs)), 0, len(pairs), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations --------------------------------------------------------

func BenchmarkAblationNormalize(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	dists := make([]float64, 100000)
	for i := range dists {
		dists[i] = rng.ExpFloat64() * 10
	}
	b.Run("reduction-first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			relevance.Normalize(dists, 30000)
		}
	})
	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			relevance.Normalize(dists, 0)
		}
	})
}

func BenchmarkAblationORMean(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	m, n := 3, 100000
	dists := make([][]float64, m)
	for j := range dists {
		dists[j] = make([]float64, n)
		for i := range dists[j] {
			dists[j][i] = rng.Float64() * 255
		}
	}
	weights := []float64{1, 2, 0.5}
	b.Run("geometric", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := relevance.CombineOr(dists, weights, relevance.WeightNormalized); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("arithmetic", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := relevance.CombineAnd(dists, weights, relevance.WeightNormalized); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAblationReduce(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	dists := make([]float64, 100000)
	for i := range dists {
		if i < 20000 {
			dists[i] = 1 + 0.1*rng.NormFloat64()
		} else {
			dists[i] = 100 + rng.NormFloat64()
		}
	}
	sorted, _ := reduce.SortWithIndex(dists)
	b.Run("quantile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := reduce.DisplayFraction(25000, len(sorted), 0)
			reduce.QuantileCut(len(sorted), p)
		}
	})
	b.Run("gap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reduce.GapCut(sorted, reduce.GapOptions{RMin: 10000, RMax: 25000})
		}
	})
}

// --- Substrate micro-benchmarks ---------------------------------------

func BenchmarkSpiralGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		arrange.Spiral(256, 256)
	}
}

func BenchmarkColormapLookup(b *testing.B) {
	cm := colormap.VisDB(colormap.DefaultLevels)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cm.AtNorm(float64(i%1000) / 1000)
	}
}

func BenchmarkRenderComposePNG(b *testing.B) {
	wins := make([]*render.Window, 4)
	cm := colormap.VisDB(256)
	for i := range wins {
		wins[i] = render.NewWindow(fmt.Sprintf("w%d", i), 128, 128, 1)
		for k, cell := range arrange.Spiral(128, 128) {
			wins[i].SetCell(cell, cm.At(k%256))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		render.Compose(wins, 2, 6)
	}
}

// --- Experiment-harness smoke benchmark --------------------------------

// BenchmarkExperimentSuite times the full figure/claim regeneration
// (without image output), which is what CI gates on.
func BenchmarkExperimentSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reports, err := experiments.All("")
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range reports {
			if !r.Pass {
				b.Fatalf("experiment %s failed", r.ID)
			}
		}
	}
}
