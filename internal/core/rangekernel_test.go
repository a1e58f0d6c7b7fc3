package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/join"
	"repro/internal/query"
	"repro/internal/relevance"
)

// refRangeLeaf is what numericCond must write for a range condition,
// element by element through the exported definitions: distance.ToRange
// and ToRangeSigned, except that a value on a strict operator's own
// bound gets the small positive distance max-finite/128 (1 when that is
// 0), negative on the signed side below the range. zeros counts the
// exact +0 entries of raw.
func refRangeLeaf(c *query.Cond, vals []float64) (raw, signed []float64, zeros int) {
	lo, hi, _, err := numericRange(c)
	if err != nil {
		panic(err)
	}
	raw, signed = make([]float64, len(vals)), make([]float64, len(vals))
	var boundary []int
	mx := 0.0
	for i, v := range vals {
		if (c.Op == query.OpGt && v == lo) || (c.Op == query.OpLt && v == hi) {
			boundary = append(boundary, i)
			continue
		}
		raw[i], signed[i] = distance.ToRange(v, lo, hi), distance.ToRangeSigned(v, lo, hi)
		if raw[i] > mx && !math.IsInf(raw[i], 1) {
			mx = raw[i]
		}
	}
	eps := mx / 128
	if eps == 0 {
		eps = 1
	}
	for _, i := range boundary {
		raw[i], signed[i] = eps, eps
		if c.Op == query.OpGt {
			signed[i] = -eps
		}
	}
	for _, d := range raw {
		if math.Float64bits(d) == 0 {
			zeros++
		}
	}
	return raw, signed, zeros
}

// checkLeafRanges holds the normalization ranges le's code plane answers
// to NormRange over its vector bit for bit, at the keeps around its zeros
// exact answers (a range leaf's kernel codes over [0, its maximum]), at
// half of it and at all of it.
func checkLeafRanges(t testing.TB, what string, le leafEntry, zeros int) {
	t.Helper()
	if le.codes == nil {
		t.Fatalf("%s: a leaf without a code plane", what)
	}
	for _, keep := range []int{1, zeros - 1, zeros, zeros + 1, len(le.raw) / 2, len(le.raw)} {
		got, _ := le.codes.Range(le.raw, keep)
		want := relevance.NormRange(le.raw, keep)
		if math.Float64bits(got.DMin) != math.Float64bits(want.DMin) || math.Float64bits(got.DMax) != math.Float64bits(want.DMax) ||
			got.Kept != want.Kept || got.NoFinite != want.NoFinite {
			t.Fatalf("%s: keep %d: the plane's range %+v, NormRange %+v", what, keep, got, want)
		}
	}
}

// rangeOps are the operators the kernel serves.
var rangeOps = []query.Op{query.OpBetween, query.OpLt, query.OpLe, query.OpGt, query.OpGe, query.OpEq}

// rangeCond builds attr op a (BETWEEN a AND b).
func rangeCond(attr string, op query.Op, a, b float64) *query.Cond {
	c := &query.Cond{Attr: attr, Op: op, Value: dataset.Float(a)}
	if op == query.OpBetween {
		c.Lo, c.Hi = dataset.Float(a), dataset.Float(b)
	}
	return c
}

// checkRangeLeaf computes c's leaf over space without and with the
// signed distances the 2D arrangement asks for, serially and on three
// workers, and holds the leaf's raw distances and the axis fill's signed
// ones (its entry's only vector) to refRangeLeaf over vals — the
// condition's value of every item — bit for bit, and the ranges the
// leaf's code plane answers around its exact answers to NormRange's. It
// returns the segments the serial pass skipped.
func checkRangeLeaf(t testing.TB, cat *dataset.Catalog, space *itemSpace, c *query.Cond, attr query.BoundAttr, vals []float64) (skipped int) {
	t.Helper()
	raw, signed, zeros := refRangeLeaf(c, vals)
	same := func(what string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s %s: %d entries, want %d", c.Label(), what, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s %s[%d] (value %v) = %v [%#x], want %v [%#x]", c.Label(), what, i, vals[i],
					got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	e := New(cat, nil, Options{})
	skipped = -1
	for _, withSigned := range []bool{false, true} {
		for _, workers := range []int{1, 3} {
			e.workers = workers
			var gotSigned []float64
			if withSigned {
				gotSigned = make([]float64, len(vals))
			}
			le, segsSkipped, _, err := e.condData(c, attr, space, nil, gotSigned)
			if err != nil {
				t.Fatal(err)
			}
			if withSigned {
				// An axis fill writes one vector: its entry's is the signed one.
				same("signed", gotSigned, signed)
				if len(le.raw) != len(gotSigned) || len(le.raw) > 0 && &le.raw[0] != &gotSigned[0] {
					t.Fatalf("%s: an axis fill's entry is not its signed vector", c.Label())
				}
			} else {
				same("raw", le.raw, raw)
				checkLeafRanges(t, c.Label(), le, zeros)
			}
			if skipped >= 0 && segsSkipped != skipped {
				t.Fatalf("%s (workers %d, signed %v): skipped %d segments, another pass %d", c.Label(), workers, withSigned, segsSkipped, skipped)
			}
			skipped = segsSkipped
		}
	}
	return skipped
}

// awkwardValues mixes uniform values around [0, 100] with the values a
// comparison can get wrong: NaN, ±Inf, ±0, integers (which the bounds
// below hit exactly) and their float neighbours.
func awkwardValues(rng *rand.Rand, n int) []float64 {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.MaxFloat64, -math.MaxFloat64, 5e-324, math.Nextafter(40, 0), math.Nextafter(60, 100)}
	vals := make([]float64, n)
	for i := range vals {
		switch r := rng.Intn(10); {
		case r == 0:
			vals[i] = special[rng.Intn(len(special))]
		case r < 3:
			vals[i] = float64(rng.Intn(12) * 10)
		default:
			vals[i] = rng.Float64()*120 - 10
		}
	}
	return vals
}

// rangeBounds are the (a, b) pairs every operator is run with: ordinary,
// lo == hi, inverted, on ±0, open-ended by an infinite literal, NaN.
var rangeBounds = [][2]float64{
	{40, 60}, {50, 50}, {60, 40}, {0, 0}, {math.Copysign(0, -1), 10},
	{math.Inf(-1), 20}, {80, math.Inf(1)}, {math.Inf(1), math.Inf(1)}, {math.NaN(), 30}, {-5, math.NaN()},
}

// singleTable builds table name with float column x over vals.
func singleTable(t testing.TB, name string, vals []float64) (*dataset.Catalog, *dataset.Table) {
	t.Helper()
	tbl, err := dataset.NewTable(name, dataset.Schema{{Name: "x", Kind: dataset.KindFloat}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if err := tbl.AppendRow(dataset.Float(v)); err != nil {
			t.Fatal(err)
		}
	}
	cat := dataset.NewCatalog()
	if err := cat.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	return cat, tbl
}

// TestRangeKernelMatchesToRange holds the branch-free range-distance
// pass to distance.ToRange / ToRangeSigned: in memory with nulls, NaN,
// ±Inf and ±0, every operator at every bound shape (strict boundary rows
// included), over a pair space, over an int column, and over a
// file-backed catalog whose pushdown skips segments the kernel never
// sees. Raw, Signed and Zeros must match bit for bit.
func TestRangeKernelMatchesToRange(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	vals := awkwardValues(rng, 3*dataset.SegmentSize+77)
	cat, tbl := singleTable(t, "R", vals)
	space := &itemSpace{tables: []*dataset.Table{tbl}, n: len(vals)}
	x := query.BoundAttr{Table: "R", Attr: "x", Kind: dataset.KindFloat}
	for _, b := range rangeBounds {
		for _, op := range rangeOps {
			checkRangeLeaf(t, cat, space, rangeCond("x", op, b[0], b[1]), x, vals)
		}
	}

	// OpNe and OpIn are other distance functions, coded over their
	// vectors' extremes.
	e := New(cat, nil, Options{})
	for _, c := range []*query.Cond{
		{Attr: "x", Op: query.OpNe, Value: dataset.Float(50)},
		{Attr: "x", Op: query.OpIn, List: []dataset.Value{dataset.Float(10), dataset.Float(50)}},
	} {
		le, _, _, err := e.condData(c, x, space, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkLeafRanges(t, c.Label(), le, 0)
	}

	// Nulls read as NaN; an int column coerces exactly.
	it, err := dataset.NewTable("I", dataset.Schema{{Name: "i", Kind: dataset.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	var ivals []float64
	for r := 0; r < 5000; r++ {
		if r%97 == 3 {
			if err := it.AppendRow(dataset.Null(dataset.KindInt)); err != nil {
				t.Fatal(err)
			}
			ivals = append(ivals, math.NaN())
			continue
		}
		v := int64(rng.Intn(120) - 10)
		if err := it.AppendRow(dataset.Int(v)); err != nil {
			t.Fatal(err)
		}
		ivals = append(ivals, float64(v))
	}
	icat := dataset.NewCatalog()
	if err := icat.AddTable(it); err != nil {
		t.Fatal(err)
	}
	for _, op := range rangeOps {
		checkRangeLeaf(t, icat, &itemSpace{tables: []*dataset.Table{it}, n: len(ivals)},
			rangeCond("i", op, 40, 60), query.BoundAttr{Table: "I", Attr: "i", Kind: dataset.KindInt}, ivals)
	}

	// A pair space reads each item's value through its row of the
	// predicate's own table.
	lvals, rvals := awkwardValues(rng, 61), awkwardValues(rng, 83)
	_, lt := singleTable(t, "L", lvals)
	_, rt := singleTable(t, "Q", rvals)
	pcat := dataset.NewCatalog()
	for _, tb := range []*dataset.Table{lt, rt} {
		if err := pcat.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	pairs := join.Pairs(len(lvals), len(rvals), 0)
	pspace := &itemSpace{tables: []*dataset.Table{lt, rt}, pairs: pairs, n: len(pairs)}
	for _, side := range []struct {
		table string
		vals  []float64
		row   func(join.Pair) int
	}{
		{"L", lvals, func(p join.Pair) int { return p.Left }},
		{"Q", rvals, func(p join.Pair) int { return p.Right }},
	} {
		items := make([]float64, len(pairs))
		for i, p := range pairs {
			items[i] = side.vals[side.row(p)]
		}
		for _, op := range rangeOps {
			checkRangeLeaf(t, pcat, pspace, rangeCond("x", op, 40, 60),
				query.BoundAttr{Table: side.table, Attr: "x", Kind: dataset.KindFloat}, items)
		}
	}

	// A file-backed catalog: the pushdown skips whole segments of the
	// clustered column (their zero fill is zero block too) and never the
	// one with nulls.
	mem := clusteredCatalog(t, 5*dataset.SegmentSize+301)
	path := filepath.Join(t.TempDir(), "c.vseg")
	if _, err := dataset.WriteCatalogFile(path, mem); err != nil {
		t.Fatal(err)
	}
	disk := openSegFile(t, path, 1<<16)
	dt, err := disk.Table("C")
	if err != nil {
		t.Fatal(err)
	}
	mt, err := mem.Table("C")
	if err != nil {
		t.Fatal(err)
	}
	dspace := &itemSpace{tables: []*dataset.Table{dt}, n: dt.NumRows()}
	skipped := 0
	for _, attr := range []string{"t", "n"} {
		col, err := mt.FloatsOf(attr)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range rangeOps {
			for _, b := range [][2]float64{{20, 70}, {50, 50}, {10, 95}} {
				skipped += checkRangeLeaf(t, disk, dspace, rangeCond(attr, op, b[0], b[1]),
					query.BoundAttr{Table: "C", Attr: attr, Kind: dataset.KindFloat}, col)
			}
		}
	}
	if skipped == 0 {
		t.Fatal("the pushdown skipped no segment; the zero fill went unchecked")
	}
}

// FuzzRangeKernel gives the fuzzer the column and the bounds: the first
// two float64s of the input are the operator's operands, the rest the
// column; op picks the operator.
func FuzzRangeKernel(f *testing.F) {
	rng := rand.New(rand.NewSource(29))
	for _, b := range rangeBounds {
		for oi := range rangeOps {
			data := binary.LittleEndian.AppendUint64(nil, math.Float64bits(b[0]))
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(b[1]))
			for _, v := range append(awkwardValues(rng, 40), b[0], b[1]) {
				data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
			}
			f.Add(data, uint8(oi))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, op uint8) {
		var vals []float64
		for ; len(data) >= 8; data = data[8:] {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		if len(vals) < 3 {
			return
		}
		cat, tbl := singleTable(t, "R", vals[2:])
		checkRangeLeaf(t, cat, &itemSpace{tables: []*dataset.Table{tbl}, n: len(vals) - 2},
			rangeCond("x", rangeOps[int(op)%len(rangeOps)], vals[0], vals[1]),
			query.BoundAttr{Table: "R", Attr: "x", Kind: dataset.KindFloat}, vals[2:])
	})
}

// BenchmarkRangeDistances is a fresh range leaf's compute alone — what
// a slider drag to a range nobody asked for before pays in the distance
// stage — on Traffic's uniform c (which side of the range a row falls on
// is a coin flip) and its ascending t (the branch predictor learns it),
// 200k rows, a 20-wide BETWEEN. A data-oblivious pass reads the same on
// both.
func BenchmarkRangeDistances(b *testing.B) {
	cat, err := datagen.Traffic(200_000, 1994)
	if err != nil {
		b.Fatal(err)
	}
	tbl, err := cat.Table("S")
	if err != nil {
		b.Fatal(err)
	}
	e := withWorkers(New(cat, nil, Options{}), 1) // the kernel on one core
	space := &itemSpace{tables: []*dataset.Table{tbl}, n: tbl.NumRows()}
	for _, col := range []struct{ name, attr string }{{"uniform", "c"}, {"ascending", "t"}} {
		b.Run(col.name, func(b *testing.B) {
			c := rangeCond(col.attr, query.OpBetween, 40, 60)
			attr := query.BoundAttr{Table: "S", Attr: col.attr, Kind: dataset.KindFloat}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := e.condData(c, attr, space, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, "ms/leaf")
		})
	}
}
