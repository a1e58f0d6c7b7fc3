package join

import (
	"math"
	"testing"
	"time"

	"repro/internal/dataset"
)

func mkTables(t *testing.T) (*dataset.Table, *dataset.Table) {
	t.Helper()
	lt, err := dataset.NewTable("L", dataset.Schema{
		{Name: "ts", Kind: dataset.KindTime},
		{Name: "v", Kind: dataset.KindFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := dataset.NewTable("R", dataset.Schema{
		{Name: "ts", Kind: dataset.KindTime},
		{Name: "v", Kind: dataset.KindFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(1994, 2, 14, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 4; i++ {
		if err := lt.AppendRow(dataset.Time(t0.Add(time.Duration(i)*time.Hour)), dataset.Float(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		// Right rows offset by 30 minutes: equality join finds nothing.
		if err := rt.AppendRow(dataset.Time(t0.Add(time.Duration(i)*time.Hour+30*time.Minute)), dataset.Float(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	return lt, rt
}

func timeConn() dataset.Connection {
	return dataset.Connection{
		Name: "same-time", Left: "L", Right: "R",
		LeftAttr: "ts", RightAttr: "ts",
		Metric: dataset.MetricTime, Mode: dataset.ModeEqual,
	}
}

func TestPairsFull(t *testing.T) {
	ps := Pairs(3, 2, 0)
	if len(ps) != 6 {
		t.Fatalf("pairs: %d", len(ps))
	}
	if ps[0] != (Pair{0, 0}) || ps[5] != (Pair{2, 1}) {
		t.Fatalf("order: %v", ps)
	}
	if Pairs(0, 5, 0) != nil || Pairs(5, 0, 0) != nil {
		t.Error("degenerate dims")
	}
}

func TestPairsCapped(t *testing.T) {
	ps := Pairs(100, 100, 1000)
	if len(ps) > 1000 || len(ps) < 900 {
		t.Fatalf("capped size: %d", len(ps))
	}
	seen := make(map[Pair]bool)
	for _, p := range ps {
		if p.Left < 0 || p.Left >= 100 || p.Right < 0 || p.Right >= 100 {
			t.Fatalf("out of range: %+v", p)
		}
		if seen[p] {
			t.Fatalf("duplicate: %+v", p)
		}
		seen[p] = true
	}
	// Deterministic.
	ps2 := Pairs(100, 100, 1000)
	for i := range ps {
		if ps[i] != ps2[i] {
			t.Fatal("sampling must be deterministic")
		}
	}
	// Spread: both low and high left indices sampled.
	if ps[0].Left != 0 || ps[len(ps)-1].Left < 90 {
		t.Fatalf("sampling not spread: first %+v last %+v", ps[0], ps[len(ps)-1])
	}
}

func TestConnDistances(t *testing.T) {
	lt, rt := mkTables(t)
	pairs := Pairs(lt.NumRows(), rt.NumRows(), 0)
	ds := make([]float64, len(pairs))
	if err := ConnDistancesRange(timeConn(), lt, rt, pairs, ds, 0, len(ds), nil); err != nil {
		t.Fatal(err)
	}
	if len(ds) != 12 {
		t.Fatalf("len: %d", len(ds))
	}
	// Pair (0,0): 30 minutes apart = 1800 s.
	if ds[0] != 1800 {
		t.Fatalf("pair(0,0): %v", ds[0])
	}
	// Pair (1,0): 30 minutes as well (1h vs 0h30).
	if ds[rt.NumRows()] != 1800 {
		t.Fatalf("pair(1,0): %v", ds[rt.NumRows()])
	}
}

func TestEquiFindsNothingOnOffsetData(t *testing.T) {
	// The paper's motivating scenario: measurement intervals differ, so
	// the exact time-equality join is empty while the approximate join
	// has near matches.
	lt, rt := mkTables(t)
	pairs, err := Equi(lt, rt, "ts", "ts")
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 0 {
		t.Fatalf("equi join on offset timestamps should be empty: %v", pairs)
	}
	// Value columns do match exactly.
	pairs, err = Equi(lt, rt, "v", "v")
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 3 {
		t.Fatalf("v equi join: %v", pairs)
	}
	if _, err := Equi(lt, rt, "nope", "v"); err == nil {
		t.Error("missing column should fail")
	}
}

func TestEquiSkipsNulls(t *testing.T) {
	lt, _ := dataset.NewTable("L", dataset.Schema{{Name: "x", Kind: dataset.KindFloat}})
	rt, _ := dataset.NewTable("R", dataset.Schema{{Name: "x", Kind: dataset.KindFloat}})
	_ = lt.AppendRow(dataset.Null(dataset.KindFloat))
	_ = lt.AppendRow(dataset.Float(1))
	_ = rt.AppendRow(dataset.Null(dataset.KindFloat))
	_ = rt.AppendRow(dataset.Float(1))
	pairs, err := Equi(lt, rt, "x", "x")
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0] != (Pair{1, 1}) {
		t.Fatalf("null handling: %v", pairs)
	}
}

func TestPartnerCounts(t *testing.T) {
	lt, rt := mkTables(t)
	counts := make([]int, lt.NumRows())
	if err := PartnerCountsRange(timeConn(), lt, rt, 3600, counts, 0, len(counts), nil); err != nil {
		t.Fatal(err)
	}
	// Left row 0 (00:00): right rows at 00:30 (1800s) and 01:30 (5400s)
	// → 1 partner within 3600s. Left row 1 (01:00): 00:30 and 01:30 both
	// 1800s → 2 partners.
	if counts[0] != 1 || counts[1] != 2 {
		t.Fatalf("counts: %v", counts)
	}
	ds := PartnerDistances(counts)
	if ds[1] != 0.5 {
		t.Fatalf("partner distances: %v", ds)
	}
	// A left row with no partners is infinitely distant.
	if counts[3] != 1 { // 03:00 vs 02:30 → 1800s
		t.Fatalf("counts[3]: %v", counts)
	}
	zero := make([]int, lt.NumRows())
	if err := PartnerCountsRange(timeConn(), lt, rt, 60, zero, 0, len(zero), nil); err != nil {
		t.Fatal(err)
	}
	dz := PartnerDistances(zero)
	if !math.IsInf(dz[0], 1) {
		t.Fatalf("no partners: %v", dz[0])
	}
}

func TestMinDistancePerLeft(t *testing.T) {
	lt, rt := mkTables(t)
	ds, err := MinDistancePerLeft(timeConn(), lt, rt, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every left row is 30 min from its nearest right row.
	for i, d := range ds {
		if d != 1800 {
			t.Fatalf("row %d: %v", i, d)
		}
	}
	// Inner condition distances blend in (arithmetic mean) and can
	// redirect the minimum.
	inner := []float64{1e9, 0, 0}
	ds, err = MinDistancePerLeft(timeConn(), lt, rt, inner, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Left row 0: right 0 blended (1800+1e9)/2 huge; right 1 at 5400s
	// blended (5400+0)/2 = 2700 → min 2700.
	if ds[0] != 2700 {
		t.Fatalf("blended min: %v", ds[0])
	}
	// NaN inner distances disqualify rows.
	inner = []float64{math.NaN(), math.NaN(), math.NaN()}
	ds, _ = MinDistancePerLeft(timeConn(), lt, rt, inner, nil)
	if !math.IsNaN(ds[0]) {
		t.Fatalf("all disqualified: %v", ds[0])
	}
	// Shape check.
	if _, err := MinDistancePerLeft(timeConn(), lt, rt, []float64{1}, nil); err == nil {
		t.Error("wrong innerDist length should fail")
	}
}

// TestPairsOverflow: nLeft·nRight beyond the int range used to wrap
// negative and attempt a negative-capacity allocation before the
// maxPairs cap applied; the 128-bit product must subsample instead.
func TestPairsOverflow(t *testing.T) {
	const big = 3_100_000_000 // untyped: the pairwise product ≈ 9.6e18 > MaxInt64
	if math.MaxInt < big {
		t.Skip("overflow regime requires 64-bit int")
	}
	big64 := int64(big)
	nl, nr := int(big64), int(big64)
	ps := Pairs(nl, nr, 100)
	if len(ps) == 0 || len(ps) > 100 {
		t.Fatalf("overflow regime sample size: %d", len(ps))
	}
	for i, p := range ps {
		if p.Left < 0 || p.Left >= nl || p.Right < 0 || p.Right >= nr {
			t.Fatalf("pair %d out of range: %+v", i, p)
		}
	}
	// The stride walks the linear index monotonically.
	for i := 1; i < len(ps); i++ {
		if ps[i].Left < ps[i-1].Left ||
			(ps[i].Left == ps[i-1].Left && ps[i].Right <= ps[i-1].Right) {
			t.Fatalf("sample not strictly increasing at %d: %+v -> %+v", i, ps[i-1], ps[i])
		}
	}
	// Spread across the left relation, not clustered at the start.
	if ps[len(ps)-1].Left < nl/2 {
		t.Fatalf("sample not spread: last %+v", ps[len(ps)-1])
	}
	// An uncapped call on an overflowing product must still bound the
	// result rather than attempting an impossible allocation.
	if got := Pairs(nl, nr, 0); len(got) == 0 || len(got) > 1<<20 {
		t.Fatalf("uncapped overflow size: %d", len(got))
	}
}

// TestPairsCapEqualsTotal: the boundary where the product exactly equals
// the cap materializes everything.
func TestPairsCapEqualsTotal(t *testing.T) {
	ps := Pairs(4, 25, 100)
	if len(ps) != 100 {
		t.Fatalf("len = %d, want full 100", len(ps))
	}
}
