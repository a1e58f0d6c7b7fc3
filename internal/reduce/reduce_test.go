package reduce

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestDisplayFraction(t *testing.T) {
	// Figure 4's panel: 68,376 objects, 27,224 displayed ≈ 40 %. With a
	// 1,024×1,280 display and 3 predicates + 1 overall window + UI
	// overhead, the paper displays 27,224 items; check our formula gives
	// a fraction in that regime for the raw display budget.
	p := DisplayFraction(1024*1280, 68376, 3)
	if p < 0.99 { // 1.3M pixels / 4 windows ≈ 327k > 68k items → all fit
		t.Errorf("p = %v; full display should saturate at 1", p)
	}
	// A 256×256-per-window budget: r = 4·65536 over 4 windows.
	p = DisplayFraction(4*65536, 68376, 3)
	want := float64(4*65536) / (68376 * 4)
	if math.Abs(p-want) > 1e-12 {
		t.Errorf("p = %v, want %v", p, want)
	}
	if DisplayFraction(0, 100, 2) != 0 || DisplayFraction(100, 0, 2) != 0 {
		t.Error("degenerate inputs")
	}
	if DisplayFraction(100, 10, -5) != 1 {
		t.Error("negative predicate count should clamp")
	}
}

func TestPixelBudget(t *testing.T) {
	if PixelBudget(1024, 4) != 256 {
		t.Error("4 px per item")
	}
	if PixelBudget(1024, 0) != 1024 {
		t.Error("degenerate factor clamps to 1")
	}
}

func TestQuantileCut(t *testing.T) {
	if QuantileCut(100, 0.25) != 25 {
		t.Errorf("got %d", QuantileCut(100, 0.25))
	}
	if QuantileCut(0, 0.5) != 0 || QuantileCut(10, 0) != 0 || QuantileCut(10, 1) != 10 {
		t.Error("bounds")
	}
}

func TestSignedQuantileCut(t *testing.T) {
	// Symmetric signed distances: band should straddle zero.
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i - 50) // -50..49
	}
	lo, hi := SignedQuantileCut(sorted, 0.2)
	if hi-lo < 18 || hi-lo > 22 {
		t.Fatalf("band size %d, want ≈20", hi-lo)
	}
	if !(sorted[lo] < 0 && sorted[hi-1] >= 0) {
		t.Errorf("band [%v, %v] should straddle zero", sorted[lo], sorted[hi-1])
	}
	// All positive: band starts at the bottom.
	pos := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	lo, hi = SignedQuantileCut(pos, 0.3)
	if lo != 0 || hi != 3 {
		t.Errorf("all-positive band [%d,%d)", lo, hi)
	}
	// Degenerate cases.
	if lo, hi := SignedQuantileCut(nil, 0.5); lo != 0 || hi != 0 {
		t.Error("empty")
	}
	if lo, hi := SignedQuantileCut(pos, 0); lo != 0 || hi != 0 {
		t.Error("p=0")
	}
	if lo, hi := SignedQuantileCut(pos, 1); lo != 0 || hi != len(pos) {
		t.Error("p=1")
	}
}

func TestGapCutFindsGap(t *testing.T) {
	// Two groups: 200 values near 1, 100 values near 100 (figure 2b).
	var dists []float64
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		dists = append(dists, 1+0.1*rng.Float64())
	}
	for i := 0; i < 100; i++ {
		dists = append(dists, 100+0.1*rng.Float64())
	}
	sort.Float64s(dists)
	cut := GapCut(dists, GapOptions{RMin: 50, RMax: 280, Z: 10})
	if cut < 195 || cut > 205 {
		t.Fatalf("cut = %d, want ≈200 (the inter-group gap)", cut)
	}
	// All displayed values come from the lower group.
	for i := 0; i < cut; i++ {
		if dists[i] > 50 {
			t.Fatalf("item %d (%v) from the upper group displayed", i, dists[i])
		}
	}
}

func TestGapCutBounds(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := GapCut(nil, GapOptions{}); got != 0 {
		t.Errorf("empty: %d", got)
	}
	got := GapCut(sorted, GapOptions{RMin: 3, RMax: 3})
	if got != 3 {
		t.Errorf("rmin==rmax: %d", got)
	}
	got = GapCut(sorted, GapOptions{RMin: -5, RMax: 1000})
	if got < 1 || got > len(sorted) {
		t.Errorf("clamped: %d", got)
	}
	// Defaults: z derived from range.
	got = GapCut(sorted, GapOptions{})
	if got < 1 || got > len(sorted) {
		t.Errorf("defaults: %d", got)
	}
}

// Property: GapCut always returns a count within [min(RMin,n), min(RMax,n)].
func TestGapCutRangeProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		rmin := int(a)%len(xs) + 1
		rmax := rmin + int(b)%len(xs)
		cut := GapCut(xs, GapOptions{RMin: rmin, RMax: rmax})
		lo := min(rmin, len(xs))
		hi := min(rmax, len(xs))
		return cut >= lo && cut <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGapCutIncrementalMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	dists := make([]float64, 500) // two unit normals at 0 and 50, equally likely
	for i := range dists {
		mean := 0.0
		if rng.Float64() >= 0.5 {
			mean = 50
		}
		dists[i] = mean + rng.NormFloat64()
	}
	sort.Float64s(dists)
	opt := GapOptions{RMin: 20, RMax: 480, Z: 15}
	got := GapCut(dists, opt)
	// Naive recomputation of the same statistic.
	bestI, bestS := opt.RMin, math.Inf(-1)
	for i := opt.RMin; i <= opt.RMax && i < len(dists); i++ {
		var s float64
		lo, hi := max(0, i-opt.Z), min(len(dists)-1, i+opt.Z)
		for j := lo; j <= hi; j++ {
			s += dists[i] - dists[j]
		}
		if s > bestS {
			bestS, bestI = s, i
		}
	}
	if got != bestI {
		t.Fatalf("incremental %d != naive %d", got, bestI)
	}
}

func TestCutUnimodalUsesQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dists := make([]float64, 2000)
	for i := range dists {
		dists[i] = rng.ExpFloat64()
	}
	sort.Float64s(dists)
	r := 500
	got := Cut(dists, r, 0)
	want := QuantileCut(len(dists), DisplayFraction(r, len(dists), 0))
	if got != want {
		t.Fatalf("unimodal cut %d, want quantile cut %d", got, want)
	}
}

func TestCutBimodalPrefersGap(t *testing.T) {
	// Lower group of 300 around 1, upper group of 1700 around 100. The
	// quantile cut for a 600-value budget would slice into the upper
	// group; the gap heuristic should stop at the lower group edge.
	rng := rand.New(rand.NewSource(12))
	var dists []float64
	for i := 0; i < 300; i++ {
		dists = append(dists, 1+0.2*rng.NormFloat64())
	}
	for i := 0; i < 1700; i++ {
		dists = append(dists, 100+0.2*rng.NormFloat64())
	}
	sort.Float64s(dists)
	got := Cut(dists, 600, 0)
	if got > 320 {
		t.Fatalf("bimodal cut %d should stop near the lower group (≈300)", got)
	}
	if got < 150 {
		t.Fatalf("bimodal cut %d suspiciously small", got)
	}
}

func TestCutTiny(t *testing.T) {
	if got := Cut([]float64{1, 2}, 1, 0); got != 1 {
		t.Errorf("tiny: %d", got)
	}
	if got := Cut(nil, 10, 0); got != 0 {
		t.Errorf("empty: %d", got)
	}
}

func TestSortWithIndex(t *testing.T) {
	dists := []float64{3, math.NaN(), 1, 2}
	sorted, idx := SortWithIndex(dists)
	if sorted[0] != 1 || sorted[1] != 2 || sorted[2] != 3 || !math.IsNaN(sorted[3]) {
		t.Fatalf("sorted: %v", sorted)
	}
	if idx[0] != 2 || idx[1] != 3 || idx[2] != 0 || idx[3] != 1 {
		t.Fatalf("idx: %v", idx)
	}
	// Original untouched.
	if dists[0] != 3 {
		t.Error("input mutated")
	}
}

// Property: SortWithIndex returns a permutation and ascending non-NaN
// prefix.
func TestSortWithIndexProperty(t *testing.T) {
	f := func(raw []float64) bool {
		sorted, idx := SortWithIndex(raw)
		if len(sorted) != len(raw) || len(idx) != len(raw) {
			return false
		}
		seen := make([]bool, len(raw))
		for i, j := range idx {
			if j < 0 || j >= len(raw) || seen[j] {
				return false
			}
			seen[j] = true
			si, dj := sorted[i], raw[j]
			if math.IsNaN(si) != math.IsNaN(dj) {
				return false
			}
			if !math.IsNaN(si) && si != dj {
				return false
			}
		}
		lastNonNaN := math.Inf(-1)
		sawNaN := false
		for _, v := range sorted {
			if math.IsNaN(v) {
				sawNaN = true
				continue
			}
			if sawNaN {
				return false // non-NaN after NaN
			}
			if v < lastNonNaN {
				return false
			}
			lastNonNaN = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
