package reduce

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// items2DReference is Items2D as it was before the counting pass: sort
// copies of both axes, then rescan every item for every fraction tried.
// The counting pass is held to it bit for bit.
func items2DReference(dx, dy []float64, p float64) []int {
	n := len(dx)
	if n == 0 || len(dy) != n || p <= 0 {
		return nil
	}
	if p > 1 {
		p = 1
	}
	target := int(math.Ceil(p * float64(n)))
	sortedX, sortedY := sortedSample(dx), sortedSample(dy)
	if len(sortedX) == 0 || len(sortedY) == 0 {
		return nil
	}
	frac := math.Sqrt(p)
	var selected []int
	for iter := 0; iter < 32; iter++ {
		loX, hiX := signedBand(sortedX, frac)
		loY, hiY := signedBand(sortedY, frac)
		selected = selected[:0]
		for i := 0; i < n; i++ {
			if math.IsNaN(dx[i]) || math.IsNaN(dy[i]) {
				continue
			}
			if dx[i] >= loX && dx[i] <= hiX && dy[i] >= loY && dy[i] <= hiY {
				selected = append(selected, i)
			}
		}
		if len(selected) >= target || frac >= 1 {
			break
		}
		frac = math.Min(1, frac*1.25)
	}
	return append([]int(nil), selected...)
}

// signedBand is the reference's inclusive value band of the signed
// quantile cut for fraction f over a sorted sample.
func signedBand(sorted []float64, f float64) (lo, hi float64) {
	loIdx, hiIdx := SignedQuantileCut(sorted, f)
	if hiIdx <= loIdx {
		return math.Inf(1), math.Inf(-1) // empty band
	}
	return sorted[loIdx], sorted[hiIdx-1]
}

// sortedSample is the sorted sample Items2D reads: the non-NaN values,
// ascending.
func sortedSample(xs []float64) []float64 {
	var out []float64
	for _, x := range xs {
		if !math.IsNaN(x) {
			out = append(out, x)
		}
	}
	sort.Float64s(out)
	return out
}

// items2D calls Items2D with the sorted samples of dx and dy.
func items2D(dx, dy []float64, p float64) []int {
	return Items2D(dx, dy, sortedSample(dx), sortedSample(dy), p)
}

// checkItems2D holds Items2D to the reference on one input and asserts
// that the bands it counts over are nested in the try index. A positive
// p below 1/n is 1/n's: less than one item is no display fraction.
func checkItems2D(t *testing.T, what string, dx, dy []float64, p float64) {
	t.Helper()
	if p > 0 && len(dx) > 0 {
		p = max(p, 1/float64(len(dx)))
	}
	if got, want := items2D(dx, dy, p), items2DReference(dx, dy, p); !slices.Equal(got, want) {
		t.Fatalf("%s, p=%v: Items2D selects %d items %v, the reference %d %v", what, p, len(got), head(got), len(want), head(want))
	}
	for _, xs := range [][]float64{dx, dy} {
		sorted := sortedSample(xs)
		if len(sorted) == 0 || p <= 0 {
			continue
		}
		var b bands
		for f := math.Sqrt(min(p, 1)); ; f = math.Min(1, f*1.25) {
			b.add(sorted, f)
			if f >= 1 {
				break
			}
		}
		for k := 1; k < len(b.lo); k++ {
			// An empty band is [+Inf, -Inf], which holds nothing.
			if b.lo[k-1] <= b.hi[k-1] && (b.lo[k] > b.lo[k-1] || b.hi[k] < b.hi[k-1]) {
				t.Fatalf("%s, p=%v: band %d [%v, %v] does not hold band %d [%v, %v]", what, p, k, b.lo[k], b.hi[k], k-1, b.lo[k-1], b.hi[k-1])
			}
		}
	}
}

func head(xs []int) []int { return xs[:min(len(xs), 8)] }

// axisShapes are the axis value shapes the property test draws from,
// each a function of (rng, n).
var axisShapes = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []float64
}{
	{"awkward", func(rng *rand.Rand, n int) []float64 {
		special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
		v := make([]float64, n)
		for i := range v {
			if k := rng.Intn(8); k < len(special) {
				v[i] = special[k]
			} else {
				v[i] = rng.NormFloat64() * 10
			}
		}
		return v
	}},
	{"all-negative", func(rng *rand.Rand, n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = -1 - rng.Float64()*50
		}
		return v
	}},
	{"all-positive", func(rng *rand.Rand, n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = 1 + rng.Float64()*50
		}
		return v
	}},
	{"all-zero", func(rng *rand.Rand, n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			if rng.Intn(2) == 0 {
				v[i] = math.Copysign(0, -1)
			}
		}
		return v
	}},
	{"duplicates", func(rng *rand.Rand, n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(rng.Intn(5) - 2)
		}
		return v
	}},
	{"range-distances", func(rng *rand.Rand, n int) []float64 {
		// A range condition's signed distances: 0 inside, signed outside,
		// NaN for nulls.
		v := make([]float64, n)
		for i := range v {
			switch x := rng.Float64()*100 - 50; {
			case rng.Intn(25) == 0:
				v[i] = math.NaN()
			case x < -10:
				v[i] = x + 10
			case x > 10:
				v[i] = x - 10
			}
		}
		return v
	}},
}

// TestItems2DMatchesReference: the counting pass selects exactly the
// reference's items, in the same order, for every pair of axis shapes
// and display fractions from below 1/n to above 1.
func TestItems2DMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for _, n := range []int{1, 2, 7, 100, 1000} {
		for _, sx := range axisShapes {
			for _, sy := range axisShapes {
				dx, dy := sx.gen(rng, n), sy.gen(rng, n)
				for _, p := range []float64{1e-300, 1 / float64(n), 2 / float64(n), 0.01, 0.08, 0.3, 0.64, 0.99, 1, 1.7} {
					checkItems2D(t, fmt.Sprintf("n=%d %s×%s", n, sx.name, sy.name), dx, dy, p)
				}
				checkItems2D(t, fmt.Sprintf("n=%d %s×%s", n, sx.name, sy.name), dx, dy, 1/float64(n)+rng.Float64())
			}
		}
	}
}

// FuzzItems2D holds the counting pass to the reference on the fuzzer's
// axes — 16 bytes an item, x then y — and display fraction.
func FuzzItems2D(f *testing.F) {
	enc := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(enc(-1, 1, 0, 0, 1, -1, math.NaN(), 0), 0.5)
	f.Add(enc(math.Inf(-1), 2, math.Copysign(0, -1), math.Inf(1), 3, 0, -2, -2), 0.25)
	f.Add(enc(0, 0, 0, 0, 0, 0), 1.0)
	f.Fuzz(func(t *testing.T, data []byte, p float64) {
		n := min(len(data)/16, 512)
		if n == 0 || math.IsNaN(p) {
			return
		}
		dx, dy := make([]float64, n), make([]float64, n)
		for i := range dx {
			dx[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i:]))
			dy[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:]))
		}
		checkItems2D(t, fmt.Sprintf("n=%d", n), dx, dy, p)
	})
}

func TestItems2DSelectsCentralBand(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 2000
	dx := make([]float64, n)
	dy := make([]float64, n)
	for i := range dx {
		dx[i] = rng.NormFloat64() * 10
		dy[i] = rng.NormFloat64() * 10
	}
	p := 0.25
	sel := items2D(dx, dy, p)
	if len(sel) < int(0.2*float64(n)) || len(sel) > int(0.6*float64(n)) {
		t.Fatalf("selected %d of %d for p=%.2f", len(sel), n, p)
	}
	// Selected items are centrally banded: their |dx| and |dy| are
	// bounded by the unselected extremes.
	selSet := make(map[int]bool, len(sel))
	var maxSelX, maxSelY float64
	for _, i := range sel {
		selSet[i] = true
		maxSelX = math.Max(maxSelX, math.Abs(dx[i]))
		maxSelY = math.Max(maxSelY, math.Abs(dy[i]))
	}
	outliers := 0
	for i := range dx {
		if !selSet[i] && math.Abs(dx[i]) < maxSelX/4 && math.Abs(dy[i]) < maxSelY/4 {
			outliers++
		}
	}
	if outliers > n/50 {
		t.Fatalf("%d clearly-central items were not selected", outliers)
	}
}

func TestItems2DGrowsToTarget(t *testing.T) {
	// Anti-correlated dims: the naive √p×√p intersection is small, so
	// the growth loop must expand the bands.
	n := 1000
	dx := make([]float64, n)
	dy := make([]float64, n)
	for i := range dx {
		dx[i] = float64(i - n/2)
		dy[i] = float64(n/2 - i)
	}
	p := 0.5
	sel := items2D(dx, dy, p)
	if len(sel) < int(p*float64(n))*8/10 {
		t.Fatalf("selected %d, want ≈%d", len(sel), int(p*float64(n)))
	}
}

func TestItems2DEdgeCases(t *testing.T) {
	if items2D(nil, nil, 0.5) != nil {
		t.Error("empty")
	}
	if items2D([]float64{1}, []float64{1, 2}, 0.5) != nil {
		t.Error("length mismatch")
	}
	if items2D([]float64{1}, []float64{1}, 0) != nil {
		t.Error("p=0")
	}
	// All NaN.
	if got := items2D([]float64{math.NaN()}, []float64{math.NaN()}, 0.5); got != nil {
		t.Errorf("all-NaN: %v", got)
	}
	// p > 1 clamps; everything finite selected.
	sel := items2D([]float64{-1, 0, 1}, []float64{1, 0, -1}, 5)
	if len(sel) != 3 {
		t.Errorf("p>1: %v", sel)
	}
	// NaN items never selected.
	sel = items2D([]float64{0, math.NaN()}, []float64{0, 0}, 1)
	if len(sel) != 1 || sel[0] != 0 {
		t.Errorf("NaN exclusion: %v", sel)
	}
}
