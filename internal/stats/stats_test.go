package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	if mean(nil) != 0 {
		t.Error("mean(nil) != 0")
	}
	if got := mean([]float64{2, 4}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); math.Abs(got-1) > 1e-12 {
		t.Errorf("positive: got %v", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); math.Abs(got+1) > 1e-12 {
		t.Errorf("negative: got %v", got)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if got := Pearson([]float64{1, 2}, []float64{3}); got != 0 {
		t.Errorf("length mismatch: %v", got)
	}
	if got := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Errorf("zero variance: %v", got)
	}
}

// Property: |Pearson| <= 1 for any finite paired sample.
func TestPearsonBounded(t *testing.T) {
	f := func(pairs []struct{ X, Y float64 }) bool {
		var xs, ys []float64
		for _, p := range pairs {
			if isFinite(p.X) && isFinite(p.Y) && math.Abs(p.X) < 1e150 && math.Abs(p.Y) < 1e150 {
				xs = append(xs, p.X)
				ys = append(ys, p.Y)
			}
		}
		c := Pearson(xs, ys)
		return c >= -1.0000001 && c <= 1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func TestLaggedPearsonFindsPlantedLag(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 500
	const lag = 3
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = math.Sin(float64(i)/10) + 0.05*rng.NormFloat64()
	}
	for i := range ys {
		if i >= lag {
			ys[i] = xs[i-lag] + 0.05*rng.NormFloat64()
		}
	}
	got, corr := BestLag(xs, ys, 8)
	if got != lag {
		t.Fatalf("BestLag = %d (corr %v), want %d", got, corr, lag)
	}
	if corr < 0.9 {
		t.Errorf("correlation at best lag too weak: %v", corr)
	}
}

func TestHistogramKnown(t *testing.T) {
	h := NewHistogram([]float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 5)
	if h.Total != 10 {
		t.Fatalf("total = %d", h.Total)
	}
	for i, c := range h.Counts {
		if c != 2 {
			t.Errorf("bin %d = %d, want 2", i, c)
		}
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h := NewHistogram(nil, 4)
	if h.Total != 0 {
		t.Fatalf("empty: %+v", h)
	}
	h = NewHistogram([]float64{5, 5, 5}, 4)
	if h.Total != 3 || h.Counts[0] != 3 {
		t.Fatalf("constant sample should land in bin 0: %+v", h)
	}
	if !strings.Contains(NewHistogram(nil, 3).ASCII(4), "empty") {
		t.Error("empty histogram ASCII should say so")
	}
}

func TestHistogramASCIIShape(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 2, 3, 3, 3}, 3)
	art := h.ASCII(3)
	lines := strings.Split(strings.TrimRight(art, "\n"), "\n")
	if len(lines) != 4 { // 3 rows + stats line
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), art)
	}
	if !strings.HasSuffix(lines[0], "#") {
		t.Errorf("tallest bin should reach the top row: %q", lines[0])
	}
}
