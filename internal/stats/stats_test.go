package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Min != 1 || s.Max != 4 || s.Mean != 2.5 {
		t.Fatalf("unexpected summary: %+v", s)
	}
	want := math.Sqrt(1.25)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Errorf("std = %v, want %v", s.Std, want)
	}
	if s.Median != 2 {
		t.Errorf("median = %v, want 2 (lower of the middle pair)", s.Median)
	}
}

func TestSummarizeSkipsNaN(t *testing.T) {
	s := Summarize([]float64{math.NaN(), 5, math.NaN()})
	if s.N != 1 || s.Min != 5 || s.Max != 5 {
		t.Fatalf("unexpected summary: %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Fatalf("unexpected: %+v", s)
	}
	s = Summarize([]float64{math.NaN()})
	if s.N != 0 {
		t.Fatalf("all-NaN should summarize to empty, got %+v", s)
	}
}

func TestMeanVariance(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if got := Mean([]float64{2, 4}); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
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

func TestDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	u := SampleN(Uniform{2, 4}, rng, 2000)
	su := Summarize(u)
	if su.Min < 2 || su.Max >= 4 {
		t.Errorf("uniform out of range: [%v, %v]", su.Min, su.Max)
	}
	if math.Abs(su.Mean-3) > 0.1 {
		t.Errorf("uniform mean = %v", su.Mean)
	}
	n := SampleN(Normal{10, 2}, rng, 5000)
	sn := Summarize(n)
	if math.Abs(sn.Mean-10) > 0.2 || math.Abs(sn.Std-2) > 0.2 {
		t.Errorf("normal: mean=%v std=%v", sn.Mean, sn.Std)
	}
	e := SampleN(Exponential{Rate: 2}, rng, 5000)
	se := Summarize(e)
	if se.Min < 0 || math.Abs(se.Mean-0.5) > 0.1 {
		t.Errorf("exponential: min=%v mean=%v", se.Min, se.Mean)
	}
	// Zero-rate guard.
	bad := Exponential{Rate: 0}
	if v := bad.Sample(rng); v < 0 {
		t.Errorf("exponential with rate 0 should still sample, got %v", v)
	}
}

func TestMixtureWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := Mixture{
		Components: []Dist{Normal{0, 0.1}, Normal{100, 0.1}},
		Weights:    []float64{3, 1},
	}
	xs := SampleN(m, rng, 4000)
	var low int
	for _, x := range xs {
		if x < 50 {
			low++
		}
	}
	frac := float64(low) / float64(len(xs))
	if math.Abs(frac-0.75) > 0.05 {
		t.Errorf("component-0 fraction = %v, want ~0.75", frac)
	}
	// Empty mixture samples zero.
	if (Mixture{}).Sample(rng) != 0 {
		t.Error("empty mixture should sample 0")
	}
	// Missing weights default to 1.
	m2 := Mixture{Components: []Dist{Normal{0, 0.01}, Normal{1, 0.01}}}
	xs2 := SampleN(m2, rng, 1000)
	s2 := Summarize(xs2)
	if math.Abs(s2.Mean-0.5) > 0.1 {
		t.Errorf("unweighted mixture mean = %v, want ~0.5", s2.Mean)
	}
}
