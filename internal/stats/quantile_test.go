package stats

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestQuantileEmpty(t *testing.T) {
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Fatalf("expected ErrEmpty, got %v", err)
	}
}

func TestQuantileSingle(t *testing.T) {
	for _, alpha := range []float64{-1, 0, 0.3, 0.5, 1, 2} {
		q, err := Quantile([]float64{42}, alpha)
		if err != nil {
			t.Fatalf("alpha=%v: %v", alpha, err)
		}
		if q != 42 {
			t.Errorf("alpha=%v: got %v, want 42", alpha, q)
		}
	}
}

func TestQuantileKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		alpha float64
		want  float64
	}{
		{0, 1},
		{0.1, 1},
		{0.25, 3},
		{0.5, 5},
		{0.9, 9},
		{1, 10},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.alpha)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.alpha, got, c.want)
		}
	}
}

func TestQuantileUnsortedInputUntouched(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	orig := append([]float64(nil), xs...)
	if _, err := Quantile(xs, 0.5); err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if xs[i] != orig[i] {
			t.Fatalf("input mutated at %d: %v vs %v", i, xs, orig)
		}
	}
}

func TestQuantileIndexBounds(t *testing.T) {
	if got := QuantileIndex(0, 0.5); got != 0 {
		t.Errorf("empty: got %d", got)
	}
	if got := QuantileIndex(10, 0); got != 0 {
		t.Errorf("alpha 0: got %d", got)
	}
	if got := QuantileIndex(10, 1); got != 10 {
		t.Errorf("alpha 1: got %d", got)
	}
	if got := QuantileIndex(10, 0.25); got != 3 {
		t.Errorf("alpha 0.25: got %d, want 3", got)
	}
}

// Property: the quantile is monotone in alpha and lies within sample
// bounds.
func TestQuantileProperties(t *testing.T) {
	f := func(raw []float64, a1, a2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			// Keep values finite so comparisons are meaningful.
			if x == x && x < 1e300 && x > -1e300 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		lo, hi := clamp01(a1), clamp01(a2)
		if lo > hi {
			lo, hi = hi, lo
		}
		q1, err1 := Quantile(xs, lo)
		q2, err2 := Quantile(xs, hi)
		if err1 != nil || err2 != nil {
			return false
		}
		return q1 <= q2 && q1 >= slices.Min(xs) && q2 <= slices.Max(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func clamp01(v float64) float64 {
	if v != v || v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func TestZeroQuantileAlpha(t *testing.T) {
	sorted := []float64{-3, -2, -1, 0, 1, 2}
	// Four values ≤ 0 out of six.
	if got := ZeroQuantileAlpha(sorted); got != 4.0/6.0 {
		t.Errorf("got %v, want %v", got, 4.0/6.0)
	}
	if got := ZeroQuantileAlpha(nil); got != 0 {
		t.Errorf("empty: got %v", got)
	}
	allPos := []float64{1, 2, 3}
	if got := ZeroQuantileAlpha(allPos); got != 0 {
		t.Errorf("all positive: got %v", got)
	}
	allNeg := []float64{-3, -2, -1}
	if got := ZeroQuantileAlpha(allNeg); got != 1 {
		t.Errorf("all negative: got %v", got)
	}
}

// Property: quantile-then-count round trip. For a sorted sample with
// distinct values, the number of items ≤ the α-quantile equals
// QuantileIndex (ties aside).
func TestQuantileIndexConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(400)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i) // distinct, sorted
		}
		alpha := rng.Float64()
		q, err := QuantileSorted(xs, alpha)
		if err != nil {
			t.Fatal(err)
		}
		k := QuantileIndex(n, alpha)
		count := sort.SearchFloat64s(xs, q+0.5)
		if count != k {
			t.Fatalf("n=%d alpha=%v: count=%d, QuantileIndex=%d", n, alpha, count, k)
		}
	}
}
