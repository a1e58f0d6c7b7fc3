package topk_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/reduce"
	"repro/internal/topk"
)

// randomDists generates adversarial inputs: duplicates, NaNs, ±Inf,
// signed zeros and plain random values.
func randomDists(rng *rand.Rand, n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		switch rng.Intn(12) {
		case 0:
			d[i] = math.NaN()
		case 1:
			d[i] = math.Inf(1)
		case 2:
			d[i] = math.Inf(-1)
		case 3:
			d[i] = 0
		case 4:
			d[i] = math.Copysign(0, -1)
		case 5, 6, 7:
			d[i] = float64(rng.Intn(5)) // heavy duplicates
		default:
			d[i] = rng.NormFloat64() * 100
		}
	}
	return d
}

func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// sameBits compares floats bit for bit (so -0 differs from +0), any NaN
// equal to any NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// Property: SelectKWithIndex returns exactly the first min(k, n) entries
// of reduce.SortWithIndex — values bit for bit and indices — for k in
// {0, 1, n-1, n, n+5} and a random k, on inputs with NaN, ±Inf, ±0 and
// duplicate distances.
func TestSelectKWithIndexMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		dists := randomDists(rng, n)
		orig := append([]float64(nil), dists...)
		sorted, sortIdx := reduce.SortWithIndex(dists)
		nans := 0
		for _, v := range dists {
			if math.IsNaN(v) {
				nans++
			}
		}
		for _, k := range []int{0, 1, n - 1, n, n + 5, rng.Intn(n + 2)} {
			vals, idx := topk.SelectKWithIndex(dists, k)
			want := min(max(k, 0), n)
			if len(vals) != want || len(idx) != want {
				t.Fatalf("trial %d (n=%d k=%d): lengths %d/%d, want %d", trial, n, k, len(vals), len(idx), want)
			}
			// Into buffers of the right length, dirty, it ranks the same
			// into them and counts the NaNs.
			bv, bi := make([]float64, want), make([]int, want)
			for i := range bv {
				bv[i], bi[i] = -1, -1
			}
			iv, ii, nNaN := topk.SelectKInto(dists, k, bv, bi)
			if nNaN != nans || len(iv) != want || want > 0 && (&iv[0] != &bv[0] || &ii[0] != &bi[0]) ||
				!slices.EqualFunc(iv, vals, sameBits) || !slices.Equal(ii, idx) {
				t.Fatalf("trial %d (n=%d k=%d): SelectKInto ranks apart from SelectKWithIndex, or counts %d NaNs of %d", trial, n, k, nNaN, nans)
			}
			for i := range idx {
				if idx[i] != sortIdx[i] || !sameBits(vals[i], sorted[i]) {
					t.Fatalf("trial %d (n=%d k=%d): entry %d = (%v,%d), sort gives (%v,%d)",
						trial, n, k, i, vals[i], idx[i], sorted[i], sortIdx[i])
				}
			}
		}
		for i, v := range dists { // input must be untouched
			if !sameBits(v, orig[i]) {
				t.Fatalf("trial %d: input mutated at %d", trial, i)
			}
		}
	}
}

// Property: Threshold returns exactly sorted[k-1].
func TestThresholdMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(250)
		dists := randomDists(rng, n)
		k := 1 + rng.Intn(n)
		sorted, _ := reduce.SortWithIndex(dists)
		got := topk.Threshold(append([]float64(nil), dists...), k)
		if !sameFloat(got, sorted[k-1]) {
			t.Fatalf("trial %d (n=%d k=%d): Threshold = %v, want %v", trial, n, k, got, sorted[k-1])
		}
	}
}

func TestThresholdEdgeCases(t *testing.T) {
	if !math.IsNaN(topk.Threshold(nil, 1)) {
		t.Fatal("empty slice must yield NaN")
	}
	if got := topk.Threshold([]float64{3}, 0); got != 3 {
		t.Fatalf("k clamps to 1: got %v", got)
	}
	if got := topk.Threshold([]float64{5, 1}, 99); got != 5 {
		t.Fatalf("k clamps to n: got %v", got)
	}
	allNaN := []float64{math.NaN(), math.NaN()}
	if !math.IsNaN(topk.Threshold(allNaN, 1)) {
		t.Fatal("all-NaN input must yield NaN")
	}
	mixed := []float64{math.NaN(), 2, math.Inf(-1)}
	if got := topk.Threshold(append([]float64(nil), mixed...), 2); got != 2 {
		t.Fatalf("NaNs sort last: got %v", got)
	}
	if got := topk.Threshold(append([]float64(nil), mixed...), 1); !math.IsInf(got, -1) {
		t.Fatalf("-Inf sorts first: got %v", got)
	}
	if got := topk.Threshold(append([]float64(nil), mixed...), 3); !math.IsNaN(got) {
		t.Fatal("third of [NaN 2 -Inf] is NaN")
	}
}

func TestSelectKZeroAndFull(t *testing.T) {
	dists := []float64{4, 2, math.NaN(), 1}
	if vals, idx := topk.SelectKWithIndex(dists, 0); len(vals) != 0 || len(idx) != 0 {
		t.Fatalf("k=0 must be empty, got %v %v", vals, idx)
	}
	full, fullIdx := topk.SelectKWithIndex(dists, 10)
	want, wantIdx := []float64{1, 2, 4, math.NaN()}, []int{3, 1, 0, 2}
	if len(full) != len(want) {
		t.Fatalf("full selection has %d entries, want %d", len(full), len(want))
	}
	for i := range want {
		if !sameFloat(full[i], want[i]) || fullIdx[i] != wantIdx[i] {
			t.Fatalf("full selection mismatch at %d: (%v,%d) vs (%v,%d)", i, full[i], fullIdx[i], want[i], wantIdx[i])
		}
	}
	vals, idx := topk.SelectKWithIndex(dists, 2)
	if idx[0] != 3 || idx[1] != 1 || vals[0] != 1 || vals[1] != 2 {
		t.Fatalf("unexpected top-2: vals=%v idx=%v", vals, idx)
	}
}
