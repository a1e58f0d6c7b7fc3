package relevance

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// checkApplyRange holds applyRange to NormParams.Apply bit for bit, out
// of place and with dst aliasing src.
func checkApplyRange(t *testing.T, p NormParams, src []float64) {
	t.Helper()
	dst := make([]float64, len(src))
	applyRange(dst, src, p)
	inPlace := append([]float64(nil), src...)
	applyRange(inPlace, inPlace, p)
	for i, d := range src {
		want := math.Float64bits(p.Apply(d))
		if got := math.Float64bits(dst[i]); got != want {
			t.Fatalf("%+v: applyRange(%v [%#x]) = %#x, Apply = %#x", p, d, math.Float64bits(d), got, want)
		}
		if got := math.Float64bits(inPlace[i]); got != want {
			t.Fatalf("%+v: in-place applyRange(%v [%#x]) = %#x, Apply = %#x", p, d, math.Float64bits(d), got, want)
		}
	}
}

// applyRangeParams are the ranges a kernel written over comparisons and
// bit masks could get wrong: span 0, denormal and overflowing to +Inf,
// a negative minimum, and (never produced by rangeOf, but Apply defines
// them) inverted, infinite and NaN bounds.
func applyRangeParams() []NormParams {
	inf, nan := math.Inf(1), math.NaN()
	return []NormParams{
		{NoFinite: true},
		{DMin: 0, DMax: 0, Kept: 1},
		{DMin: -3, DMax: -3, Kept: 1},
		{DMin: 7.5, DMax: 7.5, Kept: 1},
		{DMin: 0, DMax: 5e-324, Kept: 2},
		{DMin: -5e-324, DMax: 5e-324, Kept: 2},
		{DMin: -math.MaxFloat64, DMax: math.MaxFloat64, Kept: 2},
		{DMin: 0, DMax: math.MaxFloat64, Kept: 2},
		{DMin: 0, DMax: 50, Kept: 9},
		{DMin: -20, DMax: 30, Kept: 9},
		{DMin: 0, DMax: 1e-300, Kept: 9},
		{DMin: 0, DMax: 1, Kept: 1, NoFinite: true},
		{DMin: 50, DMax: 0, Kept: 1},
		{DMin: 0, DMax: inf, Kept: 1},
		{DMin: -inf, DMax: 0, Kept: 1},
		{DMin: inf, DMax: inf, Kept: 1},
		{DMin: nan, DMax: 1, Kept: 1},
		{DMin: 0, DMax: nan, Kept: 1},
	}
}

// applyRangeValues surrounds the bounds of p with the values that sit
// on a comparison's edge, next to every special value.
func applyRangeValues(p NormParams) []float64 {
	vals := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 1, -1, 1e-310, -1e-310,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
		math.NaN(),
		math.Float64frombits(0x7FF0000000000001), // signalling, smallest payload
		math.Float64frombits(0x7FF8000000000000), // quiet, empty payload
		math.Float64frombits(0xFFF8000000000000), // the hardware's default NaN
		math.Float64frombits(0xFFFFFFFFFFFFFFFF),
		math.Float64frombits(0x7FFDEADBEEF12345),
	}
	for _, b := range []float64{p.DMin, p.DMax, (p.DMin + p.DMax) / 2} {
		vals = append(vals, b, math.Nextafter(b, math.Inf(1)), math.Nextafter(b, math.Inf(-1)), -b)
	}
	return vals
}

func TestApplyRangeMatchesApply(t *testing.T) {
	for _, p := range applyRangeParams() {
		checkApplyRange(t, p, applyRangeValues(p))
	}
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 300; trial++ {
		src := awkwardFloats(rng, 1+rng.Intn(300))
		fin := make([]float64, 0, len(src))
		for _, d := range src {
			if !math.IsNaN(d) && !math.IsInf(d, 0) {
				fin = append(fin, d)
			}
		}
		sort.Float64s(fin)
		p := NormParams{NoFinite: true}
		if len(fin) > 0 {
			// The shape rangeOf produces: minimum anchored at 0 unless
			// negative, maximum an order statistic of the vector.
			p = NormParams{DMin: math.Min(fin[0], 0), DMax: fin[rng.Intn(len(fin))], Kept: 1}
		}
		checkApplyRange(t, p, append(src, applyRangeValues(p)...))
		// And params unrelated to the vector.
		q := NormParams{DMin: awkwardFloats(rng, 1)[0], DMax: awkwardFloats(rng, 1)[0], Kept: 1, NoFinite: rng.Intn(8) == 0}
		checkApplyRange(t, q, append(src, applyRangeValues(q)...))
	}
}

// FuzzApplyRange gives the fuzzer every bit of the params and of the
// values: the first two float64s of the input are DMin and DMax, the
// rest the vector.
func FuzzApplyRange(f *testing.F) {
	for _, p := range applyRangeParams() {
		b := binary.LittleEndian.AppendUint64(nil, math.Float64bits(p.DMin))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.DMax))
		for _, v := range applyRangeValues(p) {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		f.Add(b, p.NoFinite)
	}
	f.Fuzz(func(t *testing.T, data []byte, noFinite bool) {
		var vals []float64
		for ; len(data) >= 8; data = data[8:] {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		if len(vals) < 2 {
			return
		}
		p := NormParams{DMin: vals[0], DMax: vals[1], Kept: 1, NoFinite: noFinite}
		checkApplyRange(t, p, append(vals[2:], applyRangeValues(p)...))
	})
}

// BenchmarkApplyRange reads the scaling kernel on the two orders a leaf
// vector comes in — generation order (Traffic's a, b, c: which side of
// a clamp a row falls on is a coin flip) and ascending (t, or anything
// the branch predictor can learn) — and on the degenerate range a
// saturated condition produces (DMin = DMax = 0 over the distances of
// `a > 50`: half the rows exact, in random order). A data-oblivious
// kernel reads the same on uniform and ascending.
func BenchmarkApplyRange(b *testing.B) {
	const n = 200_000
	rng := rand.New(rand.NewSource(1994))
	uniform := fill(n, func() float64 { return rng.Float64() * 100 })
	ascending := append([]float64(nil), uniform...)
	sort.Float64s(ascending)
	degenerate := make([]float64, n)
	for i, a := range uniform {
		degenerate[i] = math.Max(0, 50-a)
	}
	half := NormParams{DMin: 0, DMax: 50, Kept: n / 2}
	for _, c := range []struct {
		name string
		src  []float64
		p    NormParams
	}{
		{"uniform", uniform, half},
		{"ascending", ascending, half},
		{"degenerate", degenerate, NormParams{Kept: n / 2}},
	} {
		b.Run(c.name, func(b *testing.B) {
			dst := make([]float64, evalChunk)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < n; lo += evalChunk {
					hi := min(n, lo+evalChunk)
					applyRange(dst[:hi-lo], c.src[lo:hi], c.p)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
		})
	}
}
