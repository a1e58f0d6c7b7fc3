package relevance

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The oracle of this file shares nothing with the kernel: filter the
// values, sort them by comparison (-0 before +0), index.

// oracleIndex is the index's content: every non-NaN value, ascending.
func oracleIndex(dists []float64) []float64 {
	var vals []float64
	for _, d := range dists {
		if !math.IsNaN(d) {
			vals = append(vals, d)
		}
	}
	sort.Slice(vals, func(a, b int) bool {
		if vals[a] != vals[b] {
			return vals[a] < vals[b]
		}
		return math.Signbit(vals[a]) && !math.Signbit(vals[b])
	})
	return vals
}

// oracleSorted is the finite part of oracleIndex, which ranges read.
func oracleSorted(dists []float64) []float64 {
	var fin []float64
	for _, d := range oracleIndex(dists) {
		if !math.IsInf(d, 0) {
			fin = append(fin, d)
		}
	}
	return fin
}

// eqBits compares float slices by IEEE bits (NaN == NaN, -0 != +0).
func eqBits(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d != %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s[%d]: %x != %x", what, i, math.Float64bits(a[i]), math.Float64bits(b[i]))
		}
	}
}

// sameParams compares params by bits: the sign of a zero counts.
func sameParams(a, b NormParams) bool {
	return math.Float64bits(a.DMin) == math.Float64bits(b.DMin) &&
		math.Float64bits(a.DMax) == math.Float64bits(b.DMax) && a.Kept == b.Kept && a.NoFinite == b.NoFinite
}

func oracleRange(fin []float64, keep int) NormParams {
	if len(fin) == 0 {
		return NormParams{NoFinite: true}
	}
	if keep <= 0 || keep > len(fin) {
		keep = len(fin)
	}
	return NormParams{DMin: math.Min(fin[0], 0), DMax: fin[keep-1], Kept: keep}
}

// checkLeafOrderStats holds every leaf order statistic of dists against
// the oracle: the index element for element by bits, NormRange and
// Codes.Range for the keeps around every branch of the kernel.
func checkLeafOrderStats(t *testing.T, what string, dists []float64) {
	t.Helper()
	orig := append([]float64(nil), dists...)
	fin := oracleSorted(dists)
	eqBits(t, what+": sorted", oracleIndex(dists), SortedValues(dists))
	cp := BuildCodes(dists)
	n, nf := len(dists), len(fin)
	for _, keep := range []int{1, 2, n / 12, n / 8, n/8 + 1, n / 2, nf - 1, nf, nf + 3, 0, -5} {
		want := oracleRange(fin, keep)
		if got := NormRange(dists, keep); got != want {
			t.Fatalf("%s: NormRange(keep %d) = %+v, want %+v", what, keep, got, want)
		}
		if got, _ := cp.Range(dists, keep); got != want {
			t.Fatalf("%s: Codes.Range(keep %d) = %+v, want %+v", what, keep, got, want)
		}
	}
	eqBits(t, what+": input untouched", orig, dists)
}

// Leaf shapes, each a pure function of (rng, n).

// awkwardFloats exercises every special value an order statistic must
// place: NaN, ±Inf, signed zero, denormals, and ordinary values.
func awkwardFloats(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch rng.Intn(10) {
		case 0:
			v[i] = math.NaN()
		case 1:
			v[i] = math.Inf(1)
		case 2:
			v[i] = math.Inf(-1)
		case 3:
			v[i] = math.Copysign(0, -1)
		case 4:
			v[i] = 5e-324 // smallest denormal
		default:
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(6)))
		}
	}
	return v
}

// rangeDistances is a range predicate's leaf over a uniform column: a
// spike of exact zeros (the rows inside the range, 5-40 %) and the
// distances to the nearer bound on either side.
func rangeDistances(rng *rand.Rand, n int) []float64 {
	lo := rng.Float64() * 60
	hi := lo + 5 + rng.Float64()*35
	v := make([]float64, n)
	for i := range v {
		switch x := rng.Float64() * 100; {
		case x < lo:
			v[i] = lo - x
		case x > hi:
			v[i] = x - hi
		}
	}
	return v
}

func oneOutlier(rng *rand.Rand, n int) []float64 {
	v := rangeDistances(rng, n)
	if n > 0 {
		v[rng.Intn(n)] = 1e12
	}
	return v
}

func logNormal(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Exp(3 * rng.NormFloat64())
	}
	return v
}

func fiftyInts(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(rng.Intn(50))
	}
	return v
}

func fill(n int, f func() float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = f()
	}
	return v
}

// pick draws each element from vals.
func pick(vals ...float64) func(*rand.Rand, int) []float64 {
	return func(rng *rand.Rand, n int) []float64 {
		return fill(n, func() float64 { return vals[rng.Intn(len(vals))] })
	}
}

type leafShape struct {
	name string
	gen  func(*rand.Rand, int) []float64
}

// benchShapes are the four shapes of the kernel table.
var benchShapes = []leafShape{
	{"range", rangeDistances},
	{"outlier", oneOutlier},
	{"lognormal", logNormal},
	{"ints50", fiftyInts},
}

// edgeShapes aim at the kernel's fall-throughs and tie handling.
var edgeShapes = []leafShape{
	{"all equal", pick(7.25)},
	{"two values", pick(0, 3)},
	{"awkward", awkwardFloats},
	{"no finite", pick(math.NaN(), math.Inf(1), math.Inf(-1))},
	{"subnormal", func(rng *rand.Rand, n int) []float64 {
		return fill(n, func() float64 { return float64(rng.Intn(900)) * 5e-324 })
	}},
	{"span overflow", func(rng *rand.Rand, n int) []float64 {
		return fill(n, func() float64 { return (rng.Float64()*2 - 1) * math.MaxFloat64 })
	}},
	{"signed", func(rng *rand.Rand, n int) []float64 {
		return fill(n, func() float64 { return rng.NormFloat64()*40 - 25 })
	}},
	{"mixed zeros", pick(0, math.Copysign(0, -1), 1, -1)},
	// Every re-bucketing level meets another spike: the depth cap.
	{"nested spikes", pick(1, 1e-5, 1e-10, 1e-15, 1e-20, 1e-25)},
}

func TestLeafOrderStatsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, s := range append(edgeShapes, benchShapes...) {
		for _, n := range []int{0, 1, 2, 37, kernelMin - 1, kernelMin, kernelMin + 1, evalChunk + 5, 3*evalChunk + 77} {
			checkLeafOrderStats(t, fmt.Sprintf("%s n=%d", s.name, n), s.gen(rng, n))
		}
	}
	if testing.Short() {
		return
	}
	for _, s := range benchShapes {
		checkLeafOrderStats(t, s.name+" n=200001", s.gen(rng, 200001))
	}
}

// TestLeafIndexZeroOrderIsCanonical: the index is a function of the
// leaf's values, not of their row order, so mixed -0/+0 cannot be left
// in input order.
func TestLeafIndexZeroOrderIsCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{9, 5000} {
		v := pick(0, math.Copysign(0, -1), 2.5, -3)(rng, n)
		a := SortedValues(v)
		rng.Shuffle(n, func(i, j int) { v[i], v[j] = v[j], v[i] })
		eqBits(t, fmt.Sprintf("n=%d: index of the permuted leaf", n), a, SortedValues(v))
	}
}

// TestLeafZeroBlockMatchesNormRange: a range leaf's zero block is its
// code plane's minimum class, coded as the range kernel codes it — over
// [0, its maximum], whether or not a row is 0 — and the leaf is ranged
// from the counts for every keep up to the block and past it, or by
// NormRange without the plane: every answer NormRange's, bit for bit.
// The vectors are what the range kernel writes: exact +0 inside the
// range, positive distances outside, NaN and +Inf for awkward rows.
func TestLeafZeroBlockMatchesNormRange(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, s := range []leafShape{
		{"range", rangeDistances},
		{"range with NaN and +Inf", func(rng *rand.Rand, n int) []float64 {
			v := rangeDistances(rng, n)
			for i := range v {
				if r := rng.Intn(20); r == 0 {
					v[i] = math.NaN()
				} else if r == 1 {
					v[i] = math.Inf(1)
				}
			}
			return v
		}},
		{"all zero", pick(0)},
		{"one zero", func(rng *rand.Rand, n int) []float64 {
			v := fill(n, func() float64 { return 1 + rng.Float64() })
			v[rng.Intn(n)] = 0
			return v
		}},
		{"no zero", func(rng *rand.Rand, n int) []float64 {
			return fill(n, func() float64 { return 1 + rng.Float64() })
		}},
	} {
		for _, n := range []int{1, 2, 37, kernelMin + 1, evalChunk + 5} {
			dists := s.gen(rng, n)
			zeros := 0
			for _, d := range dists {
				if math.Float64bits(d) == 0 {
					zeros++
				}
			}
			_, hi := FiniteExtremes(dists)
			plane := NewCodes(n, 0, max(hi, 0))
			plane.Encode(dists, 0, plane.Chunks())
			keeps := []int{zeros - 1, zeros, zeros + 1}
			for keep := -1; keep <= n+1; keep += 1 + n/300 {
				keeps = append(keeps, keep)
			}
			for _, keep := range keeps {
				want := NormRange(dists, keep)
				for _, cp := range []*Codes{nil, plane} {
					if got, _ := cp.Range(dists, keep); !sameParams(got, want) {
						t.Fatalf("%s n=%d zeros=%d keep=%d (codes %v): %+v, NormRange %+v",
							s.name, n, zeros, keep, cp != nil, got, want)
					}
				}
			}
		}
	}
}

// FuzzLeafOrderStats decodes the input as float64s (so the fuzzer owns
// every bit pattern) and repeats it past the kernel's length threshold.
func FuzzLeafOrderStats(f *testing.F) {
	seed := func(vals ...float64) {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		f.Add(b, uint16(1))
		f.Add(b, uint16(700))
	}
	seed()
	seed(1)
	seed(0, math.Copysign(0, -1), 0, 5e-324, -5e-324)
	seed(math.NaN(), math.Inf(1), math.Inf(-1), 3, 3, 1e12)
	seed(math.MaxFloat64, -math.MaxFloat64, 1, 2)
	seed(1, 1e-5, 1e-10, 1e-15, 1e-20, 1e-25, 1, 1e-5)
	f.Fuzz(func(t *testing.T, data []byte, reps uint16) {
		var vals []float64
		for ; len(data) >= 8; data = data[8:] {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		dists := make([]float64, 0, len(vals)*int(reps%1024))
		for r := 0; r < int(reps%1024); r++ {
			dists = append(dists, vals...)
		}
		checkLeafOrderStats(t, "fuzz", dists)
	})
}

// FuzzCodeRange decodes the input as float64s, repeats it past the
// kernel's length threshold, codes it over its extremes — or, when its
// least finite value is not below 0, over [0, its maximum], as a range
// leaf's kernel does — in a split of its chunks, and holds the ranges
// its counts answer to NormRange bit for bit at every keep where Range
// changes course.
func FuzzCodeRange(f *testing.F) {
	seed := func(vals ...float64) {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		f.Add(b, uint16(1), false)
		f.Add(b, uint16(700), true)
	}
	seed()
	seed(1)
	seed(0, math.Copysign(0, -1), 0, 5e-324, -5e-324)
	seed(math.Copysign(0, -1), -1, 0, 2)
	seed(math.NaN(), math.Inf(1), math.Inf(-1), 3, 3, 1e12)
	seed(math.MaxFloat64, -math.MaxFloat64, 1, 2)
	seed(1, 1e-5, 1e-10, 1e-15, 1e-20, 1e-25, 1, 1e-5)
	f.Fuzz(func(t *testing.T, data []byte, reps uint16, fromZero bool) {
		var vals []float64
		for ; len(data) >= 8; data = data[8:] {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		v := make([]float64, 0, len(vals)*int(reps%1024))
		for r := 0; r < int(reps%1024); r++ {
			v = append(v, vals...)
		}
		lo, hi := FiniteExtremes(v)
		if fromZero && lo >= 0 && lo <= hi {
			lo = 0
		}
		cp := NewCodes(len(v), lo, hi)
		mid := cp.Chunks() / 2
		cp.Encode(v, mid, cp.Chunks())
		cp.Encode(v, 0, mid)
		// Every keep costs a pass; Range's branches sit at the ends and
		// at the edges between the codes' rows, which these meet.
		for _, keep := range codeRangeKeeps(cp, max(len(v), 1)) {
			want := NormRange(v, keep)
			if got, _ := cp.Range(v, keep); !sameParams(got, want) {
				t.Fatalf("keep %d: Range %+v, NormRange %+v", keep, got, want)
			}
		}
	})
}

// The kernel table of CHANGES.md: n = 200 000, per-op time. The sinks
// keep the measured calls from being optimized away.
var (
	sinkIndex  []float64
	sinkParams NormParams
)

func BenchmarkLeafIndexBuild(b *testing.B) {
	for _, s := range benchShapes {
		dists := s.gen(rand.New(rand.NewSource(1994)), 200000)
		b.Run(s.name+"/kernel", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkIndex = SortedValues(dists)
			}
		})
		b.Run(s.name+"/sort.Float64s", func(b *testing.B) {
			scratch := make([]float64, len(dists))
			for i := 0; i < b.N; i++ {
				copy(scratch, dists)
				sort.Float64s(scratch)
			}
		})
	}
}

// BenchmarkNormRange answers one shape's range by the scan and by the
// counts of the vector's code plane, built outside the loop as a leaf's
// compute builds it.
func BenchmarkNormRange(b *testing.B) {
	for _, s := range benchShapes {
		dists := s.gen(rand.New(rand.NewSource(1994)), 200000)
		cp := BuildCodes(dists)
		for _, keep := range []int{len(dists) / 12, len(dists) / 2} {
			b.Run(fmt.Sprintf("%s/keep=%d/scan", s.name, keep), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sinkParams = NormRange(dists, keep)
				}
			})
			b.Run(fmt.Sprintf("%s/keep=%d/codes", s.name, keep), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sinkParams, _ = cp.Range(dists, keep)
				}
			})
		}
	}
}
