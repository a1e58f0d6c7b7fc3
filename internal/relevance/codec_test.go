package relevance

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/binenc"
)

// awkwardFloats returns a vector exercising every special value the
// bit-exact codec must preserve: NaN, ±Inf, signed zero, denormals, and
// ordinary values.
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

func TestLeafQuantilesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{0, 1, 7, 4096, 9000} {
		q := leafQuantiles(awkwardFloats(rng, n))
		r := binenc.NewReader(AppendLeafQuantiles(nil, q))
		got, err := DecodeLeafQuantiles(r, n)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if !r.Done() {
			t.Fatalf("n=%d: trailing bytes", n)
		}
		eqBits(t, "sorted", q.sorted, got.sorted)
		if math.Float64bits(q.minFinite) != math.Float64bits(got.minFinite) ||
			q.nNegInf != got.nNegInf || q.nNaN != got.nNaN {
			t.Fatalf("n=%d: scalar fields differ: %+v vs %+v", n, q, got)
		}
		// The decoded index must answer Range identically for any keep.
		for _, keep := range []int{0, 1, n / 2, n} {
			a, b := q.Range(keep), got.Range(keep)
			if a != b && !(math.IsNaN(a.DMax) && math.IsNaN(b.DMax)) {
				t.Fatalf("n=%d keep=%d: Range %+v != %+v", n, keep, a, b)
			}
		}
	}
}

// TestLeafQuantilesEncodingUnchanged: the kernel replaced how the index
// is built, not what it is. Its envelope must stay byte for byte what
// the previous builder (filter, sort.Float64s) encoded, under the same
// codec version, so a mixed-version fleet shares one kv value per leaf.
// (Inputs with both -0 and +0 are excluded: their order was unspecified
// before and is pinned by TestLeafIndexZeroOrderIsCanonical now.)
func TestLeafQuantilesEncodingUnchanged(t *testing.T) {
	if leafQuantilesVersion != 1 {
		t.Fatalf("leaf-quantiles codec version moved to %d", leafQuantilesVersion)
	}
	rng := rand.New(rand.NewSource(44))
	for _, s := range append(edgeShapes, benchShapes...) {
		if s.name == "mixed zeros" {
			continue
		}
		for _, n := range []int{0, 3, kernelMin + 9, 2*evalChunk + 1} {
			dists := s.gen(rng, n)
			var sorted []float64
			var nNegInf, nNaN uint32
			for _, d := range dists {
				switch {
				case math.IsNaN(d):
					nNaN++
				case math.IsInf(d, -1):
					nNegInf++
				case !math.IsInf(d, 1):
					sorted = append(sorted, d)
				}
			}
			sort.Float64s(sorted)
			minFinite := math.Inf(1)
			if len(sorted) > 0 {
				minFinite = sorted[0]
			}
			want := binenc.F64([]byte{1}, minFinite)
			want = binenc.F64s(binenc.U32(binenc.U32(want, nNegInf), nNaN), sorted)
			if got := AppendLeafQuantiles(nil, leafQuantiles(dists)); !bytes.Equal(got, want) {
				t.Fatalf("%s n=%d: envelope differs from the previous builder's", s.name, n)
			}
		}
	}
}

// TestLeafQuantilesDecodeValidates: see core's
// TestRemoteIndexesAreValidated for why; here every way the envelope
// can be wrong for its leaf, at the codec.
func TestLeafQuantilesDecodeValidates(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		minFinite float64
		sorted    []float64
		nNaN      uint32
		rows      int
		ok        bool
	}{
		{inf, nil, 0, 0, true},
		{1, []float64{1, 1, 2.5}, 2, 5, true},
		{math.Copysign(0, -1), []float64{math.Copysign(0, -1), 0}, 0, 2, true},
		{0, nil, 0, 0, false},
		{1, []float64{1, 3, 2}, 0, 3, false},
		{1, []float64{1, nan, 2}, 0, 3, false},
		{nan, []float64{nan}, 0, 1, false},
		{1, []float64{1, inf}, 0, 2, false},
		{-inf, []float64{-inf, 1}, 0, 2, false},
		{2, []float64{1, 2}, 0, 2, false},
		{1, []float64{1, 1, 2.5}, 2, 4, false},
	} {
		b := binenc.F64s(binenc.U32(binenc.U32(binenc.F64([]byte{1}, tc.minFinite), 0), tc.nNaN), tc.sorted)
		if _, err := DecodeLeafQuantiles(binenc.NewReader(b), tc.rows); (err == nil) != tc.ok {
			t.Fatalf("min %v sorted %v + %d NaN, %d rows: err %v, want ok=%v", tc.minFinite, tc.sorted, tc.nNaN, tc.rows, err, tc.ok)
		}
	}
	stats := AppendLeafChunkStats(nil, BuildLeafChunkStats(make([]float64, evalChunk+1)))
	for rows, ok := range map[int]bool{evalChunk + 1: true, 2 * evalChunk: true, evalChunk: false, 2*evalChunk + 1: false} {
		if _, err := DecodeLeafChunkStats(binenc.NewReader(stats), rows); (err == nil) != ok {
			t.Fatalf("two chunks of stats for %d rows: err %v, want ok=%v", rows, err, ok)
		}
	}
}

func TestLeafChunkStatsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 4096, 12289} {
		s := BuildLeafChunkStats(awkwardFloats(rng, n))
		r := binenc.NewReader(AppendLeafChunkStats(nil, s))
		got, err := DecodeLeafChunkStats(r, n)
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		if !r.Done() {
			t.Fatalf("n=%d: trailing bytes", n)
		}
		eqBits(t, "mins", s.mins, got.mins)
		if len(s.nans) != len(got.nans) {
			t.Fatalf("n=%d: nans length %d != %d", n, len(s.nans), len(got.nans))
		}
		for i := range s.nans {
			if s.nans[i] != got.nans[i] {
				t.Fatalf("n=%d: nans[%d] differ", n, i)
			}
		}
	}
}

func TestInteriorEntryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{0, 1, 4096, 10000} {
		raw := awkwardFloats(rng, n)
		nchunks := (n + evalChunk - 1) / evalChunk
		scans := make([]rangeScan, nchunks)
		total := newRangeScan()
		for ci := 0; ci < nchunks; ci++ {
			lo, hi := ci*evalChunk, (ci+1)*evalChunk
			if hi > n {
				hi = n
			}
			scans[ci] = scanRange(raw, lo, hi)
			total.merge(scans[ci])
		}
		e := newInteriorEntry(raw, scans, total)
		got, err := DecodeInteriorEntry(AppendInteriorEntry(nil, e))
		if err != nil {
			t.Fatalf("n=%d: decode: %v", n, err)
		}
		eqBits(t, "raw", e.raw, got.raw)
		if !reflect.DeepEqual(e.scans, got.scans) || e.total != got.total {
			t.Fatalf("n=%d: scans/total differ", n)
		}
		// The rebuilt sketch must answer Range bit-identically (and with
		// the same rescan attribution) for any keep.
		for _, keep := range []int{1, 16, n / 3, n} {
			a, ra := e.Range(keep)
			b, rb := got.Range(keep)
			if a != b || ra != rb {
				t.Fatalf("n=%d keep=%d: Range (%+v,%d) != (%+v,%d)", n, keep, a, ra, b, rb)
			}
		}
	}
}

func TestInteriorEntryDecodeRejectsCorrupt(t *testing.T) {
	raw := []float64{1, 2, 3}
	scans := []rangeScan{scanRange(raw, 0, 3)}
	total := scans[0]
	good := AppendInteriorEntry(nil, newInteriorEntry(raw, scans, total))
	if _, err := DecodeInteriorEntry(good[:len(good)-3]); err == nil {
		t.Fatalf("truncated envelope decoded")
	}
	if _, err := DecodeInteriorEntry(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatalf("padded envelope decoded")
	}
	bad := append([]byte(nil), good...)
	bad[0] = 99
	if _, err := DecodeInteriorEntry(bad); err == nil {
		t.Fatalf("wrong version decoded")
	}
}
