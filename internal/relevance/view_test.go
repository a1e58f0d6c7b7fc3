package relevance

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// rangeLeaf is the range leaf over the column vals that a single-table
// range condition's kernel writes: the distance to [lo, hi] (lo − v below
// it, v − hi above it, 0 inside, NaN for NaN), except that a value equal
// to edge — a strict operator's bound, NaN for none — is at eps, the
// largest finite distance of the other rows over 128 (1 when that is 0).
func rangeLeaf(vals []float64, lo, hi, edge float64) []float64 {
	raw := make([]float64, len(vals))
	mx := 0.0
	for i, v := range vals {
		if raw[i] = rangeDist(v, lo, hi); raw[i] > mx && !math.IsInf(raw[i], 1) {
			mx = raw[i]
		}
	}
	eps := mx / 128
	if eps == 0 {
		eps = 1
	}
	for i, v := range vals {
		if v == edge {
			raw[i] = eps
		}
	}
	return raw
}

// rangeDist is the distance of v to [lo, hi], as the kernel computes it.
func rangeDist(v, lo, hi float64) float64 {
	switch {
	case v != v:
		return math.NaN()
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	}
	return 0
}

// viewKeeps is every stride-th keep from -1 to n+1 and, past a stride of
// 1, keeps around the count of the codes whose distance intervals start
// or end at or below each code's, where viewRange's brackets move: 120
// of them spread over all, as each costs a NormRange.
func viewKeeps(view *Codes, stride int) []int {
	keeps := codeRangeKeeps(view, stride)
	if stride == 1 {
		return keeps
	}
	for _, edge := range [][256]float64{view.lo, view.hi} {
		cs := make([]int, 0, codeNaN)
		for c := range codeNaN {
			cs = append(cs, c)
		}
		slices.SortFunc(cs, func(a, b int) int { return cmp.Compare(edge[a], edge[b]) })
		at := 0
		for _, c := range cs {
			at += int(view.counts[c])
			keeps = append(keeps, at-1, at, at+1)
		}
	}
	slices.Sort(keeps)
	keeps = slices.Compact(keeps)
	step := (len(keeps) + 119) / 120
	var some []int
	for i := 0; i < len(keeps); i += step {
		some = append(some, keeps[i])
	}
	return some
}

// columnPlane codes the column vals as a column plane, which keeps them.
func columnPlane(vals []float64) *Codes {
	lo, hi := FiniteExtremes(vals)
	cp := NewColumnCodes(vals, lo, hi)
	cp.Encode(vals, 0, cp.Chunks())
	return cp
}

// checkView codes the column vals, takes the view of a range leaf over
// [lo, hi] with the strict bound edge, and holds every row's kernel
// distance to its code's interval, to the view's distance of the row —
// read by chunk (dists, over evaluator chunks and a ragged split) and by
// row list (distsAt, in a shuffled order with repeats) — and the view's
// ranges to NormRange's over the kernel's distances, bit for bit, the
// sign of a zero and a NaN's payload included. A view the plane refuses
// must be one of a column whose largest finite distance is not at its
// extremes: a finite value's distance overflows. It returns the view
// (nil when refused) and the distances.
func checkView(t testing.TB, what string, vals []float64, lo, hi, edge float64) (*Codes, []float64) {
	t.Helper()
	raw := rangeLeaf(vals, lo, hi, edge)
	col := columnPlane(vals)
	if _, ok := BuildCodes(vals).View(lo, hi, edge); ok {
		t.Fatalf("%s: a plane that keeps no values gave a view", what)
	}
	view, ok := col.View(lo, hi, edge)
	if !ok {
		for _, v := range vals {
			if math.IsInf(rangeDist(v, lo, hi), 1) && !math.IsInf(v, 0) {
				return nil, raw
			}
		}
		t.Fatalf("%s: the view is refused, and no finite value's distance overflows", what)
	}
	if view.ID() != col.ID() || len(vals) > 0 && &view.codes[0] != &col.codes[0] || view.counts != col.counts {
		t.Fatalf("%s: the view does not share its column's codes, counts and ID", what)
	}
	for i, d := range raw {
		c := view.codes[i]
		l, h := view.lo[c], view.hi[c]
		switch {
		case d != d:
			if l == l || h == h {
				t.Fatalf("%s: row %d (value %v) is NaN, its code %d's interval [%v, %v]", what, i, vals[i], c, l, h)
			}
		case !(l <= d && d <= h):
			t.Fatalf("%s: row %d (value %v) at %v [%#x] lies outside its code %d's [%v, %v]", what, i, vals[i], d, math.Float64bits(d), c, l, h)
		}
	}
	sameRows := func(how string, got []float64, rows func(int) int) {
		t.Helper()
		for j, d := range got {
			if i := rows(j); math.Float64bits(d) != math.Float64bits(raw[i]) {
				t.Fatalf("%s: %s: row %d (value %v) at %v [%#x], the kernel's %v [%#x]", what, how, i, vals[i],
					d, math.Float64bits(d), raw[i], math.Float64bits(raw[i]))
			}
		}
	}
	got := make([]float64, len(vals))
	for _, step := range []int{evalChunk, 7} {
		for lo := 0; lo < len(vals); lo += step {
			hi := min(lo+step, len(vals))
			copy(got[lo:hi], rawVals{view: view}.chunk(make([]float64, step), lo, hi))
		}
		sameRows(fmt.Sprintf("chunks of %d", step), got, func(j int) int { return j })
	}
	ids := make([]int, 0, 2*len(vals))
	for i := range vals {
		ids = append(ids, len(vals)-1-i, i*7%len(vals))
	}
	got = make([]float64, len(ids))
	rawVals{view: view}.rows(got, ids)
	sameRows("row list", got, func(j int) int { return ids[j] })
	stride := 1
	if len(vals) > 300 {
		stride = len(vals) / 40
	}
	for _, keep := range viewKeeps(view, stride) {
		want := NormRange(raw, keep)
		if got, _ := view.Range(nil, keep); !sameParams(got, want) {
			t.Fatalf("%s: keep %d: the view's range %+v [%#x %#x], NormRange %+v [%#x %#x]", what, keep,
				got, math.Float64bits(got.DMin), math.Float64bits(got.DMax),
				want, math.Float64bits(want.DMin), math.Float64bits(want.DMax))
		}
	}
	return view, raw
}

// viewBounds are the (lo, hi) pairs a view is taken with: ordinary,
// lo == hi, inverted, on ±0, open-ended, NaN, and past the column.
var viewBounds = [][2]float64{
	{40, 60}, {50, 50}, {60, 40}, {0, 0}, {math.Copysign(0, -1), 10}, {math.Inf(-1), 20},
	{80, math.Inf(1)}, {math.Inf(1), math.Inf(1)}, {math.NaN(), 30}, {-5, math.NaN()}, {-50, -20}, {200, 300},
}

// TestColumnView: over columns of every awkward shape — NaN, ±Inf and
// ±0 mixes, duplicates heavy enough that a bound is a whole class, one
// value, uniform and ascending values — and every bound shape with no
// strict edge and with either bound strict, every row lies in its view
// code's interval and every range equals NormRange bit for bit.
func TestColumnView(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	negZero := math.Copysign(0, -1)
	shapes := []leafShape{
		{"uniform", func(rng *rand.Rand, n int) []float64 { return fill(n, func() float64 { return rng.Float64() * 100 }) }},
		{"ascending", func(rng *rand.Rand, n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = float64(i)/float64(n)*100 + rng.Float64()
			}
			return v
		}},
		{"integers", func(rng *rand.Rand, n int) []float64 {
			return fill(n, func() float64 { return float64(rng.Intn(12) * 10) })
		}},
		{"specials", pick(math.NaN(), math.Inf(1), math.Inf(-1), 0, negZero, 40, 60, 5e-324, math.Nextafter(40, 0))},
		{"awkward", awkwardFloats},
		{"one value", pick(50)},
		{"none finite", pick(math.NaN(), math.Inf(1))},
	}
	for _, s := range shapes {
		for _, n := range []int{1, 37, 2*evalChunk + 5} {
			vals := s.gen(rng, n)
			for bi, b := range viewBounds {
				if n > 300 && bi%3 != 0 {
					continue // the long columns take every third bound shape
				}
				for _, edge := range []float64{math.NaN(), b[0], b[1]} {
					checkView(t, fmt.Sprintf("%s n=%d [%v, %v] edge %v", s.name, n, b[0], b[1], edge), vals, b[0], b[1], edge)
				}
			}
		}
	}
}

// FuzzColumnView gives the fuzzer the column and the range: the first
// two float64s of the input are lo and hi, the rest the column, repeated
// reps times; strict picks the edge (none, lo or hi).
func FuzzColumnView(f *testing.F) {
	rng := rand.New(rand.NewSource(49))
	negZero := math.Copysign(0, -1)
	for _, b := range viewBounds {
		for strict := range uint8(3) {
			data := binary.LittleEndian.AppendUint64(nil, math.Float64bits(b[0]))
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(b[1]))
			vals := pick(math.NaN(), math.Inf(1), math.Inf(-1), 0, negZero, 40, 60, 60, 33.25, b[0], b[1])(rng, 30)
			for _, v := range vals {
				data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
			}
			f.Add(data, uint8(1+rng.Intn(80)), strict)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, reps, strict uint8) {
		var vals []float64
		for ; len(data) >= 8; data = data[8:] {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		if len(vals) < 3 {
			return
		}
		lo, hi := vals[0], vals[1]
		col := make([]float64, 0, len(vals[2:])*int(1+reps%16))
		for range 1 + reps%16 {
			col = append(col, vals[2:]...)
		}
		edge := []float64{math.NaN(), lo, hi}[strict%3]
		checkView(t, fmt.Sprintf("[%v, %v] edge %v", lo, hi, edge), col, lo, hi, edge)
	})
}
