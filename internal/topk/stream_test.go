package topk

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// offerElementwise is the element-at-a-time OfferSlice the compacting
// filter replaced, kept as its reference: test the bound, append,
// compact when the buffer reaches the trigger.
func offerElementwise(s *StreamSelector, vals []float64, base int) {
	for off, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		i := base + off
		if s.bounded && !lexLess(v, i, s.boundV, s.boundI) {
			continue
		}
		s.cands = append(s.cands, Cand{V: v, I: i})
		if len(s.cands) >= s.trigger() {
			s.compact()
		}
	}
}

func sortedCands(cands []Cand) []Cand {
	out := slices.Clone(cands)
	sort.Slice(out, func(a, b int) bool { return candLess(out[a], out[b]) })
	return out
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameCand(a, b Cand) bool { return sameFloat(a.V, b.V) && a.I == b.I }

// TestOfferSliceMatchesElementwise drives the filter and its reference
// over the same slices and requires the same candidates and the same
// bound after every one of them, and the same Finish.
func TestOfferSliceMatchesElementwise(t *testing.T) {
	// Each stream draws value i of n from f(rng, i, n).
	streams := []struct {
		name string
		f    func(rng *rand.Rand, i, n int) float64
	}{
		{"uniform", func(rng *rand.Rand, _, _ int) float64 { return rng.Float64() * 100 }},
		// A fifth NaN, and ±Inf, ±0 and duplicates among the rest.
		{"nans", func(rng *rand.Rand, _, _ int) float64 {
			switch rng.Intn(10) {
			case 0, 1:
				return math.NaN()
			case 2:
				return []float64{math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}[rng.Intn(4)]
			case 3, 4:
				return float64(rng.Intn(5))
			}
			return rng.NormFloat64() * 100
		}},
		// Five distinct values: the bound's value recurs at indices on
		// either side of the bound's index (slices arrive out of index
		// order below).
		{"ties", func(rng *rand.Rand, _, _ int) float64 { return float64(rng.Intn(5)) }},
		{"ascending", func(_ *rand.Rand, i, _ int) float64 { return float64(i / 3) }},
		{"descending", func(_ *rand.Rand, i, n int) float64 { return float64(n - i) }},
	}
	rng := rand.New(rand.NewSource(26))
	for _, k := range []int{1, 63, 64, 65, 20512} {
		n := 6*k + 500
		for _, st := range streams {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = st.f(rng, i, n)
			}
			name := fmt.Sprintf("k=%d/%s", k, st.name)
			got, want := NewStreamSelector(k, nil), NewStreamSelector(k, nil)
			// Slices of the lengths that end one short of, exactly at and
			// one past the next compaction, and arbitrary ones, in shuffled
			// order of their bases; every other one through OfferAt.
			type span struct{ lo, hi int }
			var spans []span
			for lo, c := 0, 0; lo < n; c++ {
				room := want.trigger() - len(want.cands)
				ln := room + c%3 - 1
				if c%4 == 3 || ln < 1 {
					ln = 1 + rng.Intn(2*k+70)
				}
				hi := min(n, lo+ln)
				spans = append(spans, span{lo, hi})
				lo = hi
			}
			if st.name != "ascending" && st.name != "descending" {
				rng.Shuffle(len(spans), func(i, j int) { spans[i], spans[j] = spans[j], spans[i] })
			}
			for c, sp := range spans {
				if c%2 == 0 {
					got.OfferSlice(vals[sp.lo:sp.hi], sp.lo)
				} else {
					idx := make([]int, sp.hi-sp.lo)
					for j := range idx {
						idx[j] = sp.lo + j
					}
					got.OfferAt(vals[sp.lo:sp.hi], idx)
				}
				offerElementwise(want, vals[sp.lo:sp.hi], sp.lo)
				if got.bounded != want.bounded || got.boundI != want.boundI || !sameFloat(got.boundV, want.boundV) {
					t.Fatalf("%s: after [%d,%d) bound (%v,%d,%v), want (%v,%d,%v)", name, sp.lo, sp.hi,
						got.boundV, got.boundI, got.bounded, want.boundV, want.boundI, want.bounded)
				}
				if !slices.EqualFunc(sortedCands(got.cands), sortedCands(want.cands), sameCand) {
					t.Fatalf("%s: after [%d,%d) %d candidates, want %d (or other ones)", name, sp.lo, sp.hi, len(got.cands), len(want.cands))
				}
			}
			gc, gk, gdone := got.Finish()
			wc, wk, wdone := want.Finish()
			if gdone != wdone || !sameCand(gk, wk) || !slices.EqualFunc(sortedCands(gc), sortedCands(wc), sameCand) {
				t.Fatalf("%s: Finish (%d cands, %v, %v), want (%d cands, %v, %v)", name, len(gc), gk, gdone, len(wc), wk, wdone)
			}
		}
	}
}

// BenchmarkOfferSlice reads the selection filter at the root pass's
// shape — 200k values in 4096-value slices, k = 20 512 — on a stream in
// random order (whether a value beats the bound is a coin flip early on
// and a 1-in-10 event later) and on an ascending one (the predictor's
// best case: k accepted, then every value rejected).
func BenchmarkOfferSlice(b *testing.B) {
	const (
		n     = 200_000
		k     = 20_512
		chunk = 4096
	)
	rng := rand.New(rand.NewSource(1994))
	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = rng.Float64() * 100
	}
	ascending := slices.Clone(uniform)
	sort.Float64s(ascending)
	for _, c := range []struct {
		name string
		vals []float64
	}{
		{"uniform", uniform},
		{"ascending", ascending},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sel := NewStreamSelector(k, nil)
				for lo := 0; lo < n; lo += chunk {
					sel.OfferSlice(c.vals[lo:min(n, lo+chunk)], lo)
				}
				if _, _, complete := sel.Finish(); !complete {
					b.Fatal("incomplete selection")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
		})
	}
}
