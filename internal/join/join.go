// Package join implements the approximate joins of section 4.4 of the
// paper: multi-table queries score every pair of the cross product by
// how closely it fulfills the join condition, so pairs that miss exact
// equality by a small time offset or a short distance still surface as
// approximate answers. It also provides the exact equi-join baseline,
// join-partner counting, and the minimum-distance semantics used for
// EXISTS/IN subqueries.
package join

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/dataset"
	"repro/internal/distance"
)

// Pair identifies one element of a two-table cross product by row
// indices.
type Pair struct {
	Left  int
	Right int
}

// Pairs enumerates the cross product of nLeft×nRight rows. When the
// product exceeds maxPairs (> 0), pairs are subsampled with a
// deterministic stride so the totality stays tractable — the paper
// acknowledges that with cross products "the totality of data items
// that are considered is much larger and the percentage that can be
// displayed is correspondingly lower"; the stride keeps the sample
// spread uniformly over the product.
//
// The product is computed in 128-bit arithmetic: nLeft×nRight can
// overflow int for large tables, which previously wrapped negative and
// made the "materialize everything" branch attempt a negative-capacity
// allocation before the maxPairs cap could apply.
func Pairs(nLeft, nRight, maxPairs int) []Pair {
	if nLeft <= 0 || nRight <= 0 {
		return nil
	}
	hi, lo := bits.Mul64(uint64(nLeft), uint64(nRight))
	if maxPairs <= 0 && hi == 0 && lo <= uint64(math.MaxInt) {
		// No cap and the product is representable: materialize it all.
		return allPairs(nLeft, nRight, int(lo))
	}
	if maxPairs <= 0 {
		// No cap but the product overflows int: no slice could hold it
		// anyway; fall back to the package default cap.
		maxPairs = 1 << 20
	}
	if hi == 0 && lo <= uint64(maxPairs) {
		return allPairs(nLeft, nRight, int(lo))
	}
	// Subsample with stride = ceil(total / maxPairs), using the 128-bit
	// quotient so the overflow regime subsamples correctly instead of
	// wrapping. bits.Div64 requires hi < divisor; when even the stride
	// would overflow 64 bits (total ≥ maxPairs·2⁶⁴ — unreachable for
	// in-memory tables) it degrades to one pair.
	var stride uint64
	if hi >= uint64(maxPairs) {
		stride = math.MaxUint64
	} else {
		q, rem := bits.Div64(hi, lo, uint64(maxPairs))
		stride = q
		if rem != 0 {
			stride++
		}
	}
	out := make([]Pair, 0, maxPairs)
	nr := uint64(nRight)
	for l, r := uint64(0), uint64(0); l < uint64(nLeft); {
		out = append(out, Pair{Left: int(l), Right: int(r)})
		// Advance the linear index l·nRight + r by stride without ever
		// materializing it.
		r += stride % nr
		l += stride / nr
		if r >= nr {
			r -= nr
			l++
		}
	}
	return out
}

// allPairs materializes the full cross product of total pairs.
func allPairs(nLeft, nRight, total int) []Pair {
	out := make([]Pair, 0, total)
	for l := 0; l < nLeft; l++ {
		for r := 0; r < nRight; r++ {
			out = append(out, Pair{Left: l, Right: r})
		}
	}
	return out
}

// ConnDistancesRange scores pairs[from:to] into out[from:to] with the
// connection's distance; null join attributes yield NaN entries. The
// engine's chunked leaf pass runs it over disjoint ranges concurrently.
func ConnDistancesRange(conn dataset.Connection, lt, rt *dataset.Table, pairs []Pair, out []float64, from, to int, reg *distance.Registry) error {
	for i := from; i < to; i++ {
		p := pairs[i]
		d, err := conn.Distance(lt, rt, p.Left, p.Right, reg)
		if err != nil {
			return fmt.Errorf("join: pair (%d,%d): %w", p.Left, p.Right, err)
		}
		out[i] = d
	}
	return nil
}

// Equi computes the exact equality join on one attribute pair using a
// hash join — the traditional-join baseline the paper contrasts with
// approximate joins ("join conditions requiring time or location
// equality would provide only very few or even no results").
func Equi(lt, rt *dataset.Table, lAttr, rAttr string) ([]Pair, error) {
	lc, err := lt.Column(lAttr)
	if err != nil {
		return nil, err
	}
	rc, err := rt.Column(rAttr)
	if err != nil {
		return nil, err
	}
	// Build the hash side on the smaller relation.
	index := make(map[string][]int)
	for i := 0; i < rc.Len(); i++ {
		if rc.IsNull(i) {
			continue
		}
		index[rc.Value(i).String()] = append(index[rc.Value(i).String()], i)
	}
	var out []Pair
	for i := 0; i < lc.Len(); i++ {
		if lc.IsNull(i) {
			continue
		}
		for _, r := range index[lc.Value(i).String()] {
			out = append(out, Pair{Left: i, Right: r})
		}
	}
	return out, nil
}

// PartnerCountsRange counts, for left rows [from, to), the right rows
// whose connection distance is at most eps into out[from:to] — its
// inverse is the join-partner distance of section 4.4 ("the user might
// use the inverse of that number as the distance"). The engine's chunked
// leaf pass runs it over disjoint ranges concurrently.
func PartnerCountsRange(conn dataset.Connection, lt, rt *dataset.Table, eps float64, out []int, from, to int, reg *distance.Registry) error {
	nr := rt.NumRows()
	for l := from; l < to; l++ {
		for r := 0; r < nr; r++ {
			d, err := conn.Distance(lt, rt, l, r, reg)
			if err != nil {
				return err
			}
			if !math.IsNaN(d) && d <= eps {
				out[l]++
			}
		}
	}
	return nil
}

// PartnerDistances maps partner counts through distance.InverseCount.
func PartnerDistances(counts []int) []float64 {
	out := make([]float64, len(counts))
	for i, c := range counts {
		out[i] = distance.InverseCount(c)
	}
	return out
}

// MinDistancePerLeft returns, for every left row, the minimum connection
// distance over all right rows, optionally blended (arithmetic mean)
// with a per-right-row condition distance innerDist. This implements the
// subquery semantics of section 4.4: "the data item most closely
// fulfilling the subquery condition can be determined by the minimum
// distance in performing an approximate join of the inner and the outer
// relation(s)". innerDist may be nil (pure join distance); NaN inner
// distances disqualify their right row.
func MinDistancePerLeft(conn dataset.Connection, lt, rt *dataset.Table, innerDist []float64, reg *distance.Registry) ([]float64, error) {
	nl, nr := lt.NumRows(), rt.NumRows()
	if innerDist != nil && len(innerDist) != nr {
		return nil, fmt.Errorf("join: innerDist has %d entries for %d right rows", len(innerDist), nr)
	}
	out := make([]float64, nl)
	for l := 0; l < nl; l++ {
		best := math.NaN()
		for r := 0; r < nr; r++ {
			d, err := conn.Distance(lt, rt, l, r, reg)
			if err != nil {
				return nil, err
			}
			if math.IsNaN(d) {
				continue
			}
			if innerDist != nil {
				if math.IsNaN(innerDist[r]) {
					continue
				}
				d = (d + innerDist[r]) / 2
			}
			if math.IsNaN(best) || d < best {
				best = d
			}
		}
		out[l] = best
	}
	return out, nil
}
