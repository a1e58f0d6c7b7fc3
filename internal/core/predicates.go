package core

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/join"
	"repro/internal/query"
	"repro/internal/relevance"
)

// itemSpace describes the totality of items a query ranges over: single
// table rows, or a (possibly capped) two-table cross product.
type itemSpace struct {
	tables []*dataset.Table
	pairs  []join.Pair // nil for single-table
	n      int
}

// rowFor returns, for item i, the row index in the given table.
func (s *itemSpace) rowFor(i int, table string) (int, error) {
	if s.pairs == nil {
		return i, nil
	}
	switch table {
	case s.tables[0].Name():
		return s.pairs[i].Left, nil
	case s.tables[1].Name():
		return s.pairs[i].Right, nil
	default:
		return 0, fmt.Errorf("core: table %q not part of the item space", table)
	}
}

// tableByName finds a FROM table.
func (s *itemSpace) tableByName(name string) (*dataset.Table, error) {
	for _, t := range s.tables {
		if t.Name() == name {
			return t, nil
		}
	}
	return nil, fmt.Errorf("core: no table %q in item space", name)
}

// condData computes the leaf entry of a simple condition over the item
// space, and how many storage segments the segment-stats pushdown
// skipped out of how many it considered (vector range leaves only; see
// numericCond). attr is the condition's resolved binding, passed
// explicitly so negation rewrites (which evaluate a private copy of the
// condition) never have to touch the shared, read-only Binding. A
// non-nil signed, zeroed and space.n long, receives the signed
// distances the 2D arrangement places items by; a non-nil known holds
// the condition's distances already (its leaf's), which a string
// condition then reuses instead of recomputing them (see stringCond).
// Without signed, the entry is a leaf's, and comes with its code plane.
// A single-table range leaf of a cached run takes the view of its
// column's plane, resolved through cache (columnView), before any pass:
// the view gives every distance the pass would write, so the leaf runs
// no kernel and no pushdown, and its entry holds no vector. With signed,
// the entry's raw vector is signed itself: every writer stores an item's
// distance before its signed distance, so an axis fill writes one vector.
func (e *Engine) condData(cache *RunCache, c *query.Cond, attr query.BoundAttr, space *itemSpace, known, signed []float64) (le leafEntry, segsSkipped, segs int, err error) {
	t, err := space.tableByName(attr.Table)
	if err != nil {
		return leafEntry{}, 0, 0, err
	}
	if lo, hi, edge, ok := viewOf(c, attr, space); ok && cache != nil && signed == nil {
		if le.codes = e.columnView(cache, space, attr, lo, hi, edge); le.codes != nil {
			return le, 0, 0, nil
		}
	}
	le.raw = signed
	if signed == nil {
		le.raw = make([]float64, space.n)
	}
	if attr.Kind.IsNumeric() {
		segsSkipped, segs, err = e.numericCond(c, attr, t, space, &le, signed)
	} else if err = e.stringCond(c, attr, t, space, known, le.raw, signed); err == nil && signed == nil {
		le.codes = e.codes(le.raw)
	}
	if err != nil {
		return leafEntry{}, 0, 0, err
	}
	return le, segsSkipped, segs, nil
}

// numericCond fills le (and signed, when non-nil) for
// numeric/time/bool attributes using the distance-to-range semantics of
// section 3, and reports the segments the pushdown skipped out of those
// it considered.
func (e *Engine) numericCond(c *query.Cond, attr query.BoundAttr, t *dataset.Table, space *itemSpace, le *leafEntry, signed []float64) (segsSkipped, segs int, err error) {
	singleTable := space.pairs == nil
	// Single-table spaces stream the column a segment at a time — a
	// file-backed column never materializes an n-sized copy. Pair spaces
	// index rows non-monotonically, so they keep the materialized column
	// (the pair count is MaxPairs-capped).
	column, err := t.Column(attr.Attr)
	if err != nil {
		return 0, 0, err
	}
	var col []float64
	if !singleTable {
		col = make([]float64, column.Len())
		column.ReadFloats(col, 0)
	}
	lo, hi, pointwise, err := numericRange(c)
	if err != nil {
		return 0, 0, err
	}
	strictLo := c.Op == query.OpGt
	strictHi := c.Op == query.OpLt
	edge := strictEdge(c, lo, hi)
	kernel := !pointwise && c.Op != query.OpIn // OpNe, OpIn: other distances, a per-item loop
	// Segment-stats pushdown (block pruning of the column read): every
	// column carries per-segment min/max and null counts, so a segment
	// whose every row provably lies inside [lo, hi] — stats present, no
	// unusable rows, extremes inside the range with strictness honored —
	// scores range distance exactly 0 on every row, its read (a decode,
	// when the column is file-backed) is skipped outright and the
	// zero-filled raw range — and signed range: +0 inside the range —
	// already holds the exact distances. The gate excludes every per-item
	// semantics the proof does not cover: pair spaces (non-monotonic row
	// order) and OpNe/OpIn (pointwise distances).
	var skip []bool
	if singleTable && kernel {
		segs = (space.n + dataset.SegmentSize - 1) / dataset.SegmentSize
		for si := 0; si < segs; si++ {
			smin, smax, nulls, ok := column.SegmentStats(si)
			if !ok || nulls != 0 {
				continue
			}
			loOK := smin >= lo
			if strictLo {
				loOK = smin > lo
			}
			hiOK := smax <= hi
			if strictHi {
				hiOK = smax < hi
			}
			if loOK && hiOK {
				if skip == nil {
					skip = make([]bool, segs)
				}
				skip[si] = true
				segsSkipped++
			}
		}
	}
	// The per-item pass runs chunked across the worker pool: every chunk
	// writes disjoint slots of raw/signed, and the merged reductions (a
	// max and the boundary items) are order-independent, so the
	// result is bit-identical to the serial loop. Within a chunk, the pass
	// walks segment-aligned subranges — each read into a SegmentSize
	// scratch — so skipped segments drop out wholesale (a parallel chunk
	// may cover a fraction of a segment; both fractions make the same
	// precomputed decision).
	var mu sync.Mutex
	var total rangeKernel // the merged shares
	raw := le.raw
	perr := parallelFor(space.n, e.workers, itemChunk, func(from, to int) error {
		k := rangeKernel{lo: lo, hi: hi, edge: edge}
		var scratch [dataset.SegmentSize]float64
		for s := from; s < to; {
			si := s / dataset.SegmentSize
			end := (si + 1) * dataset.SegmentSize
			if end > to {
				end = to
			}
			if skip != nil && skip[si] {
				// raw[s:end] keeps its zero fill — exactly the distance
				// of every in-range row; the strict-containment proof
				// rules out boundary hits.
				s = end
				continue
			}
			vals := scratch[:end-s]
			if singleTable {
				column.ReadFloats(vals, s)
			} else {
				for j := range vals {
					row, err := space.rowFor(s+j, attr.Table)
					if err != nil {
						return err
					}
					vals[j] = col[row]
				}
			}
			if kernel {
				k.run(raw, signed, vals, s)
				s = end
				continue
			}
			for j, v := range vals {
				i := s + j
				var d, sd float64
				switch {
				case math.IsNaN(v):
					d, sd = math.NaN(), math.NaN()
				case pointwise:
					// OpNe: fulfilled (0) unless equal; the failing direction is
					// undefined, so the item becomes uncolorable (section 4.4).
					if v == lo {
						d, sd = math.NaN(), math.NaN()
					}
				default:
					d, sd = minListDistance(v, c.List)
				}
				raw[i] = d
				if signed != nil {
					signed[i] = sd
				}
			}
			s = end
		}
		mu.Lock()
		total.max = max(total.max, k.max)
		total.boundary = append(total.boundary, k.boundary...)
		mu.Unlock()
		return nil
	})
	if perr != nil {
		return 0, 0, perr
	}
	dmax := total.max // the largest finite distance written, the boundary rows' too
	if len(total.boundary) > 0 {
		eps := relevance.EdgeEps(total.max)
		dmax = max(dmax, eps)
		for _, i := range total.boundary {
			raw[i] = eps
			if signed != nil {
				if strictLo {
					signed[i] = -eps
				} else {
					signed[i] = eps
				}
			}
		}
	}
	switch {
	case signed != nil:
	case kernel:
		// A pair space's leaf, an uncached run's (which has no tier to
		// keep a column plane in) or one over a column whose distances
		// overflow is coded while its compute is paid for: range
		// distances lie in [0, dmax].
		le.codes = e.codesOver(raw, 0, dmax)
	default:
		le.codes = e.codes(raw)
	}
	return segsSkipped, segs, nil
}

// strictEdge is the bound a strict operator excludes, NaN (equal to no
// value) for every other: a value sitting exactly on it is not a correct
// answer, but its distance to fulfillment is infinitesimal. Such items
// are given a small positive distance relative to the predicate's scale,
// so they rank just behind the correct answers without being painted
// yellow.
func strictEdge(c *query.Cond, lo, hi float64) float64 {
	switch c.Op {
	case query.OpGt:
		return lo
	case query.OpLt:
		return hi
	}
	return math.NaN()
}

// viewOf reports whether c's leaf over space is a view of its column's
// plane — a numeric condition whose distance is the distance to a range
// ([lo, hi], strict bound edge), over a single table — and its target.
func viewOf(c *query.Cond, attr query.BoundAttr, space *itemSpace) (lo, hi, edge float64, ok bool) {
	if !attr.Kind.IsNumeric() || space.pairs != nil {
		return 0, 0, 0, false
	}
	lo, hi, pointwise, err := numericRange(c)
	if err != nil || pointwise || c.Op == query.OpIn {
		return 0, 0, 0, false
	}
	return lo, hi, strictEdge(c, lo, hi), true
}

// columnView is the code plane of a range leaf over a column of the
// item space's one table: the view of the column's plane for the target
// [lo, hi] and the strict bound edge (relevance.Codes.View), nil where
// the plane refuses one. The view holds the kernel's distances: its
// eps is the kernel's, from the same largest finite distance.
func (e *Engine) columnView(cache *RunCache, space *itemSpace, attr query.BoundAttr, lo, hi, edge float64) *relevance.Codes {
	cp, err := e.columnPlane(cache, space, attr)
	if err != nil {
		return nil
	}
	view, _ := cp.View(lo, hi, edge)
	return view
}

// columnPlane is the code plane of a numeric column of the item space's
// one table, over the column's values, coded once per column and catalog
// epoch: an entry of cache's tier (columnKey), under its budget, that
// never leaves the process and counts in no hit ratio. The plane keeps
// the values its build reads (relevance.NewColumnCodes), 8n counted in
// its entry beside its n code bytes, and its views compute their
// distances from them. No run pins it: a Result reads a range leaf's
// view, which holds the plane's codes and values, and the plane itself
// only makes views; a run keeps it resident after each leaf that holds
// one of them (SharedCache.keep). The column is read and its extremes
// found in one pass across the engine's workers, then coded.
func (e *Engine) columnPlane(cache *RunCache, space *itemSpace, attr query.BoundAttr) (*relevance.Codes, error) {
	t, err := space.tableByName(attr.Table)
	if err != nil {
		return nil, err
	}
	column, err := t.Column(attr.Attr)
	if err != nil {
		return nil, err
	}
	le, _, err := cache.Shared().fetch(e.columnKey(space, attr), space.n, nil, func() (leafEntry, error) {
		vals := make([]float64, space.n)
		lo, hi := e.extremes(vals, column.ReadFloats)
		return leafEntry{codes: e.encode(relevance.NewColumnCodes(vals, lo, hi), vals)}, nil
	})
	return le.codes, err
}

// columnKey keys the code plane of a numeric column of the item space's
// one table.
func (e *Engine) columnKey(space *itemSpace, attr query.BoundAttr) string {
	return runKeys{space: e.spaceSig(space)}.column(attr.Qualified())
}

// rangeKernel is one worker's share of a range condition's distance
// pass: relevance.RangeDistances over the worker's values, with no edge
// (the caller assigns the boundary rows' distances once the largest
// finite distance is known), and, under the 2D arrangement,
// distance.ToRangeSigned bit for bit: the distance with the sign of
// v < lo (v − lo is −(lo − v) exactly). The running maximum and the rows
// on a strict operator's bound (edge) are read off the written chunk.
type rangeKernel struct {
	lo, hi, edge float64
	max          float64 // largest finite distance written
	boundary     []int   // items equal to edge; the caller assigns their distances
}

// run writes the distances of vals, items base.. base+len(vals), into
// those items of raw and, when non-nil, of signed.
func (k *rangeKernel) run(raw, signed, vals []float64, base int) {
	const signBit = 1 << 63
	raw = raw[base : base+len(vals)]
	relevance.RangeDistances(raw, vals, k.lo, k.hi, math.NaN(), 0)
	edge, mx, boundary := k.edge, k.max, k.boundary
	for j, v := range vals {
		if v == edge {
			boundary = append(boundary, base+j)
		}
		if d := raw[j]; d > mx && !math.IsInf(d, 1) {
			mx = d
		}
	}
	k.max, k.boundary = mx, boundary
	if signed != nil { // after the reads above: an axis fill's raw is signed itself
		signed = signed[base : base+len(vals)]
		for j, v := range vals {
			signed[j] = math.Float64frombits(math.Float64bits(raw[j]) | signBit&-b2u(v < k.lo))
		}
	}
}

// b2u is 1 for true and 0 for false, as a flag-to-register move.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// numericRange derives the target interval of a numeric condition.
// pointwise is true for OpNe, where lo carries the excluded value.
func numericRange(c *query.Cond) (lo, hi float64, pointwise bool, err error) {
	valueOf := func(v dataset.Value) (float64, error) {
		f, ok := v.AsFloat()
		if !ok {
			return 0, fmt.Errorf("core: literal %s is not numeric for %q", v, c.Attr)
		}
		return f, nil
	}
	switch c.Op {
	case query.OpGt, query.OpGe:
		v, err := valueOf(c.Value)
		return v, math.Inf(1), false, err
	case query.OpLt, query.OpLe:
		v, err := valueOf(c.Value)
		return math.Inf(-1), v, false, err
	case query.OpEq:
		v, err := valueOf(c.Value)
		return v, v, false, err
	case query.OpNe:
		v, err := valueOf(c.Value)
		return v, v, true, err
	case query.OpBetween:
		l, err := valueOf(c.Lo)
		if err != nil {
			return 0, 0, false, err
		}
		h, err := valueOf(c.Hi)
		return l, h, false, err
	case query.OpIn:
		// Range is informational only (min..max of the list).
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range c.List {
			f, err := valueOf(v)
			if err != nil {
				return 0, 0, false, err
			}
			lo = math.Min(lo, f)
			hi = math.Max(hi, f)
		}
		return lo, hi, false, nil
	default:
		return 0, 0, false, fmt.Errorf("core: unsupported numeric operator %s", c.Op)
	}
}

// minListDistance returns the distance to the nearest IN-list member and
// its signed counterpart.
func minListDistance(v float64, list []dataset.Value) (raw, signed float64) {
	best := math.Inf(1)
	bestSigned := math.Inf(1)
	for _, lv := range list {
		f, ok := lv.AsFloat()
		if !ok {
			continue
		}
		d := math.Abs(v - f)
		if d < best {
			best = d
			bestSigned = v - f
		}
	}
	if math.IsInf(best, 1) {
		return math.NaN(), math.NaN()
	}
	return best, bestSigned
}

// stringCond fills dists (and signed, when non-nil) for
// string/ordinal/nominal attributes using the string distances and
// distance matrices of section 3. A non-nil known, the condition's
// distances, answers the distance to the target of = and to the nearest
// member of IN, so only the cheap orderings behind the signs run.
func (e *Engine) stringCond(c *query.Cond, attr query.BoundAttr, t *dataset.Table, space *itemSpace, known, dists, signed []float64) error {
	col, err := t.Column(attr.Attr)
	if err != nil {
		return err
	}
	// Resolve the distance: explicit USING overrides; otherwise ordinal
	// attributes use their category-rank matrix, nominal the discrete
	// matrix, and strings edit distance.
	var strDist distance.StringFunc
	var matrix *distance.Matrix
	fieldIdx := t.Schema().Index(attr.Attr)
	categories := t.Schema()[fieldIdx].Categories
	switch {
	case c.DistFunc != "":
		f, err := e.reg.String(c.DistFunc)
		if err != nil {
			return err
		}
		strDist = f
	case attr.Kind == dataset.KindOrdinal:
		m, err := distance.Ordinal(categories)
		if err != nil {
			return err
		}
		matrix = m
	case attr.Kind == dataset.KindNominal:
		m, err := distance.Discrete(categories)
		if err != nil {
			return err
		}
		matrix = m
	default:
		f, err := e.reg.String("edit")
		if err != nil {
			return err
		}
		strDist = f
	}
	dist := func(a, b string) float64 {
		if matrix != nil {
			d, _ := matrix.Dist(a, b)
			return d
		}
		return strDist(a, b)
	}
	// signedOrder gives a direction for ordered string predicates:
	// ordinal ranks when available, lexicographic comparison otherwise.
	signedOrder := func(v, target string) float64 {
		if matrix != nil && attr.Kind == dataset.KindOrdinal {
			rv, rt := matrix.Rank(v), matrix.Rank(target)
			if rv >= 0 && rt >= 0 {
				return float64(rv - rt)
			}
		}
		mag := distance.Lexicographic(v, target)
		return float64(strings.Compare(v, target)) * mag
	}
	// Chunked across the worker pool: string distances (edit distance in
	// particular) dominate this loop, every chunk writes disjoint slots,
	// and the distance functions and matrices are stateless/read-only.
	return parallelFor(space.n, e.workers, itemChunk, func(from, to int) error {
		for i := from; i < to; i++ {
			row, err := space.rowFor(i, attr.Table)
			if err != nil {
				return err
			}
			var raw, sd float64
			val := col.Value(row)
			s, ok := val.AsString()
			if !ok {
				raw, sd = math.NaN(), math.NaN()
			} else {
				switch c.Op {
				case query.OpEq:
					tgt := c.Value.S
					if known != nil {
						raw = known[i]
					} else {
						raw = dist(s, tgt)
					}
					sd = math.Copysign(raw, signedOrder(s, tgt))
				case query.OpNe:
					if s == c.Value.S {
						raw, sd = math.NaN(), math.NaN()
					}
				case query.OpIn:
					best := math.Inf(1)
					if known != nil {
						best = known[i]
					} else {
						for _, lv := range c.List {
							if d := dist(s, lv.S); d < best {
								best = d
							}
						}
					}
					raw, sd = best, best
				case query.OpGt, query.OpGe:
					if o := signedOrder(s, c.Value.S); o < 0 {
						raw, sd = -o, o
					}
				case query.OpLt, query.OpLe:
					if o := signedOrder(s, c.Value.S); o > 0 {
						raw, sd = o, o
					}
				case query.OpBetween:
					oLo := signedOrder(s, c.Lo.S)
					oHi := signedOrder(s, c.Hi.S)
					switch {
					case oLo < 0:
						raw, sd = -oLo, oLo
					case oHi > 0:
						raw, sd = oHi, oHi
					}
				default:
					return fmt.Errorf("core: unsupported string operator %s", c.Op)
				}
			}
			dists[i] = raw
			if signed != nil {
				signed[i] = sd
			}
		}
		return nil
	})
}
