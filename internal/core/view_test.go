package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/relevance"
)

// viewCatalog is the table V of the view differential: a column with
// NaNs (n), one with ±Inf (f), one with nulls (z), a duplicate-heavy one
// of a few integers (d) and a uniform one (u), over rows rows; the
// integer values sit on the scripts' bounds.
func viewCatalog(t *testing.T, rows int) *dataset.Catalog {
	t.Helper()
	rng := rand.New(rand.NewSource(51))
	tbl, err := dataset.NewTable("V", dataset.Schema{
		{Name: "n", Kind: dataset.KindFloat}, {Name: "f", Kind: dataset.KindFloat},
		{Name: "z", Kind: dataset.KindFloat}, {Name: "d", Kind: dataset.KindFloat},
		{Name: "u", Kind: dataset.KindFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rows; r++ {
		n := dataset.Float(float64(rng.Intn(100)))
		if rng.Intn(20) == 0 {
			n = dataset.Float(math.NaN())
		}
		f := dataset.Float(rng.Float64() * 100)
		if k := rng.Intn(40); k < 2 {
			f = dataset.Float(math.Inf(1 - 2*k))
		}
		z := dataset.Float(rng.Float64() * 100)
		if rng.Intn(30) == 0 {
			z = dataset.Null(dataset.KindFloat)
		}
		d := dataset.Float(float64(10 * rng.Intn(6)))
		if err := tbl.AppendRow(n, f, z, d, dataset.Float(rng.Float64()*100)); err != nil {
			t.Fatal(err)
		}
	}
	cat := dataset.NewCatalog()
	if err := cat.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	return cat
}

// viewPred is one range predicate of a view script: attr op value (or
// BETWEEN lo AND hi) with a weight.
type viewPred struct {
	attr   string
	op     string
	lo, hi int
	w      int
}

func (p viewPred) String() string {
	s := fmt.Sprintf("%s %s %d", p.attr, p.op, p.lo)
	if p.op == "BETWEEN" {
		s = fmt.Sprintf("%s BETWEEN %d AND %d", p.attr, p.lo, p.hi)
	}
	if p.w != 1 {
		s += fmt.Sprintf(" WEIGHT %d", p.w)
	}
	return s
}

// TestViewLeavesMatchVectorsAndFullSort is the differential of the view
// leaf: over seeded scripts of range drags, weight drags and undos on
// three query shapes — a nested part, a three-leaf root and a leaf root
// — a cached engine whose range leaves are views of their columns'
// planes, an uncached engine whose range leaves are distance vectors,
// and a fresh FullSort engine rank, scale and draw every step bit for
// bit, panel counts included (a selection saturated with exact answers
// counts them from its bounds). Every cached range leaf's entry holds no vector, is keyed local,
// and no step puts anything to the remote tier the cached engine stands
// on. The columns hold NaN, ±Inf, nulls and a few duplicated integers on
// which strict bounds fall.
func TestViewLeavesMatchVectorsAndFullSort(t *testing.T) {
	cat := viewCatalog(t, minPairRows+700) // two-child roots filter over a PairIndex
	opt := Options{GridW: 24, GridH: 24}
	full := opt
	full.FullSort = true
	ops := []string{">", "<", ">=", "<=", "=", "BETWEEN"}
	shapes := []struct {
		name  string
		attrs []string
		sql   func(p []viewPred) string
	}{
		{"nested part", []string{"n", "f", "z", "d"}, func(p []viewPred) string {
			return fmt.Sprintf("(%v AND (%v OR %v)) OR %v", p[0], p[1], p[2], p[3])
		}},
		{"three-leaf root", []string{"d", "u", "z"}, func(p []viewPred) string {
			return fmt.Sprintf("%v AND %v AND %v", p[0], p[1], p[2])
		}},
		{"leaf root", []string{"d"}, func(p []viewPred) string { return p[0].String() }},
	}
	for si, shape := range shapes {
		rng := rand.New(rand.NewSource(int64(77 + si)))
		backend := newMapBackend()
		cache := NewRunCache()
		cache.AttachShared(NewSharedCacheOpts(SharedOptions{Backend: backend}))
		cached, vectors := New(cat, nil, opt), New(cat, nil, opt)
		preds := make([]viewPred, len(shape.attrs))
		for j, a := range shape.attrs {
			preds[j] = viewPred{attr: a, op: ops[rng.Intn(len(ops))], lo: 10 * rng.Intn(6), hi: 60, w: 1}
		}
		var undo [][]viewPred
		for step := 0; step < 24; step++ {
			switch r := rng.Intn(10); {
			case step == 0:
			case r < 5: // a range drag: a new bound, often a strict one on a duplicated value
				undo = append(undo, append([]viewPred(nil), preds...))
				p := &preds[rng.Intn(len(preds))]
				p.op, p.lo = ops[rng.Intn(len(ops))], 10*rng.Intn(6)+rng.Intn(2)*rng.Intn(10)
				p.hi = p.lo + 5*rng.Intn(8)
			case r < 8:
				undo = append(undo, append([]viewPred(nil), preds...))
				preds[rng.Intn(len(preds))].w = 1 + rng.Intn(4)
			case len(undo) > 0:
				preds, undo = undo[len(undo)-1], undo[:len(undo)-1]
			}
			sql := "SELECT u FROM V WHERE " + shape.sql(preds)
			what := fmt.Sprintf("%s step %d: %s", shape.name, step, sql)
			want, err := New(cat, nil, full).RunSQL(sql)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			vec, err := vectors.RunSQL(sql)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			got, err := runCached(cached, mustParse(t, sql), cache)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			sameResults(t, want, vec)
			sameResults(t, want, got)
			if a, b, c := want.Stats(), vec.Stats(), got.Stats(); a != b || a != c {
				t.Fatalf("%s: panels %+v, %+v (vectors), %+v (views)", what, a, b, c)
			}
			samePredicateInfos(t, what, want, got)
			viewLeaves(t, what, got, cache)
			backend.mu.Lock()
			puts := backend.puts
			backend.mu.Unlock()
			if puts != 0 {
				t.Fatalf("%s: %d puts to the remote tier", what, puts)
			}
		}
	}
}

// viewLeaves holds every leaf of res's tree to a view leaf: its entry,
// as cache pins it, holds a view and no distance vector, under a key
// that never travels.
func viewLeaves(t *testing.T, what string, res *Result, cache *RunCache) {
	t.Helper()
	var walk func(n *relevance.Node)
	walk = func(n *relevance.Node) {
		if n.Op != relevance.Leaf {
			for _, ch := range n.Children {
				walk(ch)
			}
			return
		}
		cache.mu.Lock()
		le, ok := cache.live.leaves[n.Key]
		cache.mu.Unlock()
		if !ok || le.codes.Column() == nil || len(le.raw) != 0 || len(n.Dists) != 0 || !isLocal(n.Key) || !strings.HasPrefix(n.Key, viewTag) {
			t.Fatalf("%s: leaf %q (pinned %v) is no view leaf: %d distances, key %q", what, n.Label, ok, len(le.raw), n.Key)
		}
	}
	walk(res.root)
}
