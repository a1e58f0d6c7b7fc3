package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query"
)

// TestWeightDragReadsPairIndex: over more rows than a PairIndex has
// groups, a flat two-leaf root's first run builds the index of its
// children's planes beside the two leaves and the planes of their
// columns, of which the leaves' planes are views. A weight drag reads it
// — from the pins, and in another session from the tier — and builds
// nothing, and the tier counts its lookups in neither Hits nor Misses.
// So do two range drags on one child: each computes the leaf alone, whose
// view codes its rows as the column's plane does, and the one index
// entry serves them. Every ranking equals a fresh FullSort engine's.
func TestWeightDragReadsPairIndex(t *testing.T) {
	cat := interiorCatalog(t, minPairRows+300)
	e := New(cat, nil, Options{GridW: 16, GridH: 16})
	q := mustParse(t, `SELECT a FROM S WHERE a > 50 AND c < 40`)
	sc := NewSharedCache(0, 0)
	run := func(step string, c *RunCache, fills, hits, misses uint64) string {
		t.Helper()
		before := sc.Stats()
		res, err := runCached(e, q, c)
		if err != nil {
			t.Fatal(err)
		}
		full, err := New(cat, nil, Options{GridW: 16, GridH: 16, FullSort: true}).Run(q)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, full, res)
		after := sc.Stats()
		if after.Fills-before.Fills != fills || after.Hits-before.Hits != hits || after.Misses-before.Misses != misses {
			t.Fatalf("%s: the tier went from %+v to %+v", step, before, after)
		}
		ch := res.root.Children
		key := res.keys.pairs(ch[0].Codes, ch[1].Codes)
		if !resident(sc, key) {
			t.Fatalf("%s: no index under %q", step, key)
		}
		return key
	}
	a := NewRunCache()
	a.AttachShared(sc)
	first := run("cold", a, 5, 0, 2) // two leaves, their columns' planes and the index
	query.Predicates(q.Where)[0].SetWeight(3)
	if key := run("weight drag", a, 0, 0, 0); key != first {
		t.Fatalf("a weight drag resolved %q, not %q", key, first)
	}
	b := NewRunCache()
	b.AttachShared(sc)
	query.Predicates(q.Where)[1].SetWeight(2)
	if key := run("another session's weight drag", b, 0, 2, 0); key != first {
		t.Fatalf("a weight drag in another session resolved %q, not %q", key, first)
	}
	for _, v := range []float64{30, 20} {
		query.Predicates(q.Where)[1].(*query.Cond).Value = dataset.Float(v)
		if key := run("range drag", a, 1, 0, 1); key != first {
			t.Fatalf("a range drag to c < %v resolved %q, not %q", v, key, first)
		}
	}
}

// TestConcurrentSessionsShareOnePairIndex (run it under -race): sessions
// that rank the same two leaves under different weights at once fill the
// leaves and the root's PairIndex once between them, read the one index
// concurrently, and each ranks as a fresh FullSort engine does.
func TestConcurrentSessionsShareOnePairIndex(t *testing.T) {
	cat := interiorCatalog(t, minPairRows+300)
	e := New(cat, nil, Options{GridW: 16, GridH: 16})
	const sql = `SELECT a FROM S WHERE a > 50 AND c < 40`
	sc := NewSharedCache(0, 0)
	// What a session's step showed: its weights, picture and vector.
	type shown struct {
		w        [2]float64
		order    []int
		combined []float64
	}
	const sessions, steps = 4, 3
	got := make([][]shown, sessions)
	var wg sync.WaitGroup
	for s := range sessions {
		q := mustParse(t, sql)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewRunCache()
			c.AttachShared(sc)
			for step := range steps {
				preds := query.Predicates(q.Where)
				preds[step%2].SetWeight(float64(1 + s + step))
				res, err := runCached(e, q, c)
				if err != nil {
					t.Error(err)
					return
				}
				got[s] = append(got[s], shown{[2]float64{preds[0].Weight(), preds[1].Weight()},
					slices.Clone(res.Order[:res.Displayed]), slices.Clone(res.Combined())})
			}
		}()
	}
	wg.Wait()
	full := New(cat, nil, Options{GridW: 16, GridH: 16, FullSort: true})
	for s, steps := range got {
		for step, sh := range steps {
			q := mustParse(t, sql)
			query.Predicates(q.Where)[0].SetWeight(sh.w[0])
			query.Predicates(q.Where)[1].SetWeight(sh.w[1])
			want, err := full.Run(q)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(sh.order, want.Order[:want.Displayed]) ||
				!slices.EqualFunc(sh.combined, want.Combined(), func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Fatalf("session %d step %d ranks apart from a fresh FullSort engine", s, step)
			}
		}
	}
	if st := sc.Stats(); st.Fills != 5 || st.Misses != 2 {
		t.Fatalf("the sessions filled %d entries (%d leaf misses), want the two leaves, their columns' planes and one index", st.Fills, st.Misses)
	}
}

// TestColumnPlaneOutlivesItsViews: a range leaf's view holds its column
// plane's code bytes and values, which only the plane's entry counts, so
// a tier never holds a view whose plane it evicted. Range drags of one
// child fill leaves under a cap of a few entries (a view is a few KB, so
// a byte budget is a cap on the planes and the index), while the other
// child's leaf is read at every step and its column's plane nowhere
// else: the tier's bytes stay under the budget with fills − evictions =
// entries, the leaf and its plane are both resident after the last drag,
// and the root reads one PairIndex throughout — a range drag of the
// other child too, whose plane is never coded again.
func TestColumnPlaneOutlivesItsViews(t *testing.T) {
	cat := interiorCatalog(t, minPairRows+300)
	e := New(cat, nil, Options{GridW: 16, GridH: 16})
	q := mustParse(t, `SELECT a FROM S WHERE a > 50 AND c < 40`)
	const budget = 3 << 20
	sc := NewSharedCache(6, budget) // two planes, the index, two leaves and one more
	c := NewRunCache()
	c.AttachShared(sc)
	first := ""
	step := func(what string) *Result {
		t.Helper()
		res, err := runCached(e, q, c)
		if err != nil {
			t.Fatal(err)
		}
		full, err := New(cat, nil, Options{GridW: 16, GridH: 16, FullSort: true}).Run(q)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, full, res)
		if st := sc.Stats(); st.Bytes > budget || st.Fills-st.Evictions != uint64(st.Entries) {
			t.Fatalf("%s: the tier reads %+v under a budget of %d bytes", what, st, budget)
		}
		key := res.keys.pairs(res.root.Children[0].Codes, res.root.Children[1].Codes)
		if first == "" {
			first = key
		} else if key != first {
			t.Fatalf("%s: the root read the index %q, not %q", what, key, first)
		}
		return res
	}
	step("cold")
	preds := query.Predicates(q.Where)
	var res *Result
	for v := 49; v > 40; v-- {
		preds[0].(*query.Cond).Value = dataset.Float(float64(v))
		res = step(fmt.Sprintf("a > %d", v))
	}
	if sc.Stats().Evictions < 4 {
		t.Fatalf("the drags evicted %d entries", sc.Stats().Evictions)
	}
	// Read only now: a lookup makes an entry the most recently used.
	leaf := res.root.Children[1]
	sc.mu.Lock()
	_, held := sc.entries.Get(leaf.Key)
	plane, ok := sc.entries.Get(runKeys{space: e.spaceSig(res.Space)}.column("S.c"))
	sc.mu.Unlock()
	if !held || !ok || plane.codes != leaf.Codes.Column() {
		t.Fatalf("the tier holds leaf %q (%v) and the plane its view views (%v)", leaf.Label, held, ok)
	}
	preds[1].(*query.Cond).Value = dataset.Float(30)
	step("c < 30")
}
