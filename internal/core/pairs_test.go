package core

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query"
)

// TestWeightDragReadsPairIndex: over more rows than a PairIndex has
// groups, a flat two-leaf root's first run builds the index of its
// children's planes beside the two leaves. A weight drag reads it — from
// the pins, and in another session from the tier — and builds nothing,
// and the tier counts its lookups in neither Hits nor Misses. A range
// drag on one child resolves an index over the new plane. Every ranking
// equals a fresh FullSort engine's.
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
	first := run("cold", a, 3, 0, 2) // two leaves and the index
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
	query.Predicates(q.Where)[1].(*query.Cond).Value = dataset.Float(30)
	if key := run("range drag", a, 2, 0, 1); key == first || !resident(sc, first) {
		t.Fatalf("a range drag resolved %q (the first index %q resident: %v)", key, first, resident(sc, first))
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
	if st := sc.Stats(); st.Fills != 3 || st.Misses != 2 {
		t.Fatalf("the sessions filled %d entries (%d leaf misses), want the two leaves and one index", st.Fills, st.Misses)
	}
}
