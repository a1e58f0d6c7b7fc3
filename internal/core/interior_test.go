package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/relevance"
)

// interiorCatalog builds a single-table numeric catalog large enough to
// span several evaluator chunks, with value distributions that give the
// benchmark query real approximate-answer structure.
func interiorCatalog(t *testing.T, rows int) *dataset.Catalog {
	t.Helper()
	cat := dataset.NewCatalog()
	tbl, err := dataset.NewTable("S", dataset.Schema{
		{Name: "a", Kind: dataset.KindFloat},
		{Name: "b", Kind: dataset.KindFloat},
		{Name: "c", Kind: dataset.KindFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		err := tbl.AppendRow(
			dataset.Float(float64(i%101)),
			dataset.Float(float64((i*7)%89)),
			dataset.Float(float64((i*13)%97)),
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	return cat
}

// interiorPins returns the keys of the interior vectors c pins for its
// live Result.
func interiorPins(c *RunCache) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []string
	for k := range c.live.leaves {
		if strings.HasPrefix(k, "I|") {
			keys = append(keys, k)
		}
	}
	return keys
}

// resident reports whether sc holds an entry for key. It refreshes the
// entry's recency and counts no lookup; its callers' tiers never evict.
func resident(sc *SharedCache, key string) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	_, ok := sc.entries.Get(key)
	return ok
}

const interiorSQL = `SELECT a FROM S WHERE a > 50 AND b < 40 OR c BETWEEN 20 AND 30 WEIGHT 2`

// TestInteriorSketchWarmRerunBitIdentical: warm cached reruns must take
// the interior-normalization fast path (SketchHits > 0) — including
// after a weight drag on a predicate OUTSIDE the cached subtree — and
// stay bit-identical to both an uncached run and a FullSort run.
func TestInteriorSketchWarmRerunBitIdentical(t *testing.T) {
	cat := interiorCatalog(t, 2*4096+57)
	e := New(cat, nil, Options{GridW: 16, GridH: 16})
	full := New(cat, nil, Options{GridW: 16, GridH: 16, FullSort: true})
	cache := NewRunCache()
	q, err := query.Parse(interiorSQL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runCached(e, q, cache); err != nil {
		t.Fatal(err)
	}
	if len(interiorPins(cache)) == 0 {
		t.Fatal("cold run cached no interior entries")
	}

	// Warm rerun, unchanged query: the AND subtree must hit.
	warm, err := runCached(e, q, cache)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Timings.SketchHits == 0 {
		t.Fatal("unchanged warm rerun took no interior hits")
	}
	// A rescan is a hit whose range needed a pass over the vector, at
	// most one per hit. The AND's keep (the 256 displayed rows over its
	// weight) lies inside its minimum's class, the rows with a > 50 and
	// b < 40 (about a fifth of them), so the code plane's counts answer
	// it with none.
	if warm.Timings.SketchRescans > warm.Timings.SketchHits {
		t.Fatalf("rescans %d exceed hits %d", warm.Timings.SketchRescans, warm.Timings.SketchHits)
	}
	if warm.Timings.SketchRescans != 0 {
		t.Fatalf("rescans %d, want 0: the keep lies inside the minimum's class", warm.Timings.SketchRescans)
	}

	// Drag the weight of the predicate OUTSIDE the AND subtree (the
	// section 5.2 slider interaction): the AND's raw combined vector is
	// untouched, so its entry must still hit. Predicates of the OR root
	// are [AND(a,b), c]; the BETWEEN leaf is index 1.
	query.Predicates(q.Where)[1].SetWeight(3)
	warm2, err := runCached(e, q, cache)
	if err != nil {
		t.Fatal(err)
	}
	if warm2.Timings.SketchHits == 0 {
		t.Fatal("weight drag outside the subtree lost the interior hit")
	}
	if warm2.Timings.SketchRescans != 0 {
		t.Fatalf("rescans %d after the drag, want 0", warm2.Timings.SketchRescans)
	}

	qRef, _ := query.Parse(interiorSQL)
	query.Predicates(qRef.Where)[1].SetWeight(3)
	ref, err := e.Run(qRef)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, ref, warm2)
	fref, err := full.Run(qRef)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, fref, warm2)
}

// TestInteriorSharedTierPromotion: a second session attached to the
// same SharedCache must get interior hits on its very first run — off
// the vector the first session's run left in the one store — with
// bit-identical results.
func TestInteriorSharedTierPromotion(t *testing.T) {
	cat := interiorCatalog(t, 4096+300)
	e := New(cat, nil, Options{GridW: 16, GridH: 16})
	sc := NewSharedCache(0, 0)

	a := NewRunCache()
	a.AttachShared(sc)
	qa, _ := query.Parse(interiorSQL)
	if _, err := runCached(e, qa, a); err != nil {
		t.Fatal(err)
	}
	part := interiorPins(a)
	if len(part) != 1 || !resident(sc, part[0]) {
		t.Fatalf("cold run left no interior vector in the store: pins %q", part)
	}
	// One store: the AND part's vector sits among the three leaves and
	// the code planes of their three columns, and is counted with them.
	if st := sc.Stats(); st.Entries != 7 || st.Fills != 7 || st.InteriorBytes != 0 {
		t.Fatalf("after the cold run: %+v", st)
	}

	b := NewRunCache()
	b.AttachShared(sc)
	qb, _ := query.Parse(interiorSQL)
	resB, err := runCached(e, qb, b)
	if err != nil {
		t.Fatal(err)
	}
	if resB.Timings.SketchHits == 0 {
		t.Fatal("second session's first run missed the shared interior tier")
	}
	if resB.Timings.SharedHits == 0 {
		t.Fatal("second session's first run missed the shared leaf tier")
	}
	if st := sc.Stats(); st.InteriorHits == 0 {
		t.Fatalf("shared tier recorded no interior hits: %+v", st)
	}
	ref, err := e.Run(qb)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, ref, resB)
}

// TestInteriorNegationDoesNotAlias: a De-Morganed negation keeps the
// ORIGINAL condition labels on its inverted leaves, so a label-based
// interior signature would collide with the un-negated subtree while
// the vectors differ. The leaf-identity hook (full leaf cache keys in
// the signature) must keep them apart — the negated query served from
// a cache warmed by the positive one must match its own uncached run.
func TestInteriorNegationDoesNotAlias(t *testing.T) {
	cat := interiorCatalog(t, 4096+300)
	e := New(cat, nil, Options{GridW: 16, GridH: 16})
	cache := NewRunCache()

	qPos, _ := query.Parse(`SELECT a FROM S WHERE (a > 50 AND b < 40) OR c > 90`)
	if _, err := runCached(e, qPos, cache); err != nil {
		t.Fatal(err)
	}
	// NOT(a > 50 OR b < 40) De-Morgans to AND over leaves still labeled
	// "a > 50" / "b < 40" — structurally the twin of qPos's AND subtree.
	qNeg, _ := query.Parse(`SELECT a FROM S WHERE NOT (a > 50 OR b < 40) OR c > 90`)
	got, err := runCached(e, qNeg, cache)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := e.Run(qNeg)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, ref, got)
}

// TestInteriorKeyExcludesOwnWeight: runKeys.interior is built from the
// kernel options, the operator and each child's key and weight. A drag
// of the node's own weight keeps the key (the raw vector does not depend
// on it); a child's weight, each kernel option and the item space move
// it; and a De-Morganed subtree and its un-negated twin, whose leaves'
// labels are equal, get different keys.
func TestInteriorKeyExcludesOwnWeight(t *testing.T) {
	// partKey runs sql cached on cat under opt and returns the key of the
	// AND/OR node of the query part part picks.
	partKey := func(cat *dataset.Catalog, opt Options, sql string, part func(where query.Expr) query.Expr) string {
		t.Helper()
		q := mustParse(t, sql)
		res, err := runCached(New(cat, nil, opt), q, NewRunCache())
		if err != nil {
			t.Fatal(err)
		}
		node, err := res.nodeFor(part(q.Where))
		if err != nil {
			t.Fatal(err)
		}
		if node.Op == relevance.Leaf || node.Key == "" {
			t.Fatalf("%s: the part is not a keyed AND/OR node", sql)
		}
		return node.Key
	}
	first := func(where query.Expr) query.Expr { return query.Predicates(where)[0] }
	cat := interiorCatalog(t, 300)
	base := Options{GridW: 8, GridH: 8}
	const sql = `SELECT a FROM S WHERE (a > 50 AND b < 40) OR c > 90`
	want := partKey(cat, base, sql, first)
	if got := partKey(cat, base, `SELECT a FROM S WHERE (a > 50 AND b < 40) WEIGHT 3 OR c > 90`, first); got != want {
		t.Fatalf("the part's own weight moved its key:\n%s\n%s", got, want)
	}
	for name, key := range map[string]string{
		"a child's weight": partKey(cat, base, `SELECT a FROM S WHERE (a > 50 WEIGHT 2 AND b < 40) OR c > 90`, first),
		"the combine mode": partKey(cat, Options{GridW: 8, GridH: 8, Mode: relevance.PaperRaw}, sql, first),
		"the AND kernel":   partKey(cat, Options{GridW: 8, GridH: 8, And: relevance.ANDEuclidean}, sql, first),
		"the Lp exponent":  partKey(cat, Options{GridW: 8, GridH: 8, And: relevance.ANDLp, LpP: 3}, sql, first),
		"the budget":       partKey(cat, Options{GridW: 8, GridH: 9}, sql, first),
		"naive ranges":     partKey(cat, Options{GridW: 8, GridH: 8, NaiveNormalize: true}, sql, first),
		"the item space":   partKey(interiorCatalog(t, 301), base, sql, first),
		"a De-Morganed twin": partKey(cat, base, `SELECT a FROM S WHERE NOT (a > 50 OR b < 40) OR c > 90`,
			func(where query.Expr) query.Expr { return first(where).(*query.Not).Child }),
	} {
		if key == want {
			t.Errorf("%s left the part's key as it was", name)
		}
	}
}

// TestSpaceSigEmbedsEpoch: every structural cache key must carry the
// catalog's segment epoch, so regenerated file-backed catalogs can
// never cross-serve cached vectors; and all key formats must flow
// through the one keying helper (tier agreement by construction).
func TestSpaceSigEmbedsEpoch(t *testing.T) {
	cat := smallCatalog(t)
	e := New(cat, nil, Options{})
	q, _ := query.Parse(`SELECT x FROM T WHERE x > 6`)
	space, err := e.buildItemSpace(q)
	if err != nil {
		t.Fatal(err)
	}
	sig0 := e.spaceSig(space)
	cat.SetEpoch(0x3039)
	sig1 := e.spaceSig(space)
	if sig0 == sig1 {
		t.Fatal("epoch change did not change the space signature")
	}
	if !strings.Contains(sig1, "e3039") {
		t.Fatalf("space signature %q does not embed the epoch", sig1)
	}
	k := runKeys{space: sig1}
	leaf := &relevance.Node{Op: relevance.Leaf, Key: k.cond("T.x", "x > 6", true)}
	for _, key := range []string{
		k.cond("T.x", "x > 6", true),
		k.cond("T.x", "x > 6", false),
		k.join("T~U", true),
		k.boolean("NOT x > 6"),
		k.subquery(256, 0, "EXISTS (...)", false),
		k.interior(&relevance.Node{Op: relevance.NodeAnd, Children: []*relevance.Node{leaf}}),
	} {
		if !strings.Contains(key, sig1) {
			t.Fatalf("key %q does not embed the space signature", key)
		}
	}
	// Negation is part of the join identity even though labels collapse.
	if k.join("T~U", true) == k.join("T~U", false) {
		t.Fatal("join keys do not distinguish negation")
	}
}

// TestRangeEditKeepsInteriorVectors: a range edit invalidates nothing,
// so the interior vector of the shape being left stays in the store and
// going back takes the interior fast path again — while the run's own
// pins turn over and never hold more than the live query's nodes.
func TestRangeEditKeepsInteriorVectors(t *testing.T) {
	cat := interiorCatalog(t, 4096+300)
	e := New(cat, nil, Options{GridW: 16, GridH: 16})
	sc := NewSharedCache(0, 0)
	cache := NewRunCache()
	cache.AttachShared(sc)
	q, _ := query.Parse(interiorSQL)
	if _, err := runCached(e, q, cache); err != nil {
		t.Fatal(err)
	}
	old := interiorPins(cache)
	if len(old) != 1 || !resident(sc, old[0]) {
		t.Fatalf("cold run cached no interior vector: pins %q", old)
	}
	entries := sc.Stats().Entries
	// The edited condition is `a > 50` INSIDE the AND subtree — its key
	// is embedded in the AND's interior key.
	var cond *query.Cond
	query.Walk(q.Where, func(e query.Expr) {
		if c, ok := e.(*query.Cond); ok && cond == nil && c.Attr == "a" {
			cond = c
		}
	})
	if cond == nil {
		t.Fatal("no condition on a")
	}
	cond.Value = dataset.Float(30)
	away, err := runCached(e, q, cache)
	if err != nil {
		t.Fatal(err)
	}
	if away.Timings.SketchHits != 0 {
		t.Fatalf("a subtree over a new literal took %d interior hits", away.Timings.SketchHits)
	}
	// The edit added a leaf and the new part's vector and dropped
	// nothing; only the live part is pinned.
	if got := sc.Stats().Entries; got != entries+2 || !resident(sc, old[0]) {
		t.Fatalf("after the edit: %d entries (%d before), old part resident: %v", got, entries, resident(sc, old[0]))
	}
	if live := interiorPins(cache); len(live) != 1 || live[0] == old[0] {
		t.Fatalf("pinned interior vectors %q, want the live part's alone (old %q)", live, old)
	}
	cond.Value = dataset.Float(50)
	back, err := runCached(e, q, cache)
	if err != nil {
		t.Fatal(err)
	}
	if back.Timings.SketchHits == 0 || back.Timings.CacheMisses != 0 {
		t.Fatalf("back at the first range: %+v", back.Timings)
	}
	ref, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, ref, back)
}

// nestedSQL is a three-level query: the OR root over an AND part, which
// holds an inner OR part.
const nestedSQL = `SELECT a FROM S WHERE (a > 50 AND (b < 40 OR c > 70)) OR c BETWEEN 20 AND 30 WEIGHT 2`

// nestedParts returns the outer AND part of nestedSQL's q and its inner
// OR part.
func nestedParts(q *query.Query) (outer, inner query.Expr) {
	outer = query.Predicates(q.Where)[0]
	return outer, query.Predicates(outer)[1]
}

// TestEvictedInnerPartRecomputesAlone: a run whose outer part the tier
// holds while the inner part under it was evicted takes the outer part
// as a hit and computes the inner one alone — its pass is the only
// fill — and every window, the inner part's included, matches a
// FullSort engine's.
func TestEvictedInnerPartRecomputesAlone(t *testing.T) {
	cat := interiorCatalog(t, 2*4096+57)
	opt := Options{GridW: 16, GridH: 16}
	e := New(cat, nil, opt)
	q := mustParse(t, nestedSQL)
	cold := NewRunCache()
	res, err := runCached(e, q, cold)
	if err != nil {
		t.Fatal(err)
	}
	_, innerExpr := nestedParts(q)
	inner, err := res.nodeFor(innerExpr)
	if err != nil {
		t.Fatal(err)
	}
	if pins := interiorPins(cold); len(pins) != 2 {
		t.Fatalf("the cold run pinned interior vectors %q, want the two parts'", pins)
	}
	// A tier holding everything the cold run read but the inner part:
	// its pins and its columns' planes, of which its range leaves' planes
	// are views.
	sc := NewSharedCache(0, 0)
	cold.mu.Lock()
	for key, le := range cold.live.leaves {
		if key != inner.Key {
			sc.entries.Put(key, le, le.sizeBytes())
		}
	}
	cold.mu.Unlock()
	planes, own := runKeys{space: e.spaceSig(res.Space)}, cold.Shared()
	for _, attr := range []string{"S.a", "S.b", "S.c"} {
		own.mu.Lock()
		le, ok := own.entries.Get(planes.column(attr))
		own.mu.Unlock()
		if !ok {
			t.Fatalf("the cold run left no plane of %s", attr)
		}
		sc.entries.Put(planes.column(attr), le, le.sizeBytes())
	}
	warm := NewRunCache()
	warm.AttachShared(sc)
	got, err := runCached(e, q, warm)
	if err != nil {
		t.Fatal(err)
	}
	st := sc.Stats()
	if got.Timings.SketchHits != 1 || got.Timings.CacheMisses != 0 || st.InteriorHits != 1 || st.InteriorMisses != 1 || st.Fills != 1 {
		t.Fatalf("want the outer part a hit and the inner part's pass the one fill: %+v, tier %+v", got.Timings, st)
	}
	if !resident(sc, inner.Key) {
		t.Fatal("the inner part's recomputed vector is not in the tier")
	}
	opt.FullSort = true
	ref, err := New(cat, nil, opt).Run(q)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, ref, got)
	for i := 0; i < got.N; i++ {
		x, errX := ref.NormOf(innerExpr, i)
		y, errY := got.NormOf(innerExpr, i)
		if errX != nil || errY != nil || math.Float64bits(x) != math.Float64bits(y) && !(math.IsNaN(x) && math.IsNaN(y)) {
			t.Fatalf("inner part item %d: %v (%v) vs %v (%v)", i, x, errX, y, errY)
		}
	}
}

// TestInteriorVectorsStayLocal: over a remote tier, a nested query's
// interior vectors, its root's PairIndex and its four range leaves —
// views of their columns' planes — are neither asked of it nor offered
// to it, on a cold node, on a second node over the same store and on its
// warm rerun. The interior vectors' lookups count as the tier's
// InteriorHits/InteriorMisses and the index's in nothing, never as its
// Hits/Misses, which count the four leaves alone.
func TestInteriorVectorsStayLocal(t *testing.T) {
	cat := interiorCatalog(t, minPairRows+300) // the root's PairIndex is built
	backend := newMapBackend()
	e := New(cat, nil, Options{GridW: 16, GridH: 16})
	q := mustParse(t, nestedSQL)
	for _, node := range []struct {
		name string
		// runs on one RunCache (the second pinned), and the tier's
		// counts after them.
		runs                                         int
		hits, misses, remoteHits, intHits, intMisses uint64
	}{
		{"cold", 1, 0, 4, 0, 0, 2},
		{"second node", 2, 0, 4, 0, 0, 2},
	} {
		sc := NewSharedCacheOpts(SharedOptions{Backend: backend})
		c := NewRunCache()
		c.AttachShared(sc)
		for run := 0; run < node.runs; run++ {
			if _, err := runCached(e, q, c); err != nil {
				t.Fatal(err)
			}
		}
		// A second session on the node: every vector comes from its tier.
		c2 := NewRunCache()
		c2.AttachShared(sc)
		res, err := runCached(e, q, c2)
		if err != nil {
			t.Fatal(err)
		}
		if res.Timings.SketchHits != 2 || res.Timings.CacheMisses != 0 {
			t.Fatalf("%s: the second session's run %+v", node.name, res.Timings)
		}
		if ch := res.root.Children; !resident(sc, res.keys.pairs(ch[0].Codes, ch[1].Codes)) {
			t.Fatalf("%s: the root's PairIndex is not in the tier", node.name)
		}
		st := sc.Stats()
		if st.Hits != node.hits+4 || st.Misses != node.misses || st.RemoteHits != node.remoteHits ||
			st.InteriorHits != node.intHits+2 || st.InteriorMisses != node.intMisses {
			t.Fatalf("%s: tier %+v", node.name, st)
		}
	}
	if keys := backend.leafKeys(t); len(keys) != 0 {
		t.Fatalf("the store holds %q, want nothing", keys)
	}
	backend.mu.Lock()
	defer backend.mu.Unlock()
	if backend.gets != 0 || backend.puts != 0 {
		t.Fatalf("the store served %d gets and %d puts, want none", backend.gets, backend.puts)
	}
}
