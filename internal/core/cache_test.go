package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query"
)

// runCached is the cached run the tests drive: RunCtx with no deadline,
// binding q afresh.
func runCached(e *Engine, q *query.Query, cache *RunCache) (*Result, error) {
	return e.RunCtx(context.Background(), q, nil, cache)
}

// sameResults asserts two results are bit-identical in everything the
// interface consumes: combined distances, display count, ranking order
// and the per-predicate window vectors.
func sameResults(t *testing.T, a, b *Result) {
	t.Helper()
	if a.N != b.N || a.Displayed != b.Displayed {
		t.Fatalf("shape: N %d vs %d, Displayed %d vs %d", a.N, b.N, a.Displayed, b.Displayed)
	}
	ca, cb := a.Combined(), b.Combined()
	for i := range ca {
		x, y := ca[i], cb[i]
		if math.Float64bits(x) != math.Float64bits(y) && !(math.IsNaN(x) && math.IsNaN(y)) {
			t.Fatalf("combined[%d]: %v vs %v", i, x, y)
		}
	}
	for rank := 0; rank < a.Displayed; rank++ {
		if a.Order[rank] != b.Order[rank] {
			t.Fatalf("order[%d]: %d vs %d", rank, a.Order[rank], b.Order[rank])
		}
	}
	preds := query.Predicates(a.Query.Where)
	bpreds := query.Predicates(b.Query.Where)
	if len(preds) != len(bpreds) {
		t.Fatalf("predicate count: %d vs %d", len(preds), len(bpreds))
	}
	for pi := range preds {
		for i := 0; i < a.N; i++ {
			x, errA := a.NormOf(preds[pi], i)
			y, errB := b.NormOf(bpreds[pi], i)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("NormOf error mismatch for predicate %d", pi)
			}
			if errA != nil {
				break
			}
			if math.Float64bits(x) != math.Float64bits(y) && !(math.IsNaN(x) && math.IsNaN(y)) {
				t.Fatalf("predicate %d item %d: %v vs %v", pi, i, x, y)
			}
		}
	}
}

// TestRunCachedMatchesRun: cold runs, first cached runs and warm cached
// runs must be bit-identical across operator and structure varieties
// (simple ranges, IN lists, strings, negation via both inversion and
// boolean fallback, approximate joins).
func TestRunCachedMatchesRun(t *testing.T) {
	queries := []string{
		`SELECT x FROM T WHERE x > 6`,
		`SELECT x FROM T WHERE x > 6 AND y < 5`,
		`SELECT x FROM T WHERE x BETWEEN 2 AND 5 OR y > 7 WEIGHT 2`,
		`SELECT x FROM T WHERE NOT (x < 4) AND y > 1`,
		`SELECT x FROM T WHERE NOT (name = 'beta') OR x IN (1, 3, 5)`,
		`SELECT x FROM T WHERE name = 'gamma' AND level >= 'mid'`,
	}
	for _, sql := range queries {
		e := New(smallCatalog(t), nil, Options{GridW: 8, GridH: 8})
		q, err := query.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := e.Run(q)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		cache := NewRunCache()
		q2, _ := query.Parse(sql)
		first, err := runCached(e, q2, cache)
		if err != nil {
			t.Fatalf("%s cached: %v", sql, err)
		}
		sameResults(t, cold, first)
		if h, m := first.Timings.CacheHits, first.Timings.CacheMisses; h != 0 || m == 0 {
			t.Fatalf("%s: first cached run hits=%d misses=%d", sql, h, m)
		}
		warm, err := runCached(e, q2, cache)
		if err != nil {
			t.Fatalf("%s warm: %v", sql, err)
		}
		sameResults(t, cold, warm)
		if h, m := warm.Timings.CacheHits, warm.Timings.CacheMisses; m != 0 || h == 0 {
			t.Fatalf("%s: warm run hits=%d misses=%d", sql, h, m)
		}
	}
}

// TestRunCachedJoinLeaf: connection leaves cache too (the most
// expensive leaf kind), including under negation, whose key carries the
// negation flag so the mutated vector is never re-mutated.
func TestRunCachedJoinLeaf(t *testing.T) {
	for _, sql := range []string{
		`SELECT Temperature FROM Weather, Air-Pollution WHERE Temperature > 20 AND CONNECT with-time-diff(3600)`,
		`SELECT Temperature FROM Weather, Air-Pollution WHERE Temperature > 20 AND NOT (CONNECT with-time-diff(3600))`,
	} {
		e := New(envCatalog(t), nil, Options{GridW: 8, GridH: 8})
		q, err := query.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := e.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		cache := NewRunCache()
		if _, err := runCached(e, q, cache); err != nil {
			t.Fatal(err)
		}
		warm, err := runCached(e, q, cache)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, cold, warm)
		if warm.Timings.CacheMisses != 0 {
			t.Fatalf("%s: warm misses %d", sql, warm.Timings.CacheMisses)
		}
	}
}

// TestRunCachedWeightOnlyRerun: changing only weighting factors hits
// the cache on every leaf — the section 5.2 slider loop recomputes
// nothing below the combination stage.
func TestRunCachedWeightOnlyRerun(t *testing.T) {
	e := New(smallCatalog(t), nil, Options{GridW: 8, GridH: 8})
	q, err := query.Parse(`SELECT x FROM T WHERE x > 6 AND y < 5 AND name = 'beta'`)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewRunCache()
	if _, err := runCached(e, q, cache); err != nil {
		t.Fatal(err)
	}
	query.Predicates(q.Where)[0].SetWeight(3)
	query.Predicates(q.Where)[2].SetWeight(0.5)
	res, err := runCached(e, q, cache)
	if err != nil {
		t.Fatal(err)
	}
	if res.Timings.CacheMisses != 0 || res.Timings.CacheHits != 3 {
		t.Fatalf("weight-only rerun: hits=%d misses=%d", res.Timings.CacheHits, res.Timings.CacheMisses)
	}
	// And the reweighted cached result matches a cold reweighted run.
	cold, err := New(smallCatalog(t), nil, Options{GridW: 8, GridH: 8}).Run(q)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, cold, res)
}

// TestRunCachedSingleSliderDrag: moving one condition's range misses
// exactly that leaf and hits the rest.
func TestRunCachedSingleSliderDrag(t *testing.T) {
	e := New(smallCatalog(t), nil, Options{GridW: 8, GridH: 8})
	q, err := query.Parse(`SELECT x FROM T WHERE x > 6 AND y < 5 AND name = 'beta'`)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewRunCache()
	if _, err := runCached(e, q, cache); err != nil {
		t.Fatal(err)
	}
	c := query.Predicates(q.Where)[0].(*query.Cond)
	c.Value = dataset.Float(4) // drag x > 6 to x > 4
	res, err := runCached(e, q, cache)
	if err != nil {
		t.Fatal(err)
	}
	if res.Timings.CacheHits != 2 || res.Timings.CacheMisses != 1 {
		t.Fatalf("slider drag: hits=%d misses=%d", res.Timings.CacheHits, res.Timings.CacheMisses)
	}
}

// TestRunCachedPoolsBuffers: warm runs reuse superseded Results'
// backing arrays — the rerun is allocation-free at the n-vector
// granularity. The pool double-buffers (a run's buffers are recycled
// only once a NEWER run succeeds), so the third run lands in the
// first run's arrays.
func TestRunCachedPoolsBuffers(t *testing.T) {
	e := New(smallCatalog(t), nil, Options{GridW: 8, GridH: 8})
	q, err := query.Parse(`SELECT x FROM T WHERE x > 6 AND y < 5`)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewRunCache()
	first, err := runCached(e, q, cache)
	if err != nil {
		t.Fatal(err)
	}
	firstBufs := map[*float64]bool{&first.Combined()[0]: true, &first.sorted[0]: true}
	for _, vec := range first.Eval.ByNode {
		firstBufs[&vec[0]] = true
	}
	if _, err := runCached(e, q, cache); err != nil {
		t.Fatal(err)
	}
	third, err := runCached(e, q, cache)
	if err != nil {
		t.Fatal(err)
	}
	if !firstBufs[&third.Combined()[0]] {
		t.Fatal("third run's Combined did not reuse a pooled buffer")
	}
	for node, vec := range third.Eval.ByNode {
		if !firstBufs[&vec[0]] {
			t.Fatalf("third run's vector for %q did not reuse a pooled buffer", node.Label)
		}
	}
}

// TestRunCachedFailedRunPreservesLiveResult: a rerun that errors after
// evaluation began must not scribble over the previous (still served)
// Result — its buffers are recycled only once a newer run succeeds.
func TestRunCachedFailedRunPreservesLiveResult(t *testing.T) {
	e := New(smallCatalog(t), nil, Options{GridW: 8, GridH: 8})
	q, err := query.Parse(`SELECT x FROM T WHERE x > 6 AND y < 5`)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewRunCache()
	live, err := runCached(e, q, cache)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]float64(nil), live.Combined()...)
	// Corrupt the second predicate's weight so Evaluate fails after the
	// first subtree (and its buffer writes) already ran — and move the
	// first predicate's range, so the failing run fetches a leaf the live
	// Result does not read.
	bad := query.Predicates(q.Where)[1].(*query.Cond)
	bad.W = math.Inf(1) * 0 // NaN weight: passes SetWeight-less mutation, fails evaluation
	moved := query.Predicates(q.Where)[0].(*query.Cond)
	moved.Value = dataset.Float(4)
	if _, err := runCached(e, q, cache); err == nil {
		t.Fatal("expected the NaN-weight run to fail")
	}
	if hits, misses, _ := cache.runStats(); hits != 1 || misses != 1 {
		t.Fatalf("the failing run should have hit y < 5 and computed x > 4: %d hits, %d misses", hits, misses)
	}
	moved.Value = dataset.Float(6)
	for i, v := range live.Combined() {
		if math.Float64bits(v) != math.Float64bits(snapshot[i]) && !(math.IsNaN(v) && math.IsNaN(snapshot[i])) {
			t.Fatalf("failed run overwrote live Combined[%d]: %v -> %v", i, snapshot[i], v)
		}
	}
	// The cache recovers: fixing the query yields a correct run again,
	// served by the pins the live Result kept through the failure.
	bad.W = 1
	again, err := runCached(e, q, cache)
	if err != nil {
		t.Fatal(err)
	}
	if tm := again.Timings; tm.CacheHits != 2 || tm.SharedHits != 0 || cache.Len() != 2 {
		t.Fatalf("rerun after the failure: %+v, %d leaves pinned", tm, cache.Len())
	}
	sameResults(t, live, again)
}

// TestRunCacheEviction: under a sweep of distinct ranges a cache on its
// own tier keeps at most maxCacheEntries entries there and pins only the
// current query's leaf. One of the entries is the column's code plane,
// which every fresh range's view reads, so one leaf more leaves.
func TestRunCacheEviction(t *testing.T) {
	e := New(smallCatalog(t), nil, Options{GridW: 8, GridH: 8})
	cache := NewRunCache()
	for i := 0; i < maxCacheEntries+40; i++ {
		q, err := query.Parse(fmt.Sprintf(`SELECT x FROM T WHERE x > %d`, i))
		if err != nil {
			t.Fatal(err)
		}
		res, err := runCached(e, q, cache)
		if err != nil {
			t.Fatal(err)
		}
		if tm := res.Timings; tm.CacheHits != 0 || tm.CacheMisses != 1 {
			t.Fatalf("sweep step %d: %d hits, %d misses on a fresh range", i, tm.CacheHits, tm.CacheMisses)
		}
		if cache.Len() != 1 {
			t.Fatalf("sweep step %d pins %d leaves of a one-leaf query", i, cache.Len())
		}
	}
	st := cache.shared.Stats()
	if st.Entries != maxCacheEntries || st.Evictions != 41 {
		t.Fatalf("own tier holds %d entries after %d evictions (cap %d, 40 leaves and a column plane over)", st.Entries, st.Evictions, maxCacheEntries)
	}
}

// TestRelevanceLazy: the accessor materializes once and matches the
// eager computation.
func TestRelevanceLazy(t *testing.T) {
	e := New(smallCatalog(t), nil, Options{GridW: 8, GridH: 8})
	res, err := e.RunSQL(`SELECT x FROM T WHERE x > 6`)
	if err != nil {
		t.Fatal(err)
	}
	rel := res.Relevance()
	if len(rel) != res.N {
		t.Fatalf("relevance length %d", len(rel))
	}
	for i, d := range res.Combined() {
		want := 1 / (1 + math.Abs(d))
		if math.IsNaN(d) {
			want = 0
		}
		if rel[i] != want {
			t.Fatalf("relevance[%d] = %v, want %v", i, rel[i], want)
		}
	}
	if &res.Relevance()[0] != &rel[0] {
		t.Fatal("Relevance not memoized")
	}
	// Exact answers invert to relevance 1 and rank first.
	if rel[res.Order[0]] != 1 {
		t.Fatalf("top-ranked relevance %v", rel[res.Order[0]])
	}
}
