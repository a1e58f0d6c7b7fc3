package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/query"
)

// fillDists stores an n-float leaf vector under key via the
// singleflight path (compute always runs: the key is absent).
func fillDists(t *testing.T, sc *SharedCache, key string, n int, fill float64) {
	t.Helper()
	_, hit, err := sc.fetch(key, n, func() (leafEntry, error) {
		dists := make([]float64, n)
		for i := range dists {
			dists[i] = fill
		}
		return leafEntry{raw: dists}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatalf("fill of %q was a hit", key)
	}
}

// touch performs a lookup that must hit.
func touch(t *testing.T, sc *SharedCache, key string) {
	t.Helper()
	_, hit, err := sc.fetch(key, 0, func() (leafEntry, error) {
		return leafEntry{}, fmt.Errorf("touch of %q missed", key)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatalf("touch of %q missed", key)
	}
}

// residentKeys returns which of the candidate keys are resident, sorted,
// without touching their recency.
func residentKeys(sc *SharedCache, candidates ...string) []string {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	keys := []string{}
	for _, k := range candidates {
		if _, ok := sc.entries.Peek(k); ok {
			keys = append(keys, k)
		}
	}
	if len(keys) != sc.entries.Len() {
		keys = append(keys, fmt.Sprintf("(%d resident entries outside the candidates)", sc.entries.Len()-len(keys)))
	}
	sort.Strings(keys)
	return keys
}

// TestSharedCacheEviction: table-driven LRU + byte-budget eviction
// ordering. Each op either fills a key with an n-float vector or
// touches an existing key (refreshing its recency).
func TestSharedCacheEviction(t *testing.T) {
	type op struct {
		fill string
		n    int
		get  string
	}
	cases := []struct {
		name       string
		maxEntries int
		maxBytes   int64
		ops        []op
		want       []string
		wantBytes  int64
	}{
		{
			name:       "entry cap evicts oldest",
			maxEntries: 2, maxBytes: 1 << 20,
			ops:       []op{{fill: "a", n: 4}, {fill: "b", n: 4}, {fill: "c", n: 4}},
			want:      []string{"b", "c"},
			wantBytes: 2 * 4 * 8,
		},
		{
			name:       "access refreshes recency",
			maxEntries: 2, maxBytes: 1 << 20,
			ops:       []op{{fill: "a", n: 4}, {fill: "b", n: 4}, {get: "a"}, {fill: "c", n: 4}},
			want:      []string{"a", "c"},
			wantBytes: 2 * 4 * 8,
		},
		{
			name:       "byte budget evicts until under",
			maxEntries: 64, maxBytes: 100 * 8,
			ops:       []op{{fill: "a", n: 40}, {fill: "b", n: 40}, {fill: "c", n: 40}},
			want:      []string{"b", "c"},
			wantBytes: 80 * 8,
		},
		{
			name:       "byte budget respects recency",
			maxEntries: 64, maxBytes: 100 * 8,
			ops:       []op{{fill: "a", n: 40}, {fill: "b", n: 40}, {get: "a"}, {fill: "c", n: 40}},
			want:      []string{"a", "c"},
			wantBytes: 80 * 8,
		},
		{
			// The store never evicts the most recently used entry, so an
			// entry over the whole budget empties the tier and stays ...
			name:       "oversized entry stays alone until the next insert",
			maxEntries: 64, maxBytes: 100 * 8,
			ops:       []op{{fill: "a", n: 10}, {fill: "big", n: 200}},
			want:      []string{"big"},
			wantBytes: 200 * 8,
		},
		{
			// ... exactly until something else is stored.
			name:       "oversized entry cannot stay resident",
			maxEntries: 64, maxBytes: 100 * 8,
			ops:       []op{{fill: "big", n: 200}, {fill: "a", n: 10}},
			want:      []string{"a"},
			wantBytes: 10 * 8,
		},
		{
			name:       "mixed sizes drop two small for one large",
			maxEntries: 64, maxBytes: 100 * 8,
			ops:       []op{{fill: "a", n: 30}, {fill: "b", n: 30}, {fill: "c", n: 90}},
			want:      []string{"c"},
			wantBytes: 90 * 8,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := NewSharedCache(tc.maxEntries, tc.maxBytes)
			var filled []string
			for _, o := range tc.ops {
				if o.get != "" {
					touch(t, sc, o.get)
				} else {
					fillDists(t, sc, o.fill, o.n, 1)
					filled = append(filled, o.fill)
				}
			}
			got := residentKeys(sc, filled...)
			if len(got) != len(tc.want) {
				t.Fatalf("resident %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("resident %v, want %v", got, tc.want)
				}
			}
			if b := sc.Bytes(); b != tc.wantBytes {
				t.Fatalf("bytes %d, want %d", b, tc.wantBytes)
			}
		})
	}
}

// TestSharedCacheEvictionOnlyUnlinks: eviction only unlinks entries — a
// session still holding the vector keeps reading valid, unchanged data,
// and the next fill allocates a fresh vector instead of reusing the old
// backing array.
func TestSharedCacheEvictionOnlyUnlinks(t *testing.T) {
	sc := NewSharedCache(1, 0)
	const key = "C|T:T:4|T.x|x > 5"
	old, _, err := sc.fetch(key, 4, func() (leafEntry, error) {
		return leafEntry{raw: []float64{1, 2, 3, 4}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]float64(nil), old.raw...)

	fillDists(t, sc, "C|T:T:4|T.x|x > 7", 4, 0) // the cap of one pushes key out
	if st := sc.Stats(); st.Entries != 1 || st.Evictions != 1 || st.Bytes != 4*8 {
		t.Fatalf("after the evicting fill: %+v", st)
	}

	fresh, hit, err := sc.fetch(key, 4, func() (leafEntry, error) {
		return leafEntry{raw: []float64{9, 9, 9, 9}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("fetch after eviction hit a dead entry")
	}
	if &fresh.raw[0] == &old.raw[0] {
		t.Fatal("refill reused the evicted backing array")
	}
	for i, v := range old.raw {
		if v != snapshot[i] {
			t.Fatalf("old reader's vector changed at %d: %v -> %v", i, snapshot[i], v)
		}
	}
}

// TestSharedCacheSingleflight: N concurrent sessions missing on the
// same key run the computation exactly once; everyone else waits for
// the leader's fill and counts as a hit.
func TestSharedCacheSingleflight(t *testing.T) {
	const waiters = 7
	sc := NewSharedCache(0, 0)
	var computes atomic.Int64
	var wg sync.WaitGroup
	results := make([][]float64, waiters+1)
	for g := 0; g <= waiters; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := sc.fetch("K", 1, func() (leafEntry, error) {
				computes.Add(1)
				// Hold the fill open until every other goroutine is
				// blocked on it, so the schedule cannot degenerate into
				// sequential hits.
				deadline := time.Now().Add(5 * time.Second)
				for sc.Stats().Waits < waiters {
					if time.Now().After(deadline) {
						return leafEntry{}, fmt.Errorf("waiters never arrived")
					}
					time.Sleep(time.Millisecond)
				}
				return leafEntry{raw: []float64{42}}, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = v.raw
		}()
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times, want 1", n)
	}
	st := sc.Stats()
	if st.Waits != waiters || st.Misses != 1 || st.Hits != waiters || st.Fills != 1 {
		t.Fatalf("stats %+v", st)
	}
	for g := 1; g <= waiters; g++ {
		if &results[g][0] != &results[0][0] {
			t.Fatal("waiter received a different vector than the leader")
		}
	}
}

// TestCanceledFillIsLedAgain: a fill whose leader's request ended
// (context.Canceled or DeadlineExceeded out of its compute) is nobody
// else's failure — the waiter leads the fill itself and gets its own
// entry — while any other failure is still the waiters' too.
func TestCanceledFillIsLedAgain(t *testing.T) {
	boom := errors.New("boom")
	for _, leaderErr := range []error{
		fmt.Errorf("core: run canceled: %w", context.Canceled),
		fmt.Errorf("core: run canceled: %w", context.DeadlineExceeded),
		boom,
	} {
		sc := NewSharedCache(0, 0)
		leaderDone := make(chan error, 1)
		go func() {
			_, _, err := sc.fetch("K", 1, func() (leafEntry, error) {
				// Fail only once the waiter is blocked on this fill.
				deadline := time.Now().Add(5 * time.Second)
				for sc.Stats().Waits < 1 {
					if time.Now().After(deadline) {
						return leafEntry{}, fmt.Errorf("the waiter never arrived")
					}
					time.Sleep(time.Millisecond)
				}
				return leafEntry{}, leaderErr
			})
			leaderDone <- err
		}()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			sc.mu.Lock()
			_, inflight := sc.inflight["K"]
			sc.mu.Unlock()
			if inflight {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("the leader never started its fill")
			}
		}
		computed := false
		le, hit, err := sc.fetch("K", 1, func() (leafEntry, error) {
			computed = true
			return leafEntry{raw: []float64{7}}, nil
		})
		if lerr := <-leaderDone; lerr != leaderErr {
			t.Fatalf("leader: %v, want %v", lerr, leaderErr)
		}
		st := sc.Stats()
		if leaderErr == boom {
			if err != boom || computed || st.Misses != 1 || st.Fills != 0 {
				t.Fatalf("a failed fill: waiter got %v (computed %v), stats %+v; want the leader's error", err, computed, st)
			}
			continue
		}
		if err != nil || hit || !computed || len(le.raw) != 1 || le.raw[0] != 7 {
			t.Fatalf("%v: waiter got %v, %v, hit %v, computed %v; want its own entry", leaderErr, le.raw, err, hit, computed)
		}
		if st.Waits != 1 || st.Misses != 2 || st.Fills != 1 || st.Entries != 1 {
			t.Fatalf("%v: stats %+v", leaderErr, st)
		}
	}
}

// TestSpiralAnd2DShareConditionLeaves: a condition leaf is one vector
// under one key, whatever the arrangement. A spiral session and a
// 2D-arrangement session on one tier and one query share each condition
// leaf — the 2D one keeps its axes' signed distances as entries of
// their own (runKeys.axis), which no leaf lookup counts — each session's
// rerun recomputes nothing, a second session of either kind is served by
// the tier, and every result is bit-identical to a fresh engine's,
// window cells included.
func TestSpiralAnd2DShareConditionLeaves(t *testing.T) {
	const sql = `SELECT x FROM T WHERE x BETWEEN 4 AND 5 AND y BETWEEN 4 AND 5`
	cat := smallCatalog(t)
	sc := NewSharedCache(0, 0)
	type subject struct {
		name  string
		e     *Engine
		cache *RunCache
		fresh *Result
	}
	var subjects []*subject
	for _, o := range []struct {
		name string
		opt  Options
	}{
		{"spiral", Options{GridW: 10, GridH: 10}},
		{"2d", Options{GridW: 10, GridH: 10, Arrangement: Arrange2D, AxisX: "x", AxisY: "y"}},
	} {
		su := &subject{name: o.name, e: New(cat, nil, o.opt), cache: NewRunCache()}
		su.cache.AttachShared(sc)
		fresh, err := New(cat, nil, o.opt).Run(mustParse(t, sql))
		if err != nil {
			t.Fatal(err)
		}
		su.fresh = fresh
		subjects = append(subjects, su)
	}
	check := func(su *subject, cache *RunCache, wantMisses, wantShared int) {
		t.Helper()
		res, err := runCached(su.e, mustParse(t, sql), cache)
		if err != nil {
			t.Fatal(err)
		}
		if tm := res.Timings; tm.CacheMisses != wantMisses || tm.SharedHits != wantShared {
			t.Fatalf("%s: %d misses, %d shared hits; want %d and %d", su.name, tm.CacheMisses, tm.SharedHits, wantMisses, wantShared)
		}
		sameResults(t, su.fresh, res)
		for rank := 0; rank < res.Displayed; rank++ {
			if res.CellOfRank(rank) != su.fresh.CellOfRank(rank) {
				t.Fatalf("%s: rank %d placed at %+v, a fresh engine places it at %+v", su.name, rank, res.CellOfRank(rank), su.fresh.CellOfRank(rank))
			}
		}
	}
	spiral, twoD := subjects[0], subjects[1]
	check(spiral, spiral.cache, 2, 0)
	check(twoD, twoD.cache, 0, 2) // the spiral session's leaves
	// Two leaves, the raw root of the 2D engine — it sorts in full, so its
	// root is evaluated eagerly and stored like any interior vector — and
	// the signed distances of its two axes.
	if st := sc.Stats(); st.Entries != 5 || st.Fills != 5 || st.Evictions != 0 {
		t.Fatalf("two conditions under two arrangements: %+v", st)
	}
	for _, su := range subjects {
		check(su, su.cache, 0, 0) // pinned
		second := NewRunCache()
		second.AttachShared(sc)
		check(su, second, 0, 2) // the tier's
	}
	if st := sc.Stats(); st.Entries != 5 || st.Fills != 5 {
		t.Fatalf("reruns refilled: %+v", st)
	}
}

// TestSharedTierAcrossRunCaches is the end-to-end two-tier flow: two
// private caches (two sessions) on one engine and one shared tier. The
// second session's first run recomputes nothing — every leaf comes
// from the shared tier — and its result is bit-identical to a cold
// run.
func TestSharedTierAcrossRunCaches(t *testing.T) {
	for _, sql := range []string{
		`SELECT x FROM T WHERE x > 6 AND y < 5`,
		`SELECT x FROM T WHERE NOT (x < 4) AND name = 'beta'`,
		`SELECT x FROM T WHERE NOT (name = 'beta') OR x IN (1, 3, 5)`,
		`SELECT x FROM T WHERE NOT (x BETWEEN 2 AND 5) AND y < 5`,
	} {
		e := New(smallCatalog(t), nil, Options{GridW: 8, GridH: 8})
		q, err := query.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := e.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		sc := NewSharedCache(0, 0)
		c1 := NewRunCache()
		c1.AttachShared(sc)
		first, err := runCached(e, q, c1)
		if err != nil {
			t.Fatal(err)
		}
		if first.Timings.SharedHits != 0 || first.Timings.CacheHits != 0 {
			t.Fatalf("%s: first session warm-start: %+v", sql, first.Timings)
		}
		sameResults(t, cold, first)

		c2 := NewRunCache()
		c2.AttachShared(sc)
		q2, err := query.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		second, err := runCached(e, q2, c2)
		if err != nil {
			t.Fatal(err)
		}
		if second.Timings.CacheMisses != 0 {
			t.Fatalf("%s: second session recomputed %d leaves", sql, second.Timings.CacheMisses)
		}
		if second.Timings.SharedHits == 0 || second.Timings.SharedHits != second.Timings.CacheHits {
			t.Fatalf("%s: second session hits=%d sharedHits=%d", sql, second.Timings.CacheHits, second.Timings.SharedHits)
		}
		sameResults(t, cold, second)

		// A rerun in the second session is served privately, not from
		// the shared tier.
		third, err := runCached(e, q2, c2)
		if err != nil {
			t.Fatal(err)
		}
		if third.Timings.SharedHits != 0 || third.Timings.CacheMisses != 0 {
			t.Fatalf("%s: private rerun: %+v", sql, third.Timings)
		}
		sameResults(t, cold, third)
	}
}

// TestSharedTierPromotesQuantiles: the quantile index built by one
// session's rerun lands in the shared tier (byte accounting grows) and
// later sessions reuse it instead of re-sorting.
func TestSharedTierPromotesQuantiles(t *testing.T) {
	e := New(smallCatalog(t), nil, Options{GridW: 8, GridH: 8})
	q, err := query.Parse(`SELECT x FROM T WHERE x > 6 AND y < 5`)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewSharedCache(0, 0)
	c1 := NewRunCache()
	c1.AttachShared(sc)
	if _, err := runCached(e, q, c1); err != nil {
		t.Fatal(err)
	}
	afterFill := sc.Bytes()
	// The second run hits privately and builds (then promotes) the
	// quantile indexes.
	if _, err := runCached(e, q, c1); err != nil {
		t.Fatal(err)
	}
	if sc.Bytes() <= afterFill {
		t.Fatalf("quantile promotion did not grow the shared tier: %d -> %d bytes", afterFill, sc.Bytes())
	}
	// A later session's first run is handed the promoted indexes with
	// the vectors: it never builds its own.
	c2 := NewRunCache()
	c2.AttachShared(sc)
	if _, err := runCached(e, q, c2); err != nil {
		t.Fatal(err)
	}
	if len(c2.live.leaves) != 2 {
		t.Fatalf("second session pins %d leaves", len(c2.live.leaves))
	}
	for key, le := range c2.live.leaves {
		if le.quant == nil || le.quant != c1.live.leaves[key].quant {
			t.Fatalf("leaf %q: the second session did not get the promoted quantile index", key)
		}
	}
}

// TestNegatedConditionDragRevisits: a negated invertible condition is
// stored under the inverted operator's key. A drag over a NOT-condition
// must still pin exactly the query's vectors at every position — the two
// leaves and the NOT's one-child part — leave the moved leaf and its part
// behind per position, and find the position it started from again
// without computing.
func TestNegatedConditionDragRevisits(t *testing.T) {
	e := New(smallCatalog(t), nil, Options{GridW: 8, GridH: 8})
	q, err := query.Parse(`SELECT x FROM T WHERE NOT (x > 6) AND y < 5`)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewSharedCache(0, 0)
	cache := NewRunCache()
	cache.AttachShared(sc)
	if _, err := runCached(e, q, cache); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 3 || sc.Len() != 3 {
		t.Fatalf("baseline entries: pinned %d, tier %d", cache.Len(), sc.Len())
	}
	inner := q.Where.(*query.BoolExpr).Children[0].(*query.Not).Child.(*query.Cond)
	for i := 0; i < 5; i++ {
		inner.Value = dataset.Float(float64(7 + i))
		res, err := runCached(e, q, cache)
		if err != nil {
			t.Fatal(err)
		}
		if res.Timings.CacheMisses != 1 || cache.Len() != 3 || sc.Len() != 5+2*i {
			t.Fatalf("drag %d: %d misses, pinned %d, tier %d", i, res.Timings.CacheMisses, cache.Len(), sc.Len())
		}
	}
	inner.Value = dataset.Float(6)
	back, err := runCached(e, q, cache)
	if err != nil {
		t.Fatal(err)
	}
	if back.Timings.CacheMisses != 0 || back.Timings.SharedHits != 1 {
		t.Fatalf("back at the first position: %+v", back.Timings)
	}
	cold, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, cold, back)
}

// TestRunPreboundValidation: a binding handed to RunCtx must match the
// query AST and the engine's catalog; a nil one binds afresh.
func TestRunPreboundValidation(t *testing.T) {
	cat := smallCatalog(t)
	e := New(cat, nil, Options{GridW: 8, GridH: 8})
	q, err := query.Parse(`SELECT x FROM T WHERE x > 6`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := query.Bind(q, cat)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RunCtx(context.Background(), q, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, cold, res)

	bound, err := e.RunCtx(context.Background(), q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, cold, bound)
	q2, _ := query.Parse(`SELECT x FROM T WHERE x > 6`)
	if _, err := e.RunCtx(context.Background(), q2, b, nil); err == nil {
		t.Fatal("binding for a different AST accepted")
	}
	other := New(smallCatalog(t), nil, Options{})
	if _, err := other.RunCtx(context.Background(), q, b, nil); err == nil {
		t.Fatal("binding for a different catalog accepted")
	}
}
