package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/relevance"
)

// fillDists stores an n-float leaf vector under key via the
// singleflight path (compute always runs: the key is absent).
func fillDists(t *testing.T, sc *SharedCache, key string, n int, fill float64) {
	t.Helper()
	_, hit, err := sc.fetch(key, n, nil, func() (leafEntry, error) {
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
	_, hit, err := sc.fetch(key, 0, nil, func() (leafEntry, error) {
		return leafEntry{}, fmt.Errorf("touch of %q missed", key)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatalf("touch of %q missed", key)
	}
}

// residentKeys returns which of the candidate keys are resident, sorted.
// It refreshes their recency, so it is a test's last look at sc.
func residentKeys(sc *SharedCache, candidates ...string) []string {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	keys := []string{}
	for _, k := range candidates {
		if _, ok := sc.entries.Get(k); ok {
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
	old, _, err := sc.fetch(key, 4, nil, func() (leafEntry, error) {
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

	fresh, hit, err := sc.fetch(key, 4, nil, func() (leafEntry, error) {
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
			v, _, err := sc.fetch("K", 1, nil, func() (leafEntry, error) {
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
			_, _, err := sc.fetch("K", 1, nil, func() (leafEntry, error) {
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
		le, hit, err := sc.fetch("K", 1, nil, func() (leafEntry, error) {
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
	// Two leaves, their columns' planes and the signed distances of the 2D
	// engine's two axes. Its root is deferred and ranked like the
	// spiral's, so no root vector is stored.
	if st := sc.Stats(); st.Entries != 6 || st.Fills != 6 || st.Evictions != 0 {
		t.Fatalf("two conditions under two arrangements: %+v", st)
	}
	for _, su := range subjects {
		check(su, su.cache, 0, 0) // pinned
		second := NewRunCache()
		second.AttachShared(sc)
		check(su, second, 0, 2) // the tier's
	}
	if st := sc.Stats(); st.Entries != 6 || st.Fills != 6 {
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

// TestAxisEntryBornWithItsSample: a 2D axis entry ("A|") is stored with
// its sorted sample, and nothing grows a resident entry afterwards: a
// rerun leaves the tier's bytes alone, a later session pins the very
// sample the first one holds, and no leaf or interior entry carries one.
// A node that takes the axes from the fleet sorts them on arrival, to
// the bits a local fill holds, and draws the picture a FullSort engine
// draws.
func TestAxisEntryBornWithItsSample(t *testing.T) {
	const sql = `SELECT x FROM T WHERE x BETWEEN 20 AND 60 AND y BETWEEN 30 AND 50`
	cat := specialCatalog(t, 3000)
	opt := Options{GridW: 16, GridH: 16, Arrangement: Arrange2D, AxisX: "x", AxisY: "y"}
	// residentAxes returns the resident entries of the axis keys c pins,
	// and fails on any other pinned entry that carries a sample.
	residentAxes := func(sc *SharedCache, c *RunCache) map[string]leafEntry {
		t.Helper()
		axes := map[string]leafEntry{}
		for key, le := range c.live.leaves {
			if !strings.HasPrefix(key, "A|") {
				if le.sorted != nil {
					t.Fatalf("entry %q carries a sample", key)
				}
				continue
			}
			sc.mu.Lock()
			axes[key], _ = sc.entries.Get(key)
			sc.mu.Unlock()
			if axes[key].sorted == nil {
				t.Fatalf("resident axis %q has no sample", key)
			}
		}
		if len(axes) != 2 {
			t.Fatalf("%d axis entries pinned, want 2", len(axes))
		}
		return axes
	}

	e := New(cat, nil, opt)
	sc := NewSharedCache(0, 0)
	c1 := NewRunCache()
	c1.AttachShared(sc)
	if _, err := runCached(e, mustParse(t, sql), c1); err != nil {
		t.Fatal(err)
	}
	first := residentAxes(sc, c1)
	afterFill := sc.Bytes()
	if _, err := runCached(e, mustParse(t, sql), c1); err != nil {
		t.Fatal(err)
	}
	if sc.Bytes() != afterFill {
		t.Fatalf("a rerun grew the shared tier: %d -> %d bytes", afterFill, sc.Bytes())
	}
	c2 := NewRunCache()
	c2.AttachShared(sc)
	if _, err := runCached(e, mustParse(t, sql), c2); err != nil {
		t.Fatal(err)
	}
	residentAxes(sc, c2)
	for key, le := range first {
		if pin := c2.live.leaves[key].sorted; &pin[0] != &le.sorted[0] {
			t.Fatalf("axis %q: the second session pins a sample of its own", key)
		}
	}

	// Across the fleet: node A offers the axes' vectors, node B's first
	// run takes them from the store (its range leaves are views of its
	// own planes).
	full, err := New(cat, nil, Options{GridW: 16, GridH: 16, Arrangement: Arrange2D, AxisX: "x", AxisY: "y", FullSort: true}).Run(mustParse(t, sql))
	if err != nil {
		t.Fatal(err)
	}
	backend := newMapBackend()
	for node := 0; node < 2; node++ {
		scN := NewSharedCacheOpts(SharedOptions{Backend: backend})
		c := NewRunCache()
		c.AttachShared(scN)
		res, err := runCached(New(cat, nil, opt), mustParse(t, sql), c)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, full, res)
		if node == 0 {
			continue
		}
		if st := scN.Stats(); st.RemoteHits != 2 || st.RemoteMisses != 0 {
			t.Fatalf("node B: remote hits %d, misses %d; want its 2 axes from the store (its 2 range leaves are views, which never travel)", st.RemoteHits, st.RemoteMisses)
		}
		sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		for key, le := range residentAxes(scN, c) {
			if !slices.EqualFunc(relevance.SortedValues(le.raw), le.sorted, sameBits) || !slices.EqualFunc(first[key].sorted, le.sorted, sameBits) {
				t.Fatalf("axis %q: the sample rebuilt on arrival differs from sorting its vector or from a local fill", key)
			}
		}
	}
}

// TestNegatedConditionDragRevisits: a negated invertible condition is
// stored under the inverted operator's key. A drag over a NOT-condition
// must still pin exactly the query's vectors at every position — the two
// leaves and the NOT's one-child part — leave the moved leaf and its part
// behind per position, and find the position it started from again
// without computing. The tier holds the code planes of the two columns
// besides, which no run pins.
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
	if cache.Len() != 3 || sc.Len() != 5 {
		t.Fatalf("baseline entries: pinned %d, tier %d", cache.Len(), sc.Len())
	}
	inner := q.Where.(*query.BoolExpr).Children[0].(*query.Not).Child.(*query.Cond)
	for i := 0; i < 5; i++ {
		inner.Value = dataset.Float(float64(7 + i))
		res, err := runCached(e, q, cache)
		if err != nil {
			t.Fatal(err)
		}
		if res.Timings.CacheMisses != 1 || cache.Len() != 3 || sc.Len() != 7+2*i {
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
