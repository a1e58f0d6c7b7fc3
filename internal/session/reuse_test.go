package session

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/query"
)

const reuseSQL = `SELECT a FROM S WHERE a > 50 AND b < 40`

// reuseStep is one feedback step of a script runReuseScript drives: what
// to do, and the leaf reuse the step must show in StageTimings (hits,
// misses, and the hits the tier served rather than the pins).
type reuseStep struct {
	name                     string
	do                       func(s *Session) error
	hits, misses, sharedHits int
}

func dragA(lo float64) func(s *Session) error {
	return func(s *Session) error { return s.SetRangeByAttr("a", lo, math.Inf(1)) }
}

func weigh(pred int, w float64) func(s *Session) error {
	return func(s *Session) error { return s.SetWeight(query.Predicates(s.Query().Where)[pred], w) }
}

// runReuseScript applies the steps to s, checking each one's timings,
// its picture against a fresh FullSort engine, and the pin count.
func runReuseScript(t *testing.T, s *Session, steps []reuseStep) {
	t.Helper()
	cat, opt := s.cat, s.opt
	for _, st := range steps {
		if err := st.do(s); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		tm := s.Result().Timings
		if tm.CacheHits != st.hits || tm.CacheMisses != st.misses || tm.SharedHits != st.sharedHits {
			t.Fatalf("%s: hits=%d misses=%d sharedHits=%d, want %d/%d/%d", st.name,
				tm.CacheHits, tm.CacheMisses, tm.SharedHits, st.hits, st.misses, st.sharedHits)
		}
		if err := matchesFullSort(st.name, s, cat, opt); err != nil {
			t.Fatal(err)
		}
		if n := s.cache.Len(); n != 2 {
			t.Fatalf("%s: %d leaves pinned for a two-leaf query", st.name, n)
		}
	}
}

// TestUndoAndRevisitRecomputeNothing: nothing is invalidated when a
// range is left, so the undo that returns to it and a later drag back
// to where the undo came from are both served by the session's tier —
// here its own, no SharedCache attached.
func TestUndoAndRevisitRecomputeNothing(t *testing.T) {
	s, err := NewSQL(rankScaleCatalog(t, 9000), nil, core.Options{GridW: 16, GridH: 16}, reuseSQL)
	if err != nil {
		t.Fatal(err)
	}
	runReuseScript(t, s, []reuseStep{
		{"drag", dragA(30), 1, 1, 0},
		{"undo", (*Session).Undo, 2, 0, 1},
		{"weight after undo", weigh(0, 2), 2, 0, 0},
		{"drag back to the undone range", dragA(30), 2, 0, 1},
		{"second drag", dragA(20), 1, 1, 0},
		{"undo of it", (*Session).Undo, 2, 0, 1},
		{"undo of the revisit", (*Session).Undo, 2, 0, 1},
	})
}

// TestSecondSessionHitsRangeTheFirstLeft: the range one session drags
// away from stays in the catalog's tier, and another session dragging
// to it computes nothing.
func TestSecondSessionHitsRangeTheFirstLeft(t *testing.T) {
	cat := rankScaleCatalog(t, 9000)
	opt := core.Options{GridW: 16, GridH: 16}
	shared := core.NewSharedCache(0, 0)
	s1, err := NewSQLSharedCtx(context.Background(), cat, nil, opt, reuseSQL, shared)
	if err != nil {
		t.Fatal(err)
	}
	runReuseScript(t, s1, []reuseStep{
		{"first: drag to 30", dragA(30), 1, 1, 0},
		{"first: leaves 30 for 10", dragA(10), 1, 1, 0},
	})
	s2, err := NewSQLSharedCtx(context.Background(), cat, nil, opt, reuseSQL, shared)
	if err != nil {
		t.Fatal(err)
	}
	runReuseScript(t, s2, []reuseStep{
		{"second: drag to the range the first left", dragA(30), 2, 0, 1},
		{"second: undo", (*Session).Undo, 2, 0, 1},
	})
	if st := shared.Stats(); st.Evictions != 0 || st.Entries != 6 {
		t.Fatalf("tier after three ranges of a and one of b, and the planes of a and b: %+v", st)
	}
}

// TestDeadlineCancelledRerunKeepsPicture: a rerun cut off by its
// deadline leaves the Result the session serves bit-identical — the
// vectors it pins and the buffers it lent are the old picture's still,
// lazily materialized windows included — and the retry succeeds.
func TestDeadlineCancelledRerunKeepsPicture(t *testing.T) {
	cat := rankScaleCatalog(t, 9000)
	opt := core.Options{GridW: 16, GridH: 16}
	s, err := NewSQLSharedCtx(context.Background(), cat, nil, opt, reuseSQL, core.NewSharedCache(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := weigh(0, 2)(s); err != nil {
		t.Fatal(err)
	}
	before := s.Result()
	order := append([]int(nil), before.Order[:before.Displayed]...)
	combined := append([]float64(nil), before.Combined()...)

	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(1, 0))
	defer cancel()
	s.SetRunContext(ctx)
	for name, op := range map[string]func(*Session) error{"drag": dragA(30), "weight": weigh(1, 3)} {
		if err := op(s); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s past its deadline: %v", name, err)
		}
	}
	s.SetRunContext(nil)

	if s.Result() != before {
		t.Fatal("a failed rerun replaced the Result")
	}
	for rank, item := range order {
		if before.Order[rank] != item {
			t.Fatalf("order[%d] moved: %d -> %d", rank, item, before.Order[rank])
		}
	}
	for i, v := range before.Combined() {
		if math.Float64bits(v) != math.Float64bits(combined[i]) {
			t.Fatalf("combined[%d] moved: %v -> %v", i, combined[i], v)
		}
	}
	// The per-predicate windows materialize now, from the pinned leaves.
	if err := matchesFullSort("old picture", s, cat, opt); err != nil {
		t.Fatal(err)
	}
	if err := freshMismatch("old picture's windows", s, cat, opt); err != nil {
		t.Fatal(err)
	}
	runReuseScript(t, s, []reuseStep{
		{"retried drag", dragA(30), 1, 1, 0},
		{"retried weight", weigh(1, 3), 2, 0, 0},
	})
}

// TestDragStormStaysInsideTheBudget: 500 distinct positions of one
// slider with auto-recalculate on. Nothing invalidates the positions
// left behind; the tier's bounds alone drop them, every drop is counted
// as an eviction, and the session pins the two leaves of its query and
// nothing more.
func TestDragStormStaysInsideTheBudget(t *testing.T) {
	const positions = 500
	cat := rankScaleCatalog(t, 2000)
	opt := core.Options{GridW: 8, GridH: 8}
	// Forty bare leaf vectors' worth: the byte budget binds long before
	// the default entry cap does.
	const smallBudget = 40 * 8 * 2000
	shared := core.NewSharedCache(0, smallBudget)
	attached, err := NewSQLSharedCtx(context.Background(), cat, nil, opt, reuseSQL, shared)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewSQL(cat, nil, opt, reuseSQL)
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		s      *Session
		budget int64
	}{
		"attached": {attached, smallBudget},
		"plain":    {plain, core.DefaultSharedBytes},
	} {
		s, tier := tc.s, tc.s.cache.Shared()
		for i := 0; i < positions; i++ {
			step := fmt.Sprintf("%s, position %d", name, i)
			if err := dragA(float64(i) / 8)(s); err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			st := tier.Stats()
			if st.Bytes > tc.budget {
				t.Fatalf("%s: %d resident bytes over the budget of %d", step, st.Bytes, tc.budget)
			}
			if int(st.Fills-st.Evictions) != st.Entries {
				t.Fatalf("%s: %d fills - %d evictions != %d entries: a drop nobody counted", step, st.Fills, st.Evictions, st.Entries)
			}
			if n := s.cache.Len(); n > 2 {
				t.Fatalf("%s: %d leaves pinned for a two-leaf query", step, n)
			}
			if i%50 == 49 {
				if err := matchesFullSort(step, s, cat, opt); err != nil {
					t.Fatal(err)
				}
			}
		}
		if st := tier.Stats(); st.Fills != positions+4 || st.Evictions == 0 {
			t.Fatalf("%s: the storm filled %d entries (its leaves and the planes of a and b) and evicted %d", name, st.Fills, st.Evictions)
		}
	}
	if st := plain.cache.Shared().Stats(); st.Entries != 64 {
		t.Fatalf("a plain session's own tier holds %d leaves, its cap is 64", st.Entries)
	}
}

// TestPinnedSessionReadsWhileNeighbourEvicts (run it under -race): a
// catalog tier too small for two sessions, so the fills of the storming
// one evict whatever the tier held — including the vectors of the
// session next to it. That one keeps rerunning over exactly those
// vectors: its pins must serve every rerun without a recompute while
// their tier entries come and go underneath, bit-identical to a fresh
// engine throughout, and the tier never passes its bounds. The flat row
// has a tier of ONE entry under two-leaf queries; the nested row a byte
// budget of six bare vectors under an OR over an AND part, where every
// position of the storm fills a leaf and stores the part over it while
// the reader drags the weight outside its own part and reuses it.
func TestPinnedSessionReadsWhileNeighbourEvicts(t *testing.T) {
	const steps, rows = 60, 1500
	cat := interactionCatalog(t, rows)
	opt := core.Options{GridW: 8, GridH: 8}
	for name, tc := range map[string]struct {
		stormSQL, readSQL string
		entries           int
		bytes             int64
		hits, sketchHits  int // of every reader rerun
	}{
		"flat": {reuseSQL, `SELECT a FROM S WHERE b < 40 AND c BETWEEN 20 AND 30`, 1, 0, 2, 0},
		"nested": {`SELECT a FROM S WHERE a > 50 AND b < 40 OR c BETWEEN 20 AND 30`,
			`SELECT a FROM S WHERE a > 10.5 AND b < 40 OR c BETWEEN 20 AND 30`, 0, 6 * 8 * rows, 3, 1},
	} {
		shared := core.NewSharedCache(tc.entries, tc.bytes)
		inBounds := func() error {
			st := shared.Stats()
			if (tc.entries > 0 && st.Entries > tc.entries) || (tc.bytes > 0 && st.Bytes > tc.bytes) {
				return fmt.Errorf("%s: tier past its bounds: %+v", name, st)
			}
			return nil
		}
		stormer, err := NewSQLSharedCtx(context.Background(), cat, nil, opt, tc.stormSQL, shared)
		if err != nil {
			t.Fatal(err)
		}
		reader, err := NewSQLSharedCtx(context.Background(), cat, nil, opt, tc.readSQL, shared)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 2)
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < steps && errs[0] == nil; i++ {
				if errs[0] = dragA(float64(i))(stormer); errs[0] == nil {
					errs[0] = inBounds()
				}
				if errs[0] == nil && i%10 == 9 {
					errs[0] = freshMismatch(fmt.Sprintf("%s: storm position %d", name, i), stormer, cat, opt)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < steps && errs[1] == nil; i++ {
				// Flat: either leaf's weight. Nested: the BETWEEN leaf's, the
				// one predicate outside the AND part.
				pred := i % 2
				if tc.sketchHits > 0 {
					pred = 1
				}
				if errs[1] = weigh(pred, float64(2+i%3))(reader); errs[1] != nil {
					return
				}
				if tm := reader.Result().Timings; tm.CacheMisses != 0 || tm.CacheHits != tc.hits || tm.SketchHits != tc.sketchHits {
					errs[1] = fmt.Errorf("%s: reader rerun %d recomputed: hits=%d misses=%d sketch hits=%d", name, i, tm.CacheHits, tm.CacheMisses, tm.SketchHits)
					return
				}
				if errs[1] = inBounds(); errs[1] == nil {
					errs[1] = freshMismatch(fmt.Sprintf("%s: reader rerun %d", name, i), reader, cat, opt)
				}
			}
		}()
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
		st := shared.Stats()
		if int(st.Fills-st.Evictions) != st.Entries || st.Evictions == 0 || (tc.entries == 1 && st.Entries != 1) {
			t.Fatalf("%s: tier after the storm: %+v", name, st)
		}
	}
}
