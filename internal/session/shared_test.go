package session

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/query"
)

// TestConcurrentSharedSessionsMatchFreshEngine is the multi-tenant
// identity property (run it under -race): many goroutine sessions on
// one catalog-level shared cache, each driving its own randomized
// interaction script — range drags, weight changes, undos — and each
// asserting, at every step, that its result is bit-identical to a
// fresh, isolated engine run of its current query. Cross-session
// sharing must be invisible except in the timings.
func TestConcurrentSharedSessionsMatchFreshEngine(t *testing.T) {
	const (
		goroutines = 8
		steps      = 12
	)
	cat := interactionCatalog(t, 400)
	opt := core.Options{GridW: 8, GridH: 8}
	shared := core.NewSharedCache(0, 0)
	// Three overlapping queries so sessions share some leaves and drag
	// others apart.
	queries := []string{
		`SELECT a FROM S WHERE a > 50 AND b < 40`,
		`SELECT a FROM S WHERE a > 50 AND c BETWEEN 20 AND 30`,
		`SELECT a FROM S WHERE a > 50 AND b < 40 OR c BETWEEN 20 AND 30 WEIGHT 2`,
	}
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			fail := func(err error) {
				select {
				case errs <- fmt.Errorf("session %d: %w", g, err):
				default:
				}
			}
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			s, err := NewSQLSharedCtx(context.Background(), cat, nil, opt, queries[g%len(queries)], shared)
			if err != nil {
				fail(err)
				return
			}
			if err := freshMismatch("initial", s, cat, opt); err != nil {
				fail(err)
				return
			}
			attrs := []string{"a", "b", "c"}
			for step := 0; step < steps; step++ {
				label := fmt.Sprintf("step %d", step)
				switch op := rng.Intn(10); {
				case op < 5: // range drag
					attr := attrs[rng.Intn(len(attrs))]
					c, err := s.FindCond(attr)
					if err != nil {
						continue // this session's query has no such condition
					}
					lo := math.Floor(rng.Float64() * 80)
					hi := lo + math.Floor(rng.Float64()*40)
					if rng.Intn(3) == 0 {
						err = s.SetRange(c, lo, math.Inf(1))
					} else {
						err = s.SetRange(c, lo, hi)
					}
					if err != nil {
						fail(fmt.Errorf("%s: drag: %w", label, err))
						return
					}
				case op < 8: // weight change (sometimes a no-op)
					preds := query.Predicates(s.Query().Where)
					p := preds[rng.Intn(len(preds))]
					if err := s.SetWeight(p, []float64{0.5, 1, 2, 3}[rng.Intn(4)]); err != nil {
						fail(fmt.Errorf("%s: weight: %w", label, err))
						return
					}
				default: // undo
					if !s.CanUndo() {
						continue
					}
					if err := s.Undo(); err != nil {
						fail(fmt.Errorf("%s: undo: %w", label, err))
						return
					}
				}
				if err := freshMismatch(label, s, cat, opt); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := shared.Stats()
	if st.Hits == 0 {
		t.Fatalf("no cross-session sharing happened: %+v", st)
	}
	if st.Fills == 0 || st.Bytes <= 0 {
		t.Fatalf("shared tier never filled: %+v", st)
	}
}

// TestSharedSessionsReportSharedHits: the second session on a catalog
// starts warm — its initial run serves every leaf from the shared tier
// and says so in StageTimings.
func TestSharedSessionsReportSharedHits(t *testing.T) {
	cat := interactionCatalog(t, 300)
	opt := core.Options{GridW: 8, GridH: 8}
	shared := core.NewSharedCache(0, 0)
	const sql = `SELECT a FROM S WHERE a > 50 AND b < 40`
	s1, err := NewSQLSharedCtx(context.Background(), cat, nil, opt, sql, shared)
	if err != nil {
		t.Fatal(err)
	}
	if tm := s1.Result().Timings; tm.SharedHits != 0 || tm.CacheMisses != 2 {
		t.Fatalf("first session timings: %+v", tm)
	}
	s2, err := NewSQLSharedCtx(context.Background(), cat, nil, opt, sql, shared)
	if err != nil {
		t.Fatal(err)
	}
	if tm := s2.Result().Timings; tm.SharedHits != 2 || tm.CacheHits != 2 || tm.CacheMisses != 0 {
		t.Fatalf("second session timings: %+v", tm)
	}
	// One session's drag away from the range leaves the other session —
	// still at that range — warm.
	c1, err := s1.FindCond("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.SetRange(c1, 30, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	p := query.Predicates(s2.Query().Where)[0]
	if err := s2.SetWeight(p, 2); err != nil {
		t.Fatal(err)
	}
	if tm := s2.Result().Timings; tm.CacheMisses != 0 {
		t.Fatalf("neighbor's drag cost this session a leaf: %+v", tm)
	}
	if err := freshMismatch("after the neighbor's drag", s2, cat, opt); err != nil {
		t.Fatal(err)
	}
}
