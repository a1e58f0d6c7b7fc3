package session

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/query"
)

// mismatch compares two sessions' current results bitwise — combined
// distances, display shape, order prefix and every predicate window
// vector — as a plain error for lockstep replay loops.
func mismatch(step string, a, b *Session) error {
	ra, rb := a.Result(), b.Result()
	if ra.N != rb.N || ra.Displayed != rb.Displayed {
		return fmt.Errorf("%s: N %d vs %d, Displayed %d vs %d", step, ra.N, rb.N, ra.Displayed, rb.Displayed)
	}
	ca, cb := ra.Combined(), rb.Combined()
	for i := range ca {
		x, y := ca[i], cb[i]
		if math.Float64bits(x) != math.Float64bits(y) && !(math.IsNaN(x) && math.IsNaN(y)) {
			return fmt.Errorf("%s: combined[%d] %v vs %v", step, i, x, y)
		}
	}
	for rank := 0; rank < ra.Displayed; rank++ {
		if ra.Order[rank] != rb.Order[rank] {
			return fmt.Errorf("%s: order[%d] %d vs %d", step, rank, ra.Order[rank], rb.Order[rank])
		}
	}
	pa := query.Predicates(a.Query().Where)
	pb := query.Predicates(b.Query().Where)
	if len(pa) != len(pb) {
		return fmt.Errorf("%s: predicate count %d vs %d", step, len(pa), len(pb))
	}
	for pi := range pa {
		for i := 0; i < ra.N; i++ {
			x, errA := ra.NormOf(pa[pi], i)
			y, errB := rb.NormOf(pb[pi], i)
			if (errA == nil) != (errB == nil) {
				return fmt.Errorf("%s: NormOf error mismatch on predicate %d", step, pi)
			}
			if errA != nil {
				break
			}
			if math.Float64bits(x) != math.Float64bits(y) && !(math.IsNaN(x) && math.IsNaN(y)) {
				return fmt.Errorf("%s: predicate %d item %d: %v vs %v", step, pi, i, x, y)
			}
		}
	}
	return nil
}

// TestDiskReplayBitIdentical is the file-backed identity property: the
// same randomized interaction script — range drags, weight changes,
// percent-displayed moves, undos — driven in lockstep over the
// in-memory catalog and the same catalog read from its segment file
// produces bit-identical results at every step. The decoded-segment
// cache is squeezed to near nothing, so most reads re-decode segments
// from the file; interior reuse stays active on both sessions, so the
// warm fast path is covered too, not just cold scans.
func TestDiskReplayBitIdentical(t *testing.T) {
	const n = 2*4096 + 123 // spans three segments
	mem := interactionCatalog(t, n)
	segPath := filepath.Join(t.TempDir(), "s.visdb")
	epoch, err := dataset.WriteCatalogFile(segPath, mem)
	if err != nil {
		t.Fatal(err)
	}
	if epoch == 0 {
		t.Fatal("segment file carries no content epoch")
	}

	disk, err := dataset.OpenCatalogFile(segPath, dataset.OpenOptions{
		CacheBytes: 1, // degrades to one resident segment, never fails
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	if disk.Epoch() != epoch {
		t.Fatalf("opened epoch %x, wrote %x", disk.Epoch(), epoch)
	}

	opt := core.Options{GridW: 16, GridH: 16}
	sql := `SELECT a FROM S WHERE a > 50 AND b < 40 OR c BETWEEN 20 AND 30 WEIGHT 2`
	sessions := map[string]*Session{}
	for name, cat := range map[string]*dataset.Catalog{
		"mem":  mem,
		"disk": disk,
	} {
		s, err := NewSQL(cat, nil, opt, sql)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sessions[name] = s
	}
	compare := func(step string) {
		t.Helper()
		if err := mismatch(step, sessions["disk"], sessions["mem"]); err != nil {
			t.Fatal(err)
		}
	}
	compare("initial")

	rng := rand.New(rand.NewSource(61))
	attrs := []string{"a", "b", "c"}
	apply := func(step string, f func(s *Session) error) {
		t.Helper()
		for name, s := range sessions {
			if err := f(s); err != nil {
				t.Fatalf("%s [%s]: %v", step, name, err)
			}
		}
		compare(step)
	}
	for step := 0; step < 40; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // range drag
			attr := attrs[rng.Intn(len(attrs))]
			lo := math.Floor(rng.Float64() * 80)
			hi := lo + math.Floor(rng.Float64()*40)
			switch rng.Intn(3) {
			case 0:
				hi = math.Inf(1)
			case 1:
				lo = math.Inf(-1)
			}
			apply(fmt.Sprintf("step %d: drag %s to [%g,%g]", step, attr, lo, hi), func(s *Session) error {
				c, err := s.FindCond(attr)
				if err != nil {
					return err
				}
				return s.SetRange(c, lo, hi)
			})
		case op < 7: // weight change (own-node and sibling drags)
			i := rng.Intn(2)
			w := []float64{0.5, 1, 2, 3}[rng.Intn(4)]
			apply(fmt.Sprintf("step %d: weight pred %d = %g", step, i, w), func(s *Session) error {
				return s.SetWeight(query.Predicates(s.Query().Where)[i], w)
			})
		case op < 8: // percent-displayed slider
			pct := []float64{0, 0.1, 0.5, 1}[rng.Intn(4)]
			apply(fmt.Sprintf("step %d: pct %g", step, pct), func(s *Session) error {
				return s.SetPercentDisplayed(pct)
			})
		default: // undo
			if !sessions["mem"].CanUndo() {
				continue
			}
			apply(fmt.Sprintf("step %d: undo", step), func(s *Session) error {
				return s.Undo()
			})
		}
	}
	// The warm fast path must actually have been exercised on the
	// file-backed session, not just the in-memory one.
	if tm := sessions["disk"].Result().Timings; tm.SketchHits == 0 && tm.CacheHits == 0 {
		t.Error("disk session finished with no cache activity at all")
	}
}
