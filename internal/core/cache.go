package core

import (
	"fmt"
	"sync"

	"repro/internal/relevance"
)

// RunCache is the reuse layer of the incremental feedback loop as one
// interaction loop sees it: the pin set of the vectors — leaf distances
// and the raw combined vectors of interior nodes — that the loop's live
// Result and its run in flight read, over a SharedCache that stores
// them, plus the pooled evaluation buffers those runs write into.
//
// Entries are keyed by a structural signature of the leaf — table,
// attribute, operator, literals and distance function, but NOT the
// weighting factor — so a weight-only rerun (the section 5.2 slider
// interaction) recomputes nothing below the combination stage, and a
// single-slider range drag recomputes at most the one leaf whose
// literals changed. Since the signature captures every input of the
// leaf computation (the catalog is immutable while an engine uses it),
// entries never go stale and nothing is ever invalidated: what a drag,
// an undo or a query replacement leaves behind stays in the tier until
// its entry cap or byte budget pushes it out of the cold end, so going
// back to a range (undo, a bookmark) is a hit.
//
// The tier is the catalog's (AttachShared) or, for a loop that attaches
// none, the cache's own: maxCacheEntries leaves under
// DefaultSharedBytes. Lookups go pins → tier → compute (the tier fills
// singleflight). The pins are what keeps a rerun at zero misses
// whatever the tier does meanwhile — another session's fills evicting
// the entry — because tier entries are immutable and only ever
// unlinked, never overwritten in place. A pin holds no copy of
// anything: it is the entry's pointers. Pins turn over with the buffer
// generations (beginRun/endRun): a successful run's pins replace the
// previous Result's, a failed run's are dropped and the old picture
// keeps its own.
//
// A run builds its leaves one after another, and at most one run may use
// a RunCache at a time; a Result produced with a RunCache is only valid
// until the next successful run on the same cache (whose evaluation
// recycles the buffers).
// Sessions — one user, one interaction loop — are exactly that shape.
// All runs sharing a cache must use the same catalog and distance
// registry: the keys fingerprint table names and row counts, not cell
// contents or registered function identities.
type RunCache struct {
	mu sync.Mutex
	// shared is the tier the pins stand on; never nil.
	shared *SharedCache
	// live pins what the last successful run's Result reads, cur what
	// the run in flight has fetched so far (empty between runs).
	live, cur pinSet
	// Per-run lookup accounting (the StageTimings attribution). Hits
	// the tier served count as hits and additionally as sharedHits;
	// pinned ones as hits only.
	runHits, runMisses, runSharedHits int
	// Per-run segment-pushdown accounting: storage segments whose decode
	// the footer stats skipped, out of the segments cold computes
	// considered (see Engine.condData). Zero on warm runs.
	runSegsSkipped, runSegs int
	// Buffer pools for the evaluation output vectors and the ranking's
	// index permutation.
	floats bufPool[float64]
	ints   bufPool[int]
}

// pinSet is one generation of pins, by cache key (runKeys): leaves, 2D
// axes and interior vectors.
type pinSet struct {
	leaves map[string]leafEntry
}

func newPinSet() pinSet {
	return pinSet{leaves: make(map[string]leafEntry)}
}

// maxCacheEntries caps the tier of a cache that stands on its own, so
// pathological interaction scripts (e.g. a slider sweep over hundreds
// of distinct ranges with auto-recalculate on) stay within a constant
// factor of the working set. 64 entries comfortably covers the paper's
// interfaces (a handful of predicates, each with its current and a few
// recent ranges).
const maxCacheEntries = 64

// leafEntry is one cached vector as the tier holds it and as fetches
// hand it out and pins keep it: the leaf of a condition, join,
// boolean-negation fallback or subquery, the raw combined vector of an
// interior node, or a 2D axis's signed distances. An entry is its
// vectors and what is built from them, nothing else: the slider's
// numbers are O(1) reads of the condition and its column
// (Result.PredicateInfos). An entry is whole when it is
// stored and never written afterwards; only its raw vector ever leaves
// the process (encodeSharedEntry), and what is built from it is rebuilt
// wherever it goes (SharedCache.fetch's derive).
type leafEntry struct {
	// raw is the distance vector (an interior node's raw combined one).
	raw []float64
	// codes is raw's code plane, built where the vector is born — a
	// leaf's compute, an interior vector's pass, a kv arrival's fill —
	// which the ranking filters the root's rows by and whose counts
	// answer the vector's normalization ranges. A 2D axis's signed
	// distances are never ranked and have none.
	codes *relevance.Codes
	// sorted is a 2D axis's signed distances in ascending order
	// (relevance.SortedValues), the sample its bands are cut from, built
	// with the axis vector (axisEntry), so that a weight drag on a
	// figure 1b picture does not sort them again. No other entry has one.
	sorted []float64
}

// sizeBytes accounts the entry's retained vectors, plane and sample.
func (e leafEntry) sizeBytes() int64 {
	b := int64(8 * (len(e.raw) + len(e.sorted)))
	if e.codes != nil {
		b += e.codes.Bytes()
	}
	return b
}

// bufPool recycles the run-scoped buffers of one element type. free
// holds reusable buffers; lent the ones handed out since the current
// run began; live the ones belonging to the last successful run's
// Result (recycled only once a newer run SUCCEEDS, so a failed rerun
// never corrupts the Result a session keeps serving on error).
type bufPool[T any] struct {
	mu               sync.Mutex
	free, lent, live [][]T
}

// alloc hands out an n-sized buffer, reusing the pool when a matching
// length is free. Buffers are fully overwritten by the evaluator before
// any read, so no zeroing happens here.
func (p *bufPool[T]) alloc(n int) []T {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.free) - 1; i >= 0; i-- {
		if len(p.free[i]) == n {
			b := p.free[i]
			p.free = append(p.free[:i], p.free[i+1:]...)
			p.lent = append(p.lent, b)
			return b
		}
	}
	b := make([]T, n)
	p.lent = append(p.lent, b)
	return b
}

// beginRun moves buffers handed out since the last run ended (lazy
// window materializations of the live Result) into the live set.
func (p *bufPool[T]) beginRun() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.live = append(p.live, p.lent...)
	p.lent = p.lent[:0]
}

// endRun finishes a run. On success the previous Result is superseded:
// its buffers return to the pool and this run's become the live set.
// On failure this run's (possibly partially written) buffers return to
// the pool and the live Result's stay untouched — a session that keeps
// serving its old Result after a failed Recalculate stays consistent.
// Steady state therefore retains two buffer generations (live plus
// free), the usual double-buffering cost.
func (p *bufPool[T]) endRun(ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ok {
		p.free = append(p.free, p.live...)
		p.live = append(p.live[:0], p.lent...)
	} else {
		p.free = append(p.free, p.lent...)
	}
	p.lent = p.lent[:0]
}

// NewRunCache creates an empty cache standing on a tier of its own.
func NewRunCache() *RunCache {
	return &RunCache{
		shared: NewSharedCache(maxCacheEntries, 0),
		live:   newPinSet(),
		cur:    newPinSet(),
	}
}

// AttachShared stands this cache on a catalog-level tier instead of its
// own. All caches attached to one SharedCache must run over the same
// catalog and distance registry. Attach before the first run.
func (c *RunCache) AttachShared(sc *SharedCache) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shared = sc
}

// Shared returns the tier this cache stands on: the attached one, or
// its own.
func (c *RunCache) Shared() *SharedCache {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shared
}

// beginRun starts a new run: per-run counters reset and the buffer
// pools turn over.
func (c *RunCache) beginRun() {
	c.mu.Lock()
	c.runHits, c.runMisses, c.runSharedHits = 0, 0, 0
	c.runSegsSkipped, c.runSegs = 0, 0
	c.mu.Unlock()
	c.floats.beginRun()
	c.ints.beginRun()
}

// endRun finishes a run; see bufPool.endRun for what ok decides. The
// pins follow the buffers: a successful run's become the live set, a
// failed run's are dropped and the live Result keeps its own.
func (c *RunCache) endRun(ok bool) {
	c.floats.endRun(ok)
	c.ints.endRun(ok)
	c.mu.Lock()
	defer c.mu.Unlock()
	if ok {
		c.live, c.cur = c.cur, c.live
	}
	clear(c.cur.leaves)
}

// runStats returns the current run's lookup counts. sharedHits is the
// subset of hits the tier served (including waits on another session's
// in-flight fill) rather than the pins. A run builds its leaves before
// it resolves any interior vector or 2D axis, so read right after the
// leaves, they are the leaves' counts.
func (c *RunCache) runStats() (hits, misses, sharedHits int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runHits, c.runMisses, c.runSharedHits
}

// addSegStats folds one cold compute's segment-pushdown counts into the
// current run's attribution. Called from a condition's compute closure,
// which may run on any goroutine (including another session's
// singleflight fill — the counts land on whichever run paid the cost).
func (c *RunCache) addSegStats(skipped, segs int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.runSegsSkipped += skipped
	c.runSegs += segs
}

// runSegStats returns the current run's segment-pushdown counts.
func (c *RunCache) runSegStats() (skipped, segs int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runSegsSkipped, c.runSegs
}

// Len returns the number of vectors pinned for the live Result.
func (c *RunCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.live.leaves)
}

// pinned serves key from the pins (of this run or of the live Result)
// and pins it for this run.
func (c *RunCache) pinned(key string) (leafEntry, bool) {
	c.mu.Lock()
	shared := c.shared
	le, ok := c.cur.leaves[key]
	if !ok {
		le, ok = c.live.leaves[key]
	}
	c.mu.Unlock()
	if !ok {
		return leafEntry{}, false
	}
	// The tier does not see a pinned hit unless told: touching keeps a
	// vector this loop sits on from ageing out under other loops' fills.
	shared.touch(key)
	c.pin(key, le)
	return le, true
}

// pin records le among the vectors the run in flight reads.
func (c *RunCache) pin(key string, le leafEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cur.leaves[key] = le
}

// fetch resolves key — a leaf's, a 2D axis's or an interior vector's
// (runKeys) — over an item space of rows items: a pin, then the tier
// (derive completes what its remote tier serves), then compute (through
// the tier's singleflight fill). Without a cache it computes.
func (c *RunCache) fetch(key string, rows int, derive func([]float64) leafEntry, compute func() (leafEntry, error)) (leafEntry, error) {
	if c == nil {
		return compute()
	}
	le, pinned := c.pinned(key)
	sharedHit := false
	if !pinned {
		var err error
		if le, sharedHit, err = c.Shared().fetch(key, rows, derive, compute); err != nil {
			return leafEntry{}, err
		}
		c.pin(key, le)
	}
	// Attribute the lookup: a vector the pins or the tier served is a
	// cache hit for the run, anything else was computed here (a miss).
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case pinned:
		c.runHits++
	case sharedHit:
		c.runHits++
		c.runSharedHits++
	default:
		c.runMisses++
	}
	return le, nil
}

// spaceSig fingerprints the item space a leaf vector was computed over:
// table identities, row counts (and the cross-product cap), and the
// catalog's segment epoch — the content hash of a file-backed catalog,
// 0 for in-memory ones — so a catalog mutated between runs (rows
// appended to a table, a segment file regenerated with different data)
// can never serve stale vectors.
func (e *Engine) spaceSig(space *itemSpace) string {
	epoch := e.cat.Epoch()
	if space.pairs == nil {
		t := space.tables[0]
		return fmt.Sprintf("T:%s:%d:e%x", t.Name(), t.NumRows(), epoch)
	}
	lt, rt := space.tables[0], space.tables[1]
	return fmt.Sprintf("P:%s:%d:%s:%d:%d:e%x", lt.Name(), lt.NumRows(), rt.Name(), rt.NumRows(), e.opt.MaxPairs, epoch)
}
