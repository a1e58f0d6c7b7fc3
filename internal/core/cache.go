package core

import (
	"fmt"
	"math"
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
	// seedThr carries the previous ranking's raw k-th value (the
	// rank-before-scale pruning threshold) to the next recalculation over
	// the same leaves, seedSig being the run's leaf-key set (leafSetSig).
	// Weight edits, their undos and a query rewritten over the same leaves
	// reuse it — a stale seed can only cost a re-run of the selection,
	// never correctness — and a run that moved a leaf finds none: the
	// perturbed leaf makes the old raw domain meaningless as a starting
	// point.
	seedThr float64
	seedSig string
}

// pinSet is one generation of pins, by cache key: leaves and, under
// runKeys.interior, interior vectors.
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
// hand it out and pins keep it (by value: a consistent snapshot, since
// quant and cstats of the resident entry may be attached later under
// the tier's mutex): the leaf of a condition, join, boolean-negation
// fallback or subquery, or the raw combined vector of an interior node
// — a cached subtree is a leaf. An entry is its vectors and what is
// built from them, nothing else: the slider's numbers are O(1) reads of
// the condition and its column (Result.PredicateInfos). The vectors are
// immutable once stored; only they ever leave the process
// (encodeSharedEntry), and the indexes are rebuilt wherever they go.
type leafEntry struct {
	// raw is the distance vector (an interior node's raw combined one).
	raw []float64
	// zeros counts the exact +0 entries of raw when a range condition's
	// kernel wrote it (relevance.Node.Zeros); 0: not counted.
	zeros int
	// quant is the sorted quantile index over the leaf's distances,
	// built on the entry's first reuse: a leaf that recurs across reruns
	// is hot, and the one-time linear-time build buys O(1) normalization
	// ranges for every subsequent weighting change.
	quant *relevance.LeafQuantiles
	// cstats is the per-chunk min/NaN index, built together with quant
	// (an interior vector arrives with the one its fused pass produced,
	// a range leaf whose segments the pushdown skipped with one it
	// synthesized): it feeds the block-pruning bounds of the
	// rank-before-scale ranking, so warm reruns can skip whole chunks of
	// root combine work.
	cstats *relevance.LeafChunkStats
}

// sizeBytes accounts the entry's retained vectors and indexes.
func (e *leafEntry) sizeBytes() int64 {
	n := len(e.raw)
	if e.quant != nil {
		n += e.quant.Size()
	}
	if e.cstats != nil {
		n += e.cstats.Size()
	}
	return int64(8 * n)
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
		shared:  NewSharedCache(maxCacheEntries, 0),
		live:    newPinSet(),
		cur:     newPinSet(),
		seedThr: math.NaN(),
	}
}

// rootSeed returns the previous ranking's raw threshold if that ranking
// read the leaf set sig names, NaN otherwise.
func (c *RunCache) rootSeed(sig string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seedSig != sig {
		return math.NaN()
	}
	return c.seedThr
}

// storeRootSeed records a ranking's raw threshold for the next
// recalculation over the same leaf set.
func (c *RunCache) storeRootSeed(sig string, thr float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seedThr, c.seedSig = thr, sig
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
// in-flight fill) rather than the pins.
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
// and pins it for this run. With index, the acceleration indexes (quant,
// cstats) of the returned entry are set from a vector's first pinned
// reuse on — a fill never indexes, and neither does a revisit the tier
// answers.
func (c *RunCache) pinned(key string, index bool) (leafEntry, bool) {
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
	// vector this loop sits on from ageing out under other loops' fills,
	// and finds the indexes another loop already built.
	quant, cstats := shared.touch(key)
	if index && le.quant == nil {
		if quant == nil {
			// Built outside any mutex — milliseconds of linear passes
			// must not stall other sessions on the tier. Two racing
			// builders do redundant work; both results are identical
			// and the first one promoted wins.
			quant, cstats = relevance.BuildLeafIndexes(le.raw)
			quant, cstats = shared.attachIndexes(key, quant, cstats)
		}
		le.quant, le.cstats = quant, cstats
	}
	c.pin(key, le)
	return le, true
}

// pin records le among the vectors the run in flight reads.
func (c *RunCache) pin(key string, le leafEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cur.leaves[key] = le
}

// fetch resolves a leaf over an item space of rows items: a pin, then
// the tier, then compute (through the tier's singleflight fill).
func (c *RunCache) fetch(key string, rows int, compute func() (leafEntry, error)) (leafEntry, error) {
	le, pinned := c.pinned(key, true)
	sharedHit := false
	if !pinned {
		var err error
		if le, sharedHit, err = c.Shared().fetch(key, rows, compute); err != nil {
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

// axis resolves the signed distances a 2D placement reads for an axis
// condition (runKeys.axis): a pin, then the tier and its remote backend,
// then compute (only compute without a cache). Nothing ranges them, so
// they are never indexed, and they are no leaf lookup of the run.
func (c *RunCache) axis(key string, rows int, compute func() (leafEntry, error)) ([]float64, error) {
	if c == nil {
		le, err := compute()
		return le.raw, err
	}
	le, ok := c.pinned(key, false)
	if !ok {
		var err error
		if le, _, err = c.Shared().fetch(key, rows, compute); err != nil {
			return nil, err
		}
		c.pin(key, le)
	}
	return le.raw, nil
}

// lookup resolves an interior node's raw combined vector: a pin, then
// the tier, never a compute — on a miss the evaluator runs the node's
// fused pass and store hands the result to the tier. Neither counts as
// a leaf lookup.
func (c *RunCache) lookup(key string) (leafEntry, bool) {
	if le, ok := c.pinned(key, true); ok {
		return le, true
	}
	le, ok := c.Shared().lookup(key)
	if ok {
		c.pin(key, le)
	}
	return le, ok
}

// store records a freshly computed interior vector: in the tier (whose
// first stored entry is canonical, so concurrent sessions converge on
// one resident copy) and among the run's pins.
func (c *RunCache) store(key string, le leafEntry) {
	c.pin(key, c.Shared().store(key, le))
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
