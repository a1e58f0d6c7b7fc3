package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/lru"
	"repro/internal/query"
	"repro/internal/relevance"
)

// RunCache is the reuse layer of the incremental feedback loop: it
// caches per-predicate leaf distance vectors across Engine.RunCached
// calls and pools the evaluation buffers those runs write into.
//
// Entries are keyed by a structural signature of the leaf — table,
// attribute, operator, literals and distance function, but NOT the
// weighting factor — so a weight-only rerun (the section 5.2 slider
// interaction) recomputes nothing below the combination stage, and a
// single-slider range drag recomputes exactly the one leaf whose
// literals changed. Since the signature captures every input of the
// leaf computation (the catalog is immutable while an engine uses it),
// entries never go stale; invalidation (InvalidateCond, Prune, the LRU
// cap) exists to bound memory during slider storms, not for
// correctness.
//
// A RunCache is safe for the concurrent leaf builds within one run, but
// at most one RunCached call may use it at a time, and a Result
// produced with a RunCache is only valid until the next successful
// RunCached on the same cache (whose evaluation recycles the buffers).
// Sessions — one user, one interaction loop — are exactly that shape.
// All runs sharing a cache must use the same catalog and distance
// registry: the keys fingerprint table names and row counts, not cell
// contents or registered function identities.
//
// A RunCache may additionally be backed by a catalog-level SharedCache
// (AttachShared): lookups then fall through private → shared →
// recompute, and recomputed leaves fill the shared tier (singleflight
// across sessions) before being promoted into the private one. The
// private tier keeps serving a session even after shared-tier eviction
// or another session's invalidation — shared entries are immutable and
// only ever unlinked, never overwritten in place.
type RunCache struct {
	mu sync.Mutex
	// entries is the private leaf tier: at most maxCacheEntries leaves,
	// ordered by access (see internal/lru for the eviction rule).
	entries *lru.Cache[string, *leafEntry]
	// shared is the optional catalog-level tier behind this cache.
	shared *SharedCache
	// Cumulative and per-run lookup accounting (tests and the
	// StageTimings attribution). Shared-tier hits count as hits and
	// additionally as sharedHits.
	hits, misses                      uint64
	runHits, runMisses, runSharedHits int
	// Per-run segment-pushdown accounting: storage segments whose decode
	// the footer stats skipped, out of the segments cold computes
	// considered (see predicateData.SegsSkipped). Zero on warm runs.
	runSegsSkipped, runSegs int
	// Buffer pools for the evaluation output vectors and the ranking's
	// index permutation.
	floats bufPool[float64]
	ints   bufPool[int]
	// seedThr/seedSig carry the previous ranking's raw k-th value (the
	// rank-before-scale pruning threshold) across recalculations of the
	// same item space. Weight-only reruns reuse it as-is — a stale seed
	// can only cost a re-run of the selection, never correctness — but
	// query and range edits clear it (InvalidateCond, Prune, Clear):
	// the perturbed leaf makes the old raw domain meaningless as a
	// starting point.
	seedThr float64
	seedSig string
	// interior is the private tier of the interior-normalization cache:
	// cached raw combined vectors of interior query-tree nodes with
	// their quantile sketches (relevance.InteriorEntry), keyed by
	// runKeys.interior. Like leaf entries, interior keys embed every
	// input of the cached computation (the leaves' full cache keys, the
	// subtree shape, child weights, kernel options), so entries never go
	// stale; the invalidation paths drop them wholesale purely to bound
	// memory during slider storms.
	interior *lru.Cache[string, *relevance.InteriorEntry]
}

// maxCacheEntries bounds the cache so pathological interaction scripts
// (e.g. a slider sweep over hundreds of distinct ranges with
// auto-recalculate on) stay within a constant factor of the working
// set. 64 entries comfortably covers the paper's interfaces (a handful
// of predicates, each with its current and a few recent ranges).
const maxCacheEntries = 64

// maxInteriorEntries bounds the private interior tier. A query tree has
// only a handful of interior nodes (one per AND/OR level), so 16 covers
// the working set of an interaction loop with room for a few recent
// query shapes.
const maxInteriorEntries = 16

// leafEntry is one cached leaf as both tiers hold it and as fetches hand
// it out (by value: a consistent snapshot, since quant and cstats of the
// resident entry may be attached later under the tier's mutex). Exactly
// one of pd (simple conditions) and dists (join, boolean-negation and
// subquery leaves) is set. The vectors are immutable once stored. An
// entry holds what a rerun reuses and nothing else: distances, a
// condition's slider scalars, and the indexes built from the distances.
// Of these only the distances and scalars ever leave the process
// (encodeSharedEntry); the indexes are rebuilt wherever the vector goes.
type leafEntry struct {
	pd    *predicateData
	dists []float64
	// quant is the sorted quantile index over the leaf's distances,
	// built on the entry's first reuse: a leaf that recurs across reruns
	// is hot, and the one-time linear-time build buys O(1) normalization
	// ranges for every subsequent weighting change.
	quant *relevance.LeafQuantiles
	// cstats is the per-chunk min/NaN index built together with quant:
	// it feeds the block-pruning bounds of the rank-before-scale
	// ranking, so warm reruns can skip whole chunks of root combine
	// work.
	cstats *relevance.LeafChunkStats
	// attr is the condition's attribute as written in the query (empty
	// for non-condition leaves) — the handle for per-condition
	// invalidation.
	attr string
	// label is the leaf's structural label — the handle Prune matches
	// against the conditions of a replacement query.
	label string
}

// satisfies reports whether the entry can serve a lookup that needs
// signed distances (only condition entries carry them; needSigned is
// set by 2D-arrangement engines, so a cache shared across arrangement
// modes never serves a 2D run a spiral-era vector).
func (e *leafEntry) satisfies(needSigned bool) bool {
	return e.pd == nil || !needSigned || e.pd.Signed != nil
}

// raw returns the leaf's distance vector.
func (e *leafEntry) raw() []float64 {
	if e.pd != nil {
		return e.pd.Raw
	}
	return e.dists
}

// derivedFrom reports whether the entry was computed for exactly this
// condition in its current form (attribute and structural label).
func (e *leafEntry) derivedFrom(cond *query.Cond, label string) bool {
	return e.attr != "" && e.attr == cond.Attr && e.label == label
}

// sizeBytes accounts the entry's retained vectors and indexes.
func (e *leafEntry) sizeBytes() int64 {
	n := len(e.dists)
	if e.pd != nil {
		n += len(e.pd.Raw) + len(e.pd.Signed)
	}
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

// NewRunCache creates an empty cache.
func NewRunCache() *RunCache {
	return &RunCache{
		entries:  lru.New[string, *leafEntry](maxCacheEntries, 0),
		interior: lru.New[string, *relevance.InteriorEntry](maxInteriorEntries, 0),
		seedThr:  math.NaN(),
	}
}

// rootSeed returns the previous ranking's raw threshold for the given
// item-space signature, or NaN when none is carried.
func (c *RunCache) rootSeed(sig string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.seedSig != sig {
		return math.NaN()
	}
	return c.seedThr
}

// storeRootSeed records a ranking's raw threshold for the next
// recalculation (NaN clears it).
func (c *RunCache) storeRootSeed(sig string, thr float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seedThr, c.seedSig = thr, sig
}

// clearRootSeedLocked drops the carried threshold; called with the
// mutex held by every invalidation path.
func (c *RunCache) clearRootSeedLocked() {
	c.seedThr, c.seedSig = math.NaN(), ""
}

// AttachShared backs this private cache with a catalog-level shared
// tier. All caches attached to one SharedCache must run over the same
// catalog and distance registry. Attach before the first run.
func (c *RunCache) AttachShared(sc *SharedCache) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shared = sc
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

// endRun finishes a run; see bufPool.endRun for what ok decides.
func (c *RunCache) endRun(ok bool) {
	c.floats.endRun(ok)
	c.ints.endRun(ok)
}

// runStats returns the current run's lookup counts. sharedHits is the
// subset of hits served by the shared tier (including waits on another
// session's in-flight fill).
func (c *RunCache) runStats() (hits, misses, sharedHits int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runHits, c.runMisses, c.runSharedHits
}

// addSegStats folds one cold compute's segment-pushdown counts into the
// current run's attribution. Called from the condFetch compute closure,
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

// Stats returns the cumulative hit/miss counts.
func (c *RunCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of cached leaves.
func (c *RunCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.Len()
}

// InteriorLen returns the number of privately held interior entries.
func (c *RunCache) InteriorLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.interior.Len()
}

// fetch resolves a leaf over an item space of rows items through the
// tiers: private hit, then shared hit (promoted into the private tier),
// then compute (the result fills the shared tier singleflight when one
// is attached, then the private tier). An entry that does not satisfy
// needSigned is a miss. The acceleration indexes (quant, cstats) of the
// returned entry are set from the leaf's first reuse on.
func (c *RunCache) fetch(key string, rows int, needSigned bool, compute func() (leafEntry, error)) (leafEntry, error) {
	c.mu.Lock()
	if e, ok := c.entries.Get(key); ok && e.satisfies(needSigned) {
		c.hits++
		c.runHits++
		le := *e
		c.mu.Unlock()
		if le.quant == nil {
			le.quant, le.cstats = c.buildIndexes(key, le.raw())
		}
		return le, nil
	}
	shared := c.shared
	c.mu.Unlock()
	var le leafEntry
	var sharedHit bool
	var err error
	if shared == nil {
		le, err = compute()
	} else {
		le, sharedHit, err = shared.fetch(key, rows, needSigned, compute)
	}
	if err != nil {
		return leafEntry{}, err
	}
	// Attribute the lookup: a vector served by the shared tier is a
	// cache hit for the run, anything else was computed here (a miss).
	c.mu.Lock()
	defer c.mu.Unlock()
	if sharedHit {
		c.hits++
		c.runHits++
		c.runSharedHits++
	} else {
		c.misses++
		c.runMisses++
	}
	stored := le
	c.entries.Put(key, &stored, 0)
	return le, nil
}

// condFetch is fetch for a condition leaf (predicateData payload). attr
// and label are the invalidation handles of the condition as written.
func (c *RunCache) condFetch(key, attr, label string, rows int, needSigned bool, compute func() (*predicateData, error)) (leafEntry, error) {
	return c.fetch(key, rows, needSigned, func() (leafEntry, error) {
		pd, err := compute()
		return leafEntry{pd: pd, attr: attr, label: label}, err
	})
}

// leafFetch is fetch for non-condition leaf vectors (joins,
// boolean-negation fallbacks, subqueries). attr carries the owning
// condition's attribute when the leaf is a boolean-negation fallback of
// a simple condition (so range edits invalidate it too).
func (c *RunCache) leafFetch(key, attr, label string, rows int, compute func() ([]float64, error)) (leafEntry, error) {
	return c.fetch(key, rows, false, func() (leafEntry, error) {
		dists, err := compute()
		return leafEntry{dists: dists, attr: attr, label: label}, err
	})
}

// buildIndexes resolves a hot leaf's acceleration indexes (quantiles +
// chunk stats): reuse ones another session already promoted to the
// shared tier, else build OUTSIDE the mutex — milliseconds of linear
// passes must not serialize sibling leaf builds — and promote them. Two
// racing builders do redundant work; both results are identical and
// the canonical (first promoted) one wins.
func (c *RunCache) buildIndexes(key string, dists []float64) (*relevance.LeafQuantiles, *relevance.LeafChunkStats) {
	c.mu.Lock()
	shared := c.shared
	c.mu.Unlock()
	var quant *relevance.LeafQuantiles
	var cstats *relevance.LeafChunkStats
	if shared != nil {
		quant, cstats = shared.indexesOf(key)
	}
	if quant == nil {
		quant, cstats = relevance.BuildLeafIndexes(dists)
		if shared != nil {
			quant, cstats = shared.attachIndexes(key, quant, cstats)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries.Peek(key); ok {
		if e.quant != nil {
			return e.quant, e.cstats
		}
		e.quant, e.cstats = quant, cstats
	}
	return quant, cstats
}

// interiorFetch resolves an interior-normalization entry through the
// tiers: private hit, then shared hit (promoted into the private tier),
// then nil (the evaluator recomputes and interiorStore fills both
// tiers). Entries are immutable and borrowed read-only by evaluations,
// so serving the same entry to any number of runs is safe.
func (c *RunCache) interiorFetch(key string) *relevance.InteriorEntry {
	c.mu.Lock()
	e, ok := c.interior.Get(key)
	shared := c.shared
	c.mu.Unlock()
	if ok || shared == nil {
		return e
	}
	if e = shared.InteriorOf(key); e != nil {
		c.storeInterior(key, e)
	}
	return e
}

// interiorStore records a freshly built interior entry: the shared tier
// first (whose first-promoted entry is canonical, so concurrent
// sessions converge on one resident copy), then the private tier.
func (c *RunCache) interiorStore(key string, e *relevance.InteriorEntry) {
	c.mu.Lock()
	shared := c.shared
	c.mu.Unlock()
	if shared != nil {
		e = shared.AttachInterior(key, e)
	}
	c.storeInterior(key, e)
}

// storeInterior places an entry in the private tier under its cap.
func (c *RunCache) storeInterior(key string, e *relevance.InteriorEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.interior.Put(key, e, 0)
}

// InvalidateCond drops the entries derived from exactly this condition
// in its CURRENT form (matched structurally by attribute and label) —
// the session calls it right before a slider drag supersedes a range,
// so the storm of a continuous drag does not pile up one entry per
// intermediate position. Entries of other conditions that merely share
// the attribute (a second predicate on the same column, a same-named
// column of another table) are untouched: invalidation is memory
// management, and a drag must keep recomputing exactly one leaf.
//
// The invalidation propagates to the attached shared tier (the
// superseded range is dead weight there too); sessions still reading
// the old vectors are unaffected — entries are immutable and
// invalidation only unlinks them.
func (c *RunCache) InvalidateCond(cond *query.Cond) {
	if cond == nil {
		return
	}
	label := cond.Label()
	c.mu.Lock()
	c.clearRootSeedLocked()
	shared := c.shared
	c.entries.DeleteFunc(func(_ string, e *leafEntry) bool { return e.derivedFrom(cond, label) })
	// Interior entries combining the superseded leaf are dead weight
	// (their keys embed the old literals and can never be hit again);
	// the private tier is small, so dropping it wholesale beats parsing
	// leaf keys out of interior signatures. Subtrees not touching the
	// edit re-promote from the shared tier on the next run.
	c.clearInteriorLocked()
	c.mu.Unlock()
	if shared != nil {
		shared.InvalidateCond(cond)
	}
}

// Prune drops entries no longer reachable from q — the per-condition
// invalidation for whole-query replacement (SetQuery) and Undo.
// Condition entries survive when their attribute still appears in some
// condition of q (a restored query re-hits them); join and subquery
// entries survive by structural label. Prune is strictly private: one
// session abandoning a query says nothing about the other sessions
// sharing the catalog tier, whose leaves stay resident there under the
// LRU + byte budget.
func (c *RunCache) Prune(q *query.Query) {
	if q == nil {
		c.Clear()
		return
	}
	attrs := make(map[string]bool)
	labels := make(map[string]bool)
	query.Walk(q.Where, func(e query.Expr) {
		switch n := e.(type) {
		case *query.Cond:
			attrs[n.Attr] = true
		case *query.JoinExpr:
			labels[n.Label()] = true
		case *query.SubqueryExpr:
			labels[n.Label()] = true
		}
	})
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clearRootSeedLocked()
	c.entries.DeleteFunc(func(_ string, e *leafEntry) bool {
		if e.attr != "" {
			return !attrs[e.attr]
		}
		return !labels[e.label]
	})
	// Interior entries are per query shape; a replacement query rebuilds
	// them (or re-promotes survivors from the shared tier).
	c.clearInteriorLocked()
}

// Clear drops every entry (the buffer pool is kept: buffer reuse is
// keyed only by vector length).
func (c *RunCache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clearRootSeedLocked()
	c.entries.Clear()
	c.clearInteriorLocked()
}

// clearInteriorLocked drops the private interior tier; called with the
// mutex held by every invalidation path.
func (c *RunCache) clearInteriorLocked() {
	c.interior.Clear()
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
