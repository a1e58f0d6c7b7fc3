package core

import (
	"context"
	"errors"
	"sync"

	"repro/internal/lru"
)

// SharedCache is the store of the predicate cache: one instance per
// catalog, attached to every session exploring that catalog, so the
// expensive part of the feedback loop — leaf distance vectors, the raw
// combined vectors of the interior nodes over them, and the 2D axes'
// signed distances with their sorted samples — is computed once per
// catalog instead of once per session. (A loop that attaches none stands
// on a small one of its own, see NewRunCache.) N users dragging sliders
// over the same large database share every leaf whose structural
// signature matches, and one user going back to a range finds it where
// they left it.
//
// The contract is two lines: recency alone decides residency, and a key
// names exactly one vector. What follows from them:
//
//   - Entries are immutable. An entry — its vector and what is built
//     from it — is whole before it is stored and never written
//     afterwards, so any number of sessions may read a cached entry
//     concurrently without synchronization.
//
//   - Eviction only unlinks an entry from the map. Sessions still
//     holding the vector (pinned in their RunCache, or through a live
//     Result) keep reading valid, unchanging data; the next fill
//     allocates a fresh vector instead of reusing the old one.
//
//   - Fills are singleflight: when N sessions miss on the same key at
//     once (the classic thundering herd of a shared dashboard), one
//     computes and the rest wait for its result.
//
//   - Memory is bounded by an entry cap and a byte budget, and by
//     nothing else: every computed leaf is stored, no edit invalidates,
//     and the cold end of the recency order is what leaves
//     (internal/lru holds the eviction rule), so SharedStats.Evictions
//     accounts for every entry that ever left.
//
// Nothing can be served stale: keys embed the full structural signature
// of the leaf computation including table names, row counts and the
// catalog's content epoch (see spaceSig). All sessions sharing a cache
// must use the same catalog and distance registry — the keys
// fingerprint table identities, not cell contents or registered
// function implementations. Sessions may differ in every other option:
// leaf vectors are upstream of normalization and combination, and the
// vectors that do depend on options (subquery leaves, interior vectors)
// carry those options in their keys (runKeys).
type SharedCache struct {
	mu       sync.Mutex
	entries  *lru.Cache[string, leafEntry]
	inflight map[string]*sharedCall

	// backend is the optional remote tier (a network KV shared across
	// the fleet); see SharedBackend in remote.go. All network calls
	// happen outside mu.
	backend SharedBackend

	hits, misses, fills, waits uint64
	evictions                  uint64
	intHits, intMisses         uint64
	remoteHits, remoteMisses   uint64
	remotePuts                 uint64
}

// Default bounds for NewSharedCache: sized for a serving tier (many
// sessions, many queries) rather than the 64 entries of one interaction
// loop's own tier.
const (
	DefaultSharedEntries = 1024
	DefaultSharedBytes   = 256 << 20 // 256 MiB of cached vectors
)

// SharedOptions configures a shared tier. The zero value selects the
// defaults.
type SharedOptions struct {
	// MaxEntries and MaxBytes bound the resident set; zero or negative
	// values select DefaultSharedEntries / DefaultSharedBytes.
	MaxEntries int
	MaxBytes   int64
	// Backend plugs a remote tier (network KV) behind the cache: local
	// fills are offered to it, and misses consult it before computing.
	// Nil serves purely from this process.
	Backend SharedBackend
}

// sharedCall is one in-flight singleflight fill: entry or err is set
// when done closes.
type sharedCall struct {
	done  chan struct{}
	entry leafEntry
	err   error
}

// NewSharedCacheOpts creates a shared tier from SharedOptions.
func NewSharedCacheOpts(o SharedOptions) *SharedCache {
	maxEntries, maxBytes := o.MaxEntries, o.MaxBytes
	if maxEntries <= 0 {
		maxEntries = DefaultSharedEntries
	}
	if maxBytes <= 0 {
		maxBytes = DefaultSharedBytes
	}
	return &SharedCache{
		entries:  lru.New[string, leafEntry](maxEntries, maxBytes),
		inflight: make(map[string]*sharedCall),
		backend:  o.Backend,
	}
}

// NewSharedCache creates a shared tier with the given bounds and no
// remote tier.
func NewSharedCache(maxEntries int, maxBytes int64) *SharedCache {
	return NewSharedCacheOpts(SharedOptions{MaxEntries: maxEntries, MaxBytes: maxBytes})
}

// SharedStats is a point-in-time snapshot of the shared tier, and as it
// stands the "shared" object of /v1/shards and /v1/fleet
// (wire.SharedStats is this type).
type SharedStats struct {
	// Hits counts the lookups of leaves and 2D axes served from the
	// cache, including waiters that got their vector from another
	// session's in-flight fill.
	Hits uint64 `json:"hits"`
	// Misses counts the lookups of leaves and 2D axes that had to
	// compute (singleflight leaders).
	Misses uint64 `json:"misses"`
	// Fills counts successful stores: misses — interior ones included —
	// whose computation succeeded or that the remote tier answered.
	Fills uint64 `json:"fills"`
	// Waits counts lookups that blocked on another session's fill
	// instead of computing redundantly.
	Waits uint64 `json:"waits"`
	// Rejects is always 0: every fill is stored. The field outlives the
	// admission policy it counted for because bench/metrics.go reads it.
	Rejects uint64 `json:"rejects"`
	// Evictions counts entries the entry cap or byte budget pushed out;
	// short of Clear, nothing else drops one.
	Evictions uint64 `json:"evictions"`
	// Entries and Bytes describe the current resident set, leaf and
	// interior vectors alike.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// InteriorHits/InteriorMisses are Hits/Misses for the lookups of
	// interior nodes' raw combined vectors (they live among the leaves,
	// under "I|" keys). InteriorBytes is always 0 — Bytes includes them;
	// the field outlives the tier it measured because bench/metrics.go
	// reads it.
	InteriorHits   uint64 `json:"interior_hits"`
	InteriorMisses uint64 `json:"interior_misses"`
	InteriorBytes  int64  `json:"interior_bytes"`
	// RemoteHits/RemoteMisses/RemotePuts count traffic against the
	// attached remote backend (leaf and 2D axis vectors, the only things
	// that travel): fills answered by the networked store, fills that fell
	// through to local compute after asking it — no value, or one the
	// decoder refused — and entries this process offered to the fleet.
	// All zero when no backend is attached. A RemoteHit is work some
	// other node already paid for.
	RemoteHits   uint64 `json:"remote_hits"`
	RemoteMisses uint64 `json:"remote_misses"`
	RemotePuts   uint64 `json:"remote_puts"`
	// RemoteBreaker/RemoteTrips/RemoteShortCircuits report the remote
	// backend's circuit breaker when the backend implements
	// BreakerReporter (empty/zero otherwise): the current state
	// ("closed", "open", "half-open"), cumulative closed→open trips,
	// and requests answered instantly as misses while open — each one a
	// network timeout that was not paid.
	RemoteBreaker       string `json:"remote_breaker,omitempty"`
	RemoteTrips         uint64 `json:"remote_trips,omitempty"`
	RemoteShortCircuits uint64 `json:"remote_short_circuits,omitempty"`
}

// breakerRank orders breaker states by badness so an aggregate over
// many catalogs/shards reports the worst one (an "open" anywhere is
// the signal an operator needs to see).
func breakerRank(state string) int {
	switch state {
	case "open":
		return 3
	case "half-open":
		return 2
	case "closed":
		return 1
	default: // "" — no backend / breaker disabled
		return 0
	}
}

// Add accumulates another snapshot into s (shard-level aggregation over
// the catalogs homed on a shard).
func (s *SharedStats) Add(o SharedStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Fills += o.Fills
	s.Waits += o.Waits
	s.Rejects += o.Rejects
	s.Evictions += o.Evictions
	s.Entries += o.Entries
	s.Bytes += o.Bytes
	s.InteriorHits += o.InteriorHits
	s.InteriorMisses += o.InteriorMisses
	s.InteriorBytes += o.InteriorBytes
	s.RemoteHits += o.RemoteHits
	s.RemoteMisses += o.RemoteMisses
	s.RemotePuts += o.RemotePuts
	if breakerRank(o.RemoteBreaker) > breakerRank(s.RemoteBreaker) {
		s.RemoteBreaker = o.RemoteBreaker
	}
	s.RemoteTrips += o.RemoteTrips
	s.RemoteShortCircuits += o.RemoteShortCircuits
}

// Stats returns cumulative counters and the current size.
func (sc *SharedCache) Stats() SharedStats {
	sc.mu.Lock()
	st := SharedStats{
		Hits: sc.hits, Misses: sc.misses, Fills: sc.fills, Waits: sc.waits,
		Evictions: sc.evictions, Entries: sc.entries.Len(), Bytes: sc.entries.Bytes(),
		InteriorHits: sc.intHits, InteriorMisses: sc.intMisses,
		RemoteHits: sc.remoteHits, RemoteMisses: sc.remoteMisses,
		RemotePuts: sc.remotePuts,
	}
	backend := sc.backend
	sc.mu.Unlock()
	// The breaker snapshot takes the backend's own lock — outside ours,
	// so a slow reporter can never stall fills.
	if br, ok := backend.(BreakerReporter); ok {
		st.RemoteBreaker, st.RemoteTrips, st.RemoteShortCircuits = br.BreakerState()
	}
	return st
}

// Len returns the number of resident entries.
func (sc *SharedCache) Len() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.entries.Len()
}

// Bytes returns the resident vector bytes.
func (sc *SharedCache) Bytes() int64 {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.entries.Bytes()
}

// fetch returns the entry for key — a leaf's or a 2D axis's over an
// item space of rows items, or an interior vector's — computing it at
// most once across concurrent callers (a leader's failure is its
// waiters' too, unless it is the leader's own request ending: a canceled
// or timed-out fill is led again). hit reports whether the entry was
// served without running compute in this call (a resident entry, another
// caller's fill we waited on, or the remote tier). A vector the remote
// tier serves is made an entry by derive, which rebuilds what is built
// from it (a leaf's code plane, an axis's sorted sample). An interior
// vector never travels: a run rebuilds it from its leaves in one fused
// pass, less than fetching one costs, so its fill neither asks the
// remote tier nor offers to it, and its lookups count as
// InteriorHits/InteriorMisses instead of Hits/Misses. compute runs
// without any cache lock held, so fills for different keys proceed
// concurrently and a fill may recursively fetch other keys.
func (sc *SharedCache) fetch(key string, rows int, derive func([]float64) leafEntry, compute func() (leafEntry, error)) (le leafEntry, hit bool, err error) {
	sc.mu.Lock()
	hits, misses, backend := &sc.hits, &sc.misses, sc.backend
	if isInterior(key) {
		hits, misses, backend = &sc.intHits, &sc.intMisses, nil
	}
	for {
		if e, ok := sc.entries.Get(key); ok {
			*hits++
			sc.mu.Unlock()
			return e, true, nil
		}
		call, ok := sc.inflight[key]
		if !ok {
			break
		}
		sc.waits++
		sc.mu.Unlock()
		<-call.done
		switch {
		case call.err == nil:
			sc.mu.Lock()
			*hits++
			sc.mu.Unlock()
			return call.entry, true, nil
		case !errors.Is(call.err, context.Canceled) && !errors.Is(call.err, context.DeadlineExceeded):
			// The leader's computation failed; ours would too (same
			// key, same deterministic computation over the same
			// catalog).
			return leafEntry{}, false, call.err
		}
		// The leader's request ended, not the fill: lead it ourselves.
		sc.mu.Lock()
	}
	*misses++
	call := &sharedCall{done: make(chan struct{})}
	sc.inflight[key] = call
	sc.mu.Unlock()

	// Leader path: consult the remote tier before computing — a node
	// elsewhere in the fleet may already have paid for this leaf. Only
	// the singleflight leader asks, so a thundering herd costs one
	// network round trip, and a decode failure (version skew, truncated
	// value, vectors of another length) degrades to a local compute.
	remote := false
	if backend != nil {
		if data, ok := backend.Get(key); ok {
			if d, derr := decodeSharedEntry(data, rows); derr == nil {
				le, remote = derive(d.raw), true
			}
		}
	}
	if !remote {
		le, err = compute()
	}

	sc.mu.Lock()
	if backend != nil {
		if remote {
			sc.remoteHits++
		} else {
			sc.remoteMisses++
		}
	}
	delete(sc.inflight, key)
	if err == nil {
		sc.evictions += uint64(sc.entries.Put(key, le, le.sizeBytes()))
		sc.fills++
		call.entry = le
	}
	call.err = err
	sc.mu.Unlock()
	close(call.done)
	if err != nil {
		return leafEntry{}, false, err
	}
	// Offer locally computed fills to the fleet. The encode reads only
	// immutable fields and the Put happens after waiters are released, so
	// a slow backend never extends the singleflight.
	if !remote && backend != nil {
		backend.Put(key, encodeSharedEntry(&le))
		sc.mu.Lock()
		sc.remotePuts++
		sc.mu.Unlock()
	}
	return le, remote, nil
}

// touch makes the entry under key the most recently used — a session
// served it from its pins, which the tier would otherwise not see. A key
// that is not resident is a no-op.
func (sc *SharedCache) touch(key string) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.entries.Get(key)
}
