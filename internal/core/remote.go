package core

import (
	"fmt"

	"repro/internal/binenc"
	"repro/internal/dataset"
	"repro/internal/relevance"
)

// SharedBackend is the pluggable remote tier behind a SharedCache: a
// network KV of immutable byte vectors under the same structural keys
// the local tiers use. Because every key embeds the full signature of
// the computation it names — table names, row counts, literals,
// options, and the catalog's content epoch — a value stored by one
// process is correct in every process serving the same data: there is
// no invalidation protocol, only immutable entries that age out of the
// remote store's budget.
//
// Both methods are best-effort and must never block correctness: Get
// answers ok=false on a network failure or a missing key (the caller
// computes locally), and Put is fire-and-forget from the cache's point
// of view. Implementations are responsible for their own timeouts; the
// cache calls them outside its mutex but on the fill path, so a slow
// backend degrades latency, not consistency.
type SharedBackend interface {
	Get(key string) ([]byte, bool)
	Put(key string, val []byte)
}

// BreakerReporter is optionally implemented by a SharedBackend that
// guards its network calls with a circuit breaker (kv.Client does).
// State is "closed", "open", or "half-open"; trips counts closed→open
// transitions; shortCircuits counts calls answered instantly while
// open. SharedCache.Stats surfaces these so /v1/shards and /v1/fleet
// show a KV outage as an open breaker instead of a latency mystery.
type BreakerReporter interface {
	BreakerState() (state string, trips, shortCircuits uint64)
}

// AttachBackend plugs a remote tier behind the cache. Attach before
// serving traffic; entries computed earlier are simply never offered to
// the backend.
func (sc *SharedCache) AttachBackend(b SharedBackend) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.backend = b
}

// backendRef snapshots the attached backend.
func (sc *SharedCache) backendRef() SharedBackend {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.backend
}

// noteRemote bumps one remote-tier counter.
func (sc *SharedCache) noteRemote(c *uint64) {
	sc.mu.Lock()
	*c++
	sc.mu.Unlock()
}

// The shared-entry envelope: version, kind, the invalidation handles,
// then the payload. Only fully materialized entries are encodable —
// a predicateData carrying segment-pushdown state (skip != nil) holds
// lazily materialized Values backed by a local file reader, which has
// no meaning in another process; those leaves stay node-local and the
// remote tier simply never learns them.
const (
	sharedEntryVersion = 1

	sharedKindCond  = 1 // predicateData payload
	sharedKindDists = 2 // bare distance vector (join/boolean/subquery)

	// remoteIndexPrefix namespaces promoted leaf indexes (quantiles +
	// chunk stats) in the remote store; leaf keys start with "C|", "J|",
	// "B|", "S|" and interior keys with "I|", so the prefix collides
	// with nothing.
	remoteIndexPrefix = "Q|"
)

// encodeSharedEntry serializes e for the remote tier, reporting ok =
// false for entries that must not leave the process. The quantile and
// chunk-stat indexes are not part of the envelope — they are promoted
// separately under remoteIndexPrefix when some session builds them.
func encodeSharedEntry(e *leafEntry) ([]byte, bool) {
	if e.pd != nil && e.pd.skip != nil {
		return nil, false
	}
	b := make([]byte, 0, 64)
	b = append(b, sharedEntryVersion)
	if e.pd != nil {
		pd := e.pd
		b = append(b, sharedKindCond)
		b = binenc.Str(b, e.attr)
		b = binenc.Str(b, e.label)
		b = binenc.Str(b, pd.Attr.Table)
		b = binenc.Str(b, pd.Attr.Attr)
		b = binenc.U32(b, uint32(pd.Attr.Kind))
		var flags byte
		if pd.HasRange {
			flags |= 1
		}
		if pd.CStats != nil {
			flags |= 2
		}
		b = append(b, flags)
		b = binenc.F64(b, pd.MinDB)
		b = binenc.F64(b, pd.MaxDB)
		b = binenc.F64(b, pd.Lo)
		b = binenc.F64(b, pd.Hi)
		b = binenc.F64s(b, pd.Values)
		b = binenc.F64s(b, pd.Raw)
		b = binenc.F64s(b, pd.Signed)
		if pd.CStats != nil {
			// The synthesized chunk index rides along so a remote-warmed
			// cold run still gets its block-pruning bounds.
			b = relevance.AppendLeafChunkStats(b, pd.CStats)
		}
		return b, true
	}
	b = append(b, sharedKindDists)
	b = binenc.Str(b, e.attr)
	b = binenc.Str(b, e.label)
	b = binenc.F64s(b, e.dists)
	return b, true
}

// decodeSharedEntry reverses encodeSharedEntry.
func decodeSharedEntry(data []byte) (*leafEntry, error) {
	r := binenc.NewReader(data)
	if ver := r.Byte(); ver != sharedEntryVersion {
		if r.Err() != nil {
			return nil, r.Err()
		}
		return nil, fmt.Errorf("core: shared-entry codec version %d", ver)
	}
	kind := r.Byte()
	e := &leafEntry{}
	e.attr = r.Str()
	e.label = r.Str()
	switch kind {
	case sharedKindCond:
		pd := &predicateData{}
		pd.Attr.Table = r.Str()
		pd.Attr.Attr = r.Str()
		pd.Attr.Kind = dataset.Kind(r.U32())
		flags := r.Byte()
		pd.HasRange = flags&1 != 0
		pd.MinDB = r.F64()
		pd.MaxDB = r.F64()
		pd.Lo = r.F64()
		pd.Hi = r.F64()
		pd.Values = r.F64s()
		pd.Raw = r.F64s()
		pd.Signed = r.F64s()
		if flags&2 != 0 {
			cs, err := relevance.DecodeLeafChunkStats(r, len(pd.Raw))
			if err != nil {
				return nil, err
			}
			pd.CStats = cs
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		if !r.Done() {
			return nil, binenc.ErrTruncated
		}
		if len(pd.Values) != len(pd.Raw) || (pd.Signed != nil && len(pd.Signed) != len(pd.Raw)) {
			return nil, fmt.Errorf("core: shared entry vector lengths disagree")
		}
		e.pd = pd
	case sharedKindDists:
		e.dists = r.F64s()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if !r.Done() {
			return nil, binenc.ErrTruncated
		}
	default:
		if r.Err() != nil {
			return nil, r.Err()
		}
		return nil, fmt.Errorf("core: shared-entry kind %d", kind)
	}
	return e, nil
}

// encodeLeafIndexes serializes a promoted quantile index and its chunk
// stats for the remote tier.
func encodeLeafIndexes(q *relevance.LeafQuantiles, cs *relevance.LeafChunkStats) []byte {
	b := make([]byte, 0, 64)
	b = append(b, sharedEntryVersion)
	b = relevance.AppendLeafQuantiles(b, q)
	var flags byte
	if cs != nil {
		flags = 1
	}
	b = append(b, flags)
	if cs != nil {
		b = relevance.AppendLeafChunkStats(b, cs)
	}
	return b
}

// decodeLeafIndexes reverses encodeLeafIndexes for a leaf of rows rows.
func decodeLeafIndexes(data []byte, rows int) (*relevance.LeafQuantiles, *relevance.LeafChunkStats, error) {
	r := binenc.NewReader(data)
	if ver := r.Byte(); ver != sharedEntryVersion {
		if r.Err() != nil {
			return nil, nil, r.Err()
		}
		return nil, nil, fmt.Errorf("core: leaf-index codec version %d", ver)
	}
	q, err := relevance.DecodeLeafQuantiles(r, rows)
	if err != nil {
		return nil, nil, err
	}
	var cs *relevance.LeafChunkStats
	if r.Byte()&1 != 0 {
		if cs, err = relevance.DecodeLeafChunkStats(r, rows); err != nil {
			return nil, nil, err
		}
	}
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	if !r.Done() {
		return nil, nil, binenc.ErrTruncated
	}
	return q, cs, nil
}

// remoteIndexesOf consults the remote tier for indexes another node has
// already built of this rows-long leaf, attaching a hit to the resident
// entry (no re-Put — the value came from the store) so later sessions
// here hit locally. A value that fails validation is a miss.
func (sc *SharedCache) remoteIndexesOf(key string, rows int) (*relevance.LeafQuantiles, *relevance.LeafChunkStats) {
	b := sc.backendRef()
	if b == nil {
		return nil, nil
	}
	data, ok := b.Get(remoteIndexPrefix + key)
	if !ok {
		sc.noteRemote(&sc.remoteMisses)
		return nil, nil
	}
	q, cs, err := decodeLeafIndexes(data, rows)
	if err != nil {
		sc.noteRemote(&sc.remoteMisses)
		return nil, nil
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.remoteHits++
	q, cs, _ = sc.adoptIndexesLocked(key, q, cs)
	return q, cs
}
