package core

import (
	"fmt"

	"repro/internal/binenc"
	"repro/internal/dataset"
)

// SharedBackend is the pluggable remote tier behind a SharedCache: a
// network KV of immutable leaf entries (encodeSharedEntry: distance
// vectors and slider scalars) under the same structural keys the local
// tiers use, which start "C|", "J|", "B|" or "S|". Because every key
// embeds the full signature of the computation it names — table names,
// row counts, literals, options, and the catalog's content epoch — a
// value stored by one process is correct in every process serving the
// same data: there is no invalidation protocol, only immutable entries
// that age out of the remote store's budget.
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

// The shared-entry envelope: version, kind, then the payload — a leaf's
// distance vectors and, for a condition, its slider scalars. Nothing else crosses the fleet: quantile indexes,
// chunk stats and interior entries are linear-time functions of vectors
// the receiving node then holds, cheaper to rebuild than to fetch (see
// doc.go, "The kv tier"). Version 1 carried a copy of the attribute
// column ahead of Raw — read under a later layout it would pass every
// length check with that column in Raw's place — and version 2 two
// invalidation handles ahead of the payload, from when range edits
// invalidated; each change moved the version, and skew is a remote miss.
const (
	sharedEntryVersion = 3

	sharedKindCond  = 1 // predicateData payload
	sharedKindDists = 2 // bare distance vector (join/boolean/subquery)
)

// encodeSharedEntry serializes e for the remote tier.
func encodeSharedEntry(e *leafEntry) []byte {
	b := make([]byte, 0, 128+8*len(e.raw()))
	b = append(b, sharedEntryVersion)
	if e.pd == nil {
		b = append(b, sharedKindDists)
		return binenc.F64s(b, e.dists)
	}
	pd := e.pd
	b = append(b, sharedKindCond)
	b = binenc.Str(b, pd.Attr.Table)
	b = binenc.Str(b, pd.Attr.Attr)
	b = binenc.U32(b, uint32(pd.Attr.Kind))
	var hasRange byte
	if pd.HasRange {
		hasRange = 1
	}
	b = append(b, hasRange)
	b = binenc.F64(b, pd.MinDB)
	b = binenc.F64(b, pd.MaxDB)
	b = binenc.F64(b, pd.Lo)
	b = binenc.F64(b, pd.Hi)
	b = binenc.F64s(b, pd.Raw)
	return binenc.F64s(b, pd.Signed)
}

// decodeSharedEntry reverses encodeSharedEntry for the value stored
// under key, a leaf over an item space of rows items. Another process
// wrote the bytes and every reader of the entry indexes its vectors by
// item, so a vector of any other length — or a value without the signed
// vector a signed key names — is refused here: a remote miss, answered
// by a local compute, instead of failing the run, and every run after
// it, from inside the cache.
func decodeSharedEntry(key string, data []byte, rows int) (*leafEntry, error) {
	r := binenc.NewReader(data)
	if ver := r.Byte(); ver != sharedEntryVersion {
		if r.Err() != nil {
			return nil, r.Err()
		}
		return nil, fmt.Errorf("core: shared-entry codec version %d", ver)
	}
	kind := r.Byte()
	e := &leafEntry{}
	switch kind {
	case sharedKindCond:
		pd := &predicateData{}
		pd.Attr.Table = r.Str()
		pd.Attr.Attr = r.Str()
		pd.Attr.Kind = dataset.Kind(r.U32())
		hasRange := r.Byte()
		if hasRange > 1 {
			return nil, fmt.Errorf("core: shared-entry range flag %d", hasRange)
		}
		pd.HasRange = hasRange == 1
		pd.MinDB = r.F64()
		pd.MaxDB = r.F64()
		pd.Lo = r.F64()
		pd.Hi = r.F64()
		pd.Raw = r.F64s()
		pd.Signed = r.F64s()
		e.pd = pd
	case sharedKindDists:
		e.dists = r.F64s()
	default:
		if r.Err() != nil {
			return nil, r.Err()
		}
		return nil, fmt.Errorf("core: shared-entry kind %d", kind)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if !r.Done() {
		return nil, binenc.ErrTruncated
	}
	if len(e.raw()) != rows || (e.pd != nil && e.pd.Signed != nil && len(e.pd.Signed) != rows) {
		return nil, fmt.Errorf("core: shared entry's vectors are not %d items long", rows)
	}
	if isSignedCond(key) && (e.pd == nil || e.pd.Signed == nil) {
		return nil, fmt.Errorf("core: shared entry under a signed key has no signed vector")
	}
	return e, nil
}
