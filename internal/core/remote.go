package core

import (
	"fmt"

	"repro/internal/binenc"
)

// SharedBackend is the pluggable remote tier behind a SharedCache: a
// network KV of immutable vectors (encodeSharedEntry) under the same
// structural keys the local tiers use: a leaf's, which start "C|", "J|",
// "B|" or "S|", and a 2D axis's signed distances, "A|". Because every key
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

// The shared-entry envelope: the version byte, then the vector — a
// leaf's distances or an axis's signed distances. Nothing else crosses
// the fleet: quantile indexes, chunk stats and interior entries are
// linear-time functions of vectors the receiving node then holds,
// cheaper to rebuild than to fetch, and the slider's numbers are read
// from the condition and its column (see doc.go, "The kv tier").
// Version 1 carried a copy of the attribute column ahead of the
// distances — read under a later layout it would pass every length
// check with that column in their place — version 2 two invalidation
// handles, from when range edits invalidated, version 3 a kind byte and
// a condition's slider scalars, and version 4 a condition's signed
// vector after its distances; each change moved the version, and skew
// is a remote miss.
const sharedEntryVersion = 5

// encodeSharedEntry serializes e's vector for the remote tier.
func encodeSharedEntry(e *leafEntry) []byte {
	return binenc.F64s(append(make([]byte, 0, 5+8*len(e.raw)), sharedEntryVersion), e.raw)
}

// decodeSharedEntry reverses encodeSharedEntry for a leaf over an item
// space of rows items. Another process wrote the bytes and every reader
// of the entry indexes its vector by item, so a vector of any other
// length is refused here: a remote miss, answered by a local compute,
// instead of failing the run, and every run after it, from inside the
// cache.
func decodeSharedEntry(data []byte, rows int) (*leafEntry, error) {
	r := binenc.NewReader(data)
	if ver := r.Byte(); ver != sharedEntryVersion {
		if r.Err() != nil {
			return nil, r.Err()
		}
		return nil, fmt.Errorf("core: shared-entry codec version %d", ver)
	}
	e := &leafEntry{raw: r.F64s()}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if !r.Done() {
		return nil, binenc.ErrTruncated
	}
	if len(e.raw) != rows {
		return nil, fmt.Errorf("core: shared entry's vector is not %d items long", rows)
	}
	return e, nil
}
