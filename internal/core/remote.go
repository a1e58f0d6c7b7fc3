package core

import (
	"fmt"

	"repro/internal/binenc"
)

// SharedBackend is the pluggable remote tier behind a SharedCache: a
// network KV of immutable leaf entries (encodeSharedEntry: the distance
// vectors) under the same structural keys the local
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

// The shared-entry envelope: the version byte, then the leaf's distance
// vector and its signed one (empty unless the key is a signed
// condition's). Nothing else crosses the fleet: quantile indexes, chunk
// stats and interior entries are linear-time functions of vectors the
// receiving node then holds, cheaper to rebuild than to fetch, and the
// slider's numbers are read from the condition and its column (see
// doc.go, "The kv tier"). Version 1 carried a copy of the attribute
// column ahead of the distances — read under a later layout it would
// pass every length check with that column in their place — version 2
// two invalidation handles, from when range edits invalidated, and
// version 3 a kind byte and a condition's slider scalars; each change
// moved the version, and skew is a remote miss.
const sharedEntryVersion = 4

// encodeSharedEntry serializes e's vectors for the remote tier.
func encodeSharedEntry(e *leafEntry) []byte {
	b := make([]byte, 0, 9+8*(len(e.raw)+len(e.signed)))
	b = append(b, sharedEntryVersion)
	b = binenc.F64s(b, e.raw)
	return binenc.F64s(b, e.signed)
}

// decodeSharedEntry reverses encodeSharedEntry for the value stored
// under key, a leaf over an item space of rows items. Another process
// wrote the bytes and every reader of the entry indexes its vectors by
// item, so a vector of any other length — or a signed vector where the
// key names none, or none where it names one — is refused here: a
// remote miss, answered by a local compute, instead of failing the run,
// and every run after it, from inside the cache.
func decodeSharedEntry(key string, data []byte, rows int) (*leafEntry, error) {
	r := binenc.NewReader(data)
	if ver := r.Byte(); ver != sharedEntryVersion {
		if r.Err() != nil {
			return nil, r.Err()
		}
		return nil, fmt.Errorf("core: shared-entry codec version %d", ver)
	}
	e := &leafEntry{raw: r.F64s(), signed: r.F64s()}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if !r.Done() {
		return nil, binenc.ErrTruncated
	}
	if len(e.raw) != rows || (e.signed != nil && len(e.signed) != rows) {
		return nil, fmt.Errorf("core: shared entry's vectors are not %d items long", rows)
	}
	if (e.signed != nil) != isSignedCond(key) {
		return nil, fmt.Errorf("core: shared entry's signed vector does not match its key")
	}
	return e, nil
}
