// Package kv is the fleet's shared-distance store: a small HTTP
// key-value daemon holding immutable byte vectors under the structural
// cache keys of internal/core, so leaf distance vectors and 2D axes'
// signed distances computed on one visdbd node warm every node (code
// planes, axes' sorted samples and interior vectors are rebuilt
// locally, which is cheaper than moving them).
//
// The protocol is three endpoints of plain HTTP — no framing beyond
// what net/http provides, so any stdlib client (or curl) speaks it:
//
//	GET  /v1/kv?key=K   -> 200 with the value bytes, or 404
//	PUT  /v1/kv?key=K   -> 204 (body is the value)
//	GET  /v1/kv/stats   -> 200 JSON Stats
//	GET  /healthz       -> 200 "ok"
//
// Semantics are deliberately weaker than a database and exactly as
// strong as the cache needs: values are immutable (a re-PUT of an
// existing key refreshes its recency but never replaces the bytes —
// every writer derives the value deterministically from the key, so
// first-wins and last-wins are byte-identical), GET of a missing or
// evicted key is a plain miss, and the server may evict anything at any
// time under its entry cap and byte budget (an entry costs its key plus
// its value; internal/lru holds the eviction rule). Nothing is persisted:
// the store is a cache of recomputable work, and a restart merely costs
// the fleet a warm-up.
package kv

import (
	"io"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/httpbody"
	"repro/internal/lru"
)

// Defaults for NewServer bounds.
const (
	DefaultMaxEntries = 65536
	DefaultMaxBytes   = 256 << 20

	// MaxKeyLen bounds request keys; structural cache keys are far
	// shorter, so anything longer is a caller bug answered with 400.
	MaxKeyLen = 4096
)

// Stats is the server's point-in-time snapshot, served as JSON by
// /v1/kv/stats.
type Stats struct {
	Gets      uint64 `json:"gets"`
	Hits      uint64 `json:"hits"`
	Puts      uint64 `json:"puts"`
	Rejects   uint64 `json:"rejects"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	// Bytes is the resident key plus value bytes, bounded by MaxBytes;
	// MaxEntries and MaxBytes are the bounds in effect.
	Bytes      int64 `json:"bytes"`
	MaxBytes   int64 `json:"max_bytes"`
	MaxEntries int   `json:"max_entries"`
}

// Server is the store plus its HTTP surface. The zero value is not
// usable; construct with NewServer. Safe for concurrent use.
type Server struct {
	mu         sync.Mutex
	entries    *lru.Cache[string, []byte]
	maxEntries int
	maxBytes   int64

	gets, hits, puts, rejects, evictions uint64

	mux *http.ServeMux
}

// NewServer creates a store bounded by maxEntries values and maxBytes
// total key and value bytes; zero or negative selects the defaults.
func NewServer(maxEntries int, maxBytes int64) *Server {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	s := &Server{
		entries:    lru.New[string, []byte](maxEntries, maxBytes),
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/kv", s.handleGet)
	mux.HandleFunc("PUT /v1/kv", s.handlePut)
	mux.HandleFunc("GET /v1/kv/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Get returns the value under key, refreshing its recency.
func (s *Server) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gets++
	val, ok := s.entries.Get(key)
	if ok {
		s.hits++
	}
	return val, ok
}

// Put stores val under key. Values are immutable: if the key is
// resident the stored bytes are kept (recency refreshed) — writers
// derive values deterministically from keys, so the bytes are the same
// either way. An entry larger than the byte budget is rejected outright
// (it could never stay resident beside anything else).
func (s *Server) Put(key string, val []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.puts++
	cost := int64(len(key) + len(val))
	if cost > s.maxBytes {
		s.rejects++
		return false
	}
	if _, ok := s.entries.Get(key); ok {
		return true
	}
	s.evictions += uint64(s.entries.Put(key, val, cost))
	return true
}

// Stats snapshots the counters and resident set.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Gets: s.gets, Hits: s.hits, Puts: s.puts,
		Rejects: s.rejects, Evictions: s.evictions,
		Entries: s.entries.Len(), Bytes: s.entries.Bytes(),
		MaxBytes: s.maxBytes, MaxEntries: s.maxEntries,
	}
}

func reqKey(w http.ResponseWriter, r *http.Request) (string, bool) {
	key := r.URL.Query().Get("key")
	if key == "" || len(key) > MaxKeyLen {
		http.Error(w, "kv: missing or oversized key", http.StatusBadRequest)
		return "", false
	}
	return key, true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	key, ok := reqKey(w, r)
	if !ok {
		return
	}
	val, ok := s.Get(key)
	if !ok {
		http.Error(w, "kv: not found", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(val)))
	w.Write(val)
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	key, ok := reqKey(w, r)
	if !ok {
		return
	}
	// Cap the read at the byte budget: anything bigger is rejected
	// anyway, and an unbounded read would let one request balloon the
	// process.
	val, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBytes+1))
	if err != nil {
		http.Error(w, "kv: value exceeds byte budget", http.StatusRequestEntityTooLarge)
		return
	}
	if !s.Put(key, val) {
		http.Error(w, "kv: value exceeds byte budget", http.StatusRequestEntityTooLarge)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	httpbody.WriteJSON(w, http.StatusOK, s.Stats())
}
