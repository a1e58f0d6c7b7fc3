// Package server is the VisDB serving subsystem: it hosts any number
// of catalogs behind an HTTP/JSON protocol so thin clients drive the
// paper's visual feedback loop remotely — the cross-process step of
// the scaling roadmap ("shard catalogs across workers and route
// sessions by catalog").
//
// # Sharding and routing
//
// The server is partitioned into N shards. Every catalog is homed on
// exactly one shard by a deterministic hash of its name (FNV-1a mod
// N), and a session lives on the shard of its catalog: the session ID
// embeds the shard index, so every later request routes straight to
// the owning shard without any global lookup. Shards are the
// concurrency and accounting unit — each owns its catalogs' session
// tables and stats counters — and the fleet's unit of placement:
// internal/router spreads the same shards over member processes.
//
// Each catalog owns one core.SharedCache: every session on that
// catalog, regardless of which client opened it, resolves leaf
// distance vectors its own pins → catalog tier → recompute, so N
// remote users dragging the same slider compute each leaf once, and a
// range any of them returns to is still there (no edit invalidates;
// the tier's budget alone evicts). The
// cache is per-catalog rather than per-shard because shared keys
// fingerprint table identities (names and row counts), which are only
// unique within one catalog.
//
// # Concurrency model
//
// A session.Session is a single-user state machine, so the server
// serializes requests to one session with a per-session mutex; distinct
// sessions — on the same shard or not — run fully concurrently and
// share leaf work through their catalog's cache tier. Handlers
// marshal a session's pooled Result under that same mutex (a Result is
// only valid until the session's next recalculation).
//
// # Protocol
//
// See package wire for the message types. Endpoints:
//
//	POST   /v1/sessions                create a session on a catalog
//	POST   /v1/sessions/{id}/query     replace the whole query
//	POST   /v1/sessions/{id}/range     move a condition's range (slider)
//	POST   /v1/sessions/{id}/weight    set a predicate's weighting factor
//	POST   /v1/sessions/{id}/undo      revert the last modification
//	POST   /v1/sessions/{id}/pct       fix the displayed fraction
//	GET    /v1/sessions/{id}/results   top-k ranked rows (?top=k&tuples=1)
//	GET    /v1/sessions/{id}/timings   stage timings of the last recalc
//	DELETE /v1/sessions/{id}           close the session
//	GET    /v1/shards                  per-shard serving + cache stats
//	GET    /v1/catalogs                served catalogs and their shards
//	GET    /healthz                    liveness
//
// Mutating endpoints return the post-recalculation wire.Summary;
// results responses add the top-k rows (item, distance, relevance), so
// response size tracks the display budget, never the catalog size.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/httpbody"
	"repro/internal/session"
	"repro/internal/wire"
)

// CatalogConfig registers one catalog with the server.
type CatalogConfig struct {
	// Name is the serving name clients address the catalog by.
	Name string
	// Catalog holds the datasets; it must not be mutated while served.
	Catalog *dataset.Catalog
	// Shared configures the catalog's shared cache tier (entry cap,
	// byte budget, remote backend). The zero value selects the defaults.
	Shared core.SharedOptions
	// Quarantined registers the catalog in quarantine from the start:
	// its segment file failed checksum verification when the daemon
	// loaded it. Catalog may be nil in that case; every request
	// touching the catalog answers 503 with the stored error while the
	// rest of the server serves normally.
	Quarantined error
}

// Config configures a Server.
type Config struct {
	// Shards is the number of serving shards; 0 selects 4. Catalogs
	// are assigned to shards deterministically by name hash.
	Shards int
	// Catalogs are the served catalogs.
	Catalogs []CatalogConfig
	// DefaultOptions seeds every session's engine options; fields a
	// client sets in wire.SessionOptions override it. The zero value
	// selects the engine defaults (128×128 grid).
	DefaultOptions core.Options
	// MaxSessionsPerShard bounds the live sessions a shard will hold;
	// creation beyond it answers 503 until sessions are closed. 0
	// selects DefaultMaxSessionsPerShard, negative is unlimited. Every
	// session pins O(rows) result buffers, so an unbounded table is a
	// slow memory leak under clients that never call DELETE.
	MaxSessionsPerShard int
	// SessionTTL reaps sessions idle longer than this (no request has
	// touched them): crashed or abandoned clients release their pooled
	// result buffers instead of pinning them until the per-shard cap
	// sheds new creations. 0 disables reaping. The sweep runs inside
	// SweepLoop (cmd/visdbd starts one) or on explicit
	// SweepIdleSessions calls; a reaped session answers later requests
	// with 404, exactly like an explicit DELETE.
	SessionTTL time.Duration
	// RequestTimeout bounds every request, recalculation included: the
	// handler context carries a deadline this far from arrival, the
	// engine polls it between evaluation chunks, and an overrun answers
	// 504 with the session rolled back to its pre-request state (still
	// serving the previous result). 0 disables the bound.
	RequestTimeout time.Duration
	// FaultHook, when non-nil, is consulted at the top of every request
	// — before any state changes — and may inject latency or an error
	// response (the fault-injection harness; nil in production). A
	// returned nil Fault passes the request through untouched.
	FaultHook func(r *http.Request) *Fault
}

// Fault is one injected handler fault: sleep Delay (bounded by the
// request context), then, if Status is nonzero, answer it with Code
// and Msg instead of running the real handler. A zero-Status fault is
// pure latency. Faults are injected before any handler state changes,
// so an injected error is always safe to retry.
type Fault struct {
	Delay  time.Duration
	Status int
	Code   string
	Msg    string
}

// DefaultShards is the shard count Config.Shards == 0 selects.
const DefaultShards = 4

// DefaultMaxSessionsPerShard bounds a shard's live sessions when the
// config leaves it zero.
const DefaultMaxSessionsPerShard = 1024

// maxGridSide caps the client-supplied window grid dimensions: the
// engine materializes O(GridW·GridH) cells per window, so an
// unbounded request could make one session allocate terabytes. 1024²
// is 64× the paper's display budget — far past any real display.
const maxGridSide = 1024

// catalogState is one served catalog: its datasets and the
// catalog-level shared cache tier every session on it attaches to.
// Sessions use the built-in distance functions.
type catalogState struct {
	name   string
	cat    *dataset.Catalog
	shared *core.SharedCache
	shard  *shard

	// quar holds the catalog's quarantine state: non-nil once segment
	// corruption was detected (at load time or during a recalculation).
	// Quarantine is sticky — the first error wins and the catalog
	// answers 503 until a restart with a repaired file — and
	// per-catalog: other catalogs, on this shard or not, keep serving.
	quar atomic.Pointer[quarantine]
}

// quarantine wraps the first corruption error observed on a catalog.
type quarantine struct{ err error }

// quarantineErr returns the catalog's quarantine error, nil if healthy.
func (cs *catalogState) quarantineErr() error {
	if q := cs.quar.Load(); q != nil {
		return q.err
	}
	return nil
}

// setQuarantined records err as the catalog's quarantine cause; the
// first recorded error is kept.
func (cs *catalogState) setQuarantined(err error) {
	if err == nil {
		return
	}
	cs.quar.CompareAndSwap(nil, &quarantine{err: err})
}

// checkCorrupt polls the catalog's sticky corruption state (fed by
// checksum failures during segment decode) and quarantines on the
// first hit. Called after every recalculation: a result computed from
// a corrupt segment is garbage and must not be served.
func (cs *catalogState) checkCorrupt() error {
	if cs.cat != nil {
		cs.setQuarantined(cs.cat.Corrupt())
	}
	return cs.quarantineErr()
}

// shard is one serving partition: the sessions of the catalogs homed
// on it, plus its accounting. The mutex guards only the session table;
// sessions themselves serialize on their own locks, so the shard never
// blocks one session's recalculation on another's.
type shard struct {
	id       int
	catalogs []*catalogState
	// nonce is the server instance's random ID suffix; see Server.nonce.
	nonce string

	mu       sync.RWMutex
	sessions map[string]*serverSession
	nextSeq  uint64
	// maxSessions bounds the live session table; <= 0 is unlimited.
	maxSessions int

	created atomic.Uint64
	recalcs atomic.Uint64
	reaped  atomic.Uint64
}

// serverSession wraps one interactive session with the mutex that
// serializes its edits (a session.Session is a single-user state
// machine; concurrent requests to the same ID queue here).
type serverSession struct {
	mu    sync.Mutex
	id    string
	sess  *session.Session
	shard *shard
	cat   *catalogState
	// seq is the highest applied idempotency sequence number and reply
	// the stored response of the operation that applied it (see
	// sessionEdit for which outcomes are recorded). Guarded by mu.
	seq   uint64
	reply storedReply
	// lastAccess is the UnixNano stamp of the latest request that
	// touched the session (creation included) — the idle-TTL sweep's
	// eviction clock.
	lastAccess atomic.Int64
}

// touch stamps the session as just-accessed.
func (ss *serverSession) touch() { ss.lastAccess.Store(time.Now().UnixNano()) }

// storedReply is the recorded outcome of the last applied idempotent
// operation, replayed verbatim when the client retransmits its Seq.
type storedReply struct {
	summary wire.Summary // valid when err is nil
	err     error
}

// Server routes the serving protocol over a set of shards. It
// implements http.Handler; wrap it in an http.Server (or cmd/visdbd)
// to serve, and use that server's Shutdown for graceful drain — every
// in-flight recalculation is an in-flight request, so draining
// requests drains recalculations. InFlight exposes the live count for
// drain diagnostics.
type Server struct {
	shards    []*shard
	catalogs  map[string]*catalogState
	mux       *http.ServeMux
	opt       core.Options
	ttl       time.Duration
	timeout   time.Duration
	faultHook func(r *http.Request) *Fault
	inflight  atomic.Int64
	started   time.Time
	// nonce is a per-instance random suffix minted into every session
	// ID ("s2.17-a1b2c3"). Shard index and counter alone would let a
	// restarted process resurrect a dead instance's IDs — a stale
	// client (or a fleet router holding an old route) could then apply
	// edits to a stranger's session. The nonce makes a stale ID miss
	// deterministically: the replacement answers 404
	// session_not_found, which is the signal FleetSession recreates on.
	nonce string
}

// New builds a server from the config.
func New(cfg Config) (*Server, error) {
	n := cfg.Shards
	if n <= 0 {
		n = DefaultShards
	}
	maxSessions := cfg.MaxSessionsPerShard
	if maxSessions == 0 {
		maxSessions = DefaultMaxSessionsPerShard
	}
	s := &Server{
		shards:    make([]*shard, n),
		catalogs:  make(map[string]*catalogState),
		opt:       cfg.DefaultOptions,
		ttl:       cfg.SessionTTL,
		timeout:   cfg.RequestTimeout,
		faultHook: cfg.FaultHook,
		started:   time.Now(),
		nonce:     newNonce(),
	}
	for i := range s.shards {
		s.shards[i] = &shard{id: i, nonce: s.nonce, sessions: make(map[string]*serverSession), maxSessions: maxSessions}
	}
	for _, cc := range cfg.Catalogs {
		if cc.Name == "" || (cc.Catalog == nil && cc.Quarantined == nil) {
			return nil, fmt.Errorf("server: catalog config needs a name and a catalog")
		}
		if _, dup := s.catalogs[cc.Name]; dup {
			return nil, fmt.Errorf("server: duplicate catalog %q", cc.Name)
		}
		sh := s.shards[ShardOf(cc.Name, n)]
		cs := &catalogState{
			name:   cc.Name,
			cat:    cc.Catalog,
			shared: core.NewSharedCacheOpts(cc.Shared),
			shard:  sh,
		}
		cs.setQuarantined(cc.Quarantined)
		s.catalogs[cc.Name] = cs
		sh.catalogs = append(sh.catalogs, cs)
	}
	for _, sh := range s.shards {
		sort.Slice(sh.catalogs, func(i, j int) bool { return sh.catalogs[i].name < sh.catalogs[j].name })
	}
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

// ShardOf is the deterministic catalog→shard map: FNV-1a of the
// catalog name modulo the shard count; internal/router routes creations
// by it. Non-positive shard counts normalize to DefaultShards, matching
// New.
func ShardOf(catalog string, shards int) int {
	if shards <= 0 {
		shards = DefaultShards
	}
	h := fnv.New32a()
	h.Write([]byte(catalog))
	return int(h.Sum32() % uint32(shards))
}

// ServeHTTP implements http.Handler. The request deadline starts
// here, before fault injection: injected latency consumes the request
// budget exactly like real slowness would, which is what lets the
// chaos suite drive deterministic 504s through the full stack.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.timeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
		defer cancel()
		r = r.WithContext(ctx)
	}
	if s.faultHook != nil {
		if f := s.faultHook(r); f != nil {
			if f.Delay > 0 {
				t := time.NewTimer(f.Delay)
				select {
				case <-t.C:
				case <-r.Context().Done():
					t.Stop()
				}
			}
			if f.Status != 0 {
				// Injected before any handler state changes: an injected
				// error is indistinguishable from a request that never
				// arrived, so retries stay safe.
				httpbody.WriteJSON(w, f.Status, wire.ErrorResponse{Error: f.Msg, Code: f.Code})
				return
			}
		}
	}
	s.mux.ServeHTTP(w, r)
}

// InFlight reports the number of requests currently being served —
// zero once a graceful shutdown has drained.
func (s *Server) InFlight() int64 { return s.inflight.Load() }

// routes installs the protocol endpoints.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	s.mux.HandleFunc("POST /v1/sessions/{id}/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/sessions/{id}/range", s.handleRange)
	s.mux.HandleFunc("POST /v1/sessions/{id}/weight", s.handleWeight)
	s.mux.HandleFunc("POST /v1/sessions/{id}/undo", s.handleUndo)
	s.mux.HandleFunc("POST /v1/sessions/{id}/pct", s.handlePct)
	s.mux.HandleFunc("GET /v1/sessions/{id}/results", s.handleResults)
	s.mux.HandleFunc("GET /v1/sessions/{id}/timings", s.handleTimings)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	s.mux.HandleFunc("GET /v1/shards", s.handleShards)
	s.mux.HandleFunc("GET /v1/catalogs", s.handleCatalogs)
	s.mux.HandleFunc("GET /v1/health", s.handleHealth)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		httpbody.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
}

// sessionOptions merges a client's wire options over the server
// defaults, clamping the resource-shaped fields (grid dimensions) so no
// single request can size the server's allocations.
func (s *Server) sessionOptions(o wire.SessionOptions) core.Options {
	opt := s.opt
	if o.GridW > 0 {
		opt.GridW = min(o.GridW, maxGridSide)
	}
	if o.GridH > 0 {
		opt.GridH = min(o.GridH, maxGridSide)
	}
	if o.PercentDisplayed > 0 {
		opt.PercentDisplayed = o.PercentDisplayed
	}
	return opt
}

// newNonce draws the server instance's session-ID suffix: 3 random
// bytes in hex, regenerated on every New. Falls back to a clock stamp
// if the system entropy source fails (still unique across restarts,
// which is all the suffix needs).
func newNonce() string {
	var b [3]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("%06x", time.Now().UnixNano()&0xffffff)
	}
	return hex.EncodeToString(b[:])
}

// register allocates an ID on the catalog's shard and installs the
// session. IDs embed the shard index ("s2.17-a1b2c3"), which is the
// whole routing table: later requests parse the shard straight out of
// the ID; the suffix is the instance nonce (see Server.nonce). A full
// shard (maxSessions live sessions — each pins O(rows) pooled result
// buffers) refuses registration; clients must close sessions or be
// shed.
func (sh *shard) register(sess *session.Session, cs *catalogState) (*serverSession, error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.checkCapacityLocked(); err != nil {
		return nil, err
	}
	sh.nextSeq++
	ss := &serverSession{
		id:    fmt.Sprintf("s%d.%d-%s", sh.id, sh.nextSeq, sh.nonce),
		sess:  sess,
		shard: sh,
		cat:   cs,
	}
	ss.touch()
	sh.sessions[ss.id] = ss
	sh.created.Add(1)
	return ss, nil
}

// ShardOfID parses the shard index a session ID embeds
// ("s2.17-a1b2c3" → 2) — the whole routing table of a member and of the
// fleet router alike.
func ShardOfID(id string) (int, error) {
	dot := strings.IndexByte(id, '.')
	if !strings.HasPrefix(id, "s") || dot < 0 {
		return 0, fmt.Errorf("malformed session id %q", id)
	}
	shard, err := strconv.Atoi(id[1:dot])
	if err != nil || shard < 0 {
		return 0, fmt.Errorf("session id %q names no shard", id)
	}
	return shard, nil
}

// lookup resolves a session ID to its shard's session table.
func (s *Server) lookup(id string) (*serverSession, error) {
	shardID, err := ShardOfID(id)
	if err != nil {
		return nil, err
	}
	if shardID >= len(s.shards) {
		return nil, fmt.Errorf("session id %q names no shard", id)
	}
	sh := s.shards[shardID]
	sh.mu.RLock()
	ss, ok := sh.sessions[id]
	sh.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("no session %q: %w", id, errNoSession)
	}
	ss.touch()
	return ss, nil
}

// errNoSession marks a well-formed session ID with no live session
// behind it — reaped, closed, or minted by a dead instance. Handlers
// translate it to 404 with wire.CodeSessionNotFound so a recovering
// client can tell "recreate and replay" apart from "your request is
// malformed".
var errNoSession = errors.New("session not found")

// checkCapacityLocked reports whether the shard can take another
// session; the caller holds the shard lock.
func (sh *shard) checkCapacityLocked() error {
	if sh.maxSessions > 0 && len(sh.sessions) >= sh.maxSessions {
		return fmt.Errorf("shard %d is at its session limit (%d); close sessions and retry", sh.id, sh.maxSessions)
	}
	return nil
}

// checkCapacity is checkCapacityLocked for callers without the lock —
// an advisory pre-check (register re-checks authoritatively).
func (sh *shard) checkCapacity() error {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.checkCapacityLocked()
}

// remove deletes a session from its shard.
func (sh *shard) remove(id string) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.sessions[id]; !ok {
		return false
	}
	delete(sh.sessions, id)
	return true
}

// stats snapshots one shard.
func (sh *shard) stats() wire.ShardStats {
	sh.mu.RLock()
	active := len(sh.sessions)
	sh.mu.RUnlock()
	st := wire.ShardStats{
		Shard:           sh.id,
		Catalogs:        []string{},
		Sessions:        active,
		SessionsCreated: sh.created.Load(),
		SessionsReaped:  sh.reaped.Load(),
		Recalcs:         sh.recalcs.Load(),
	}
	for _, cs := range sh.catalogs {
		st.Catalogs = append(st.Catalogs, cs.name)
		st.Shared.Add(cs.shared.Stats())
	}
	return st
}

// SweepIdleSessions reaps every session whose last access predates now
// minus the configured SessionTTL and returns how many were removed.
// A no-op (returning 0) when the TTL is disabled. Reaping only unlinks
// the session from its shard table — a request already holding the
// session finishes normally, exactly like a concurrent DELETE — and
// the garbage collector reclaims the pooled result buffers the session
// pinned.
func (s *Server) SweepIdleSessions(now time.Time) int {
	if s.ttl <= 0 {
		return 0
	}
	cutoff := now.Add(-s.ttl).UnixNano()
	total := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		for id, ss := range sh.sessions {
			if ss.lastAccess.Load() < cutoff {
				delete(sh.sessions, id)
				sh.reaped.Add(1)
				total++
			}
		}
		sh.mu.Unlock()
	}
	return total
}

// SweepLoop runs the idle-session sweep periodically (a quarter of the
// TTL, at least once per second) until ctx is canceled. It returns
// immediately when the TTL is disabled. cmd/visdbd runs one for the
// daemon's lifetime.
func (s *Server) SweepLoop(ctx context.Context) {
	if s.ttl <= 0 {
		return
	}
	period := s.ttl / 4
	if period < time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			s.SweepIdleSessions(now)
		}
	}
}
