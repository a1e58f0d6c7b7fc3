// Package router is the fleet front end of the serving stack: one
// stateless process that owns the catalog-shard placement map for a
// set of visdbd member nodes and proxies the whole serving protocol,
// so clients address the fleet as if it were one server.
//
// # Placement
//
// The unit of placement is the serving shard of internal/server:
// every member runs the same -shards N configuration with the same
// catalogs, so any member CAN serve any shard, and the router decides
// which member DOES. Shard i is routed to the healthy member winning
// rendezvous hashing (highest FNV-64a of "i|memberName") — placement
// is a pure function of the healthy-member set, so a restarted router
// recomputes the identical map, and removing one member moves only
// that member's shards (minimal movement).
//
// Requests route without any per-session state: a session ID embeds
// its shard ("s2.17" → shard 2, exactly as internal/server mints
// them), and session creation peeks the catalog name from the request
// body and applies server.ShardOf — the same hash every member
// applies internally, pinned by that package's golden test.
//
// # Health and failure
//
// A background loop probes every member's GET /v1/health. A member
// missing FailAfter consecutive probes is marked down and its shards
// flip immediately to their next rendezvous winners — its sessions
// died with it, so there is nothing to drain. Requests addressed to a
// down member's shard answer 503 with machine-readable code
// "node_down" and a Retry-After hint; the typed client retries such
// responses, and because the flip happened before the response was
// written, the retry lands on the new owner. Transport failures
// during proxying mark the member down synchronously (passive
// detection) with the same semantics, so a mid-request crash is
// detected at the first failed forward, not at the next probe.
//
// When a member comes BACK (or joins), placement changes while the
// old owner is still healthy: those shards drain instead of flipping
// — the shard keeps routing to its current owner (new sessions
// included) until the owner's health report shows zero live sessions
// on it, or the drain timeout expires. Draining preserves live
// sessions' state; the flip is taken when it is free (or overdue).
//
// Session IDs are per-process counters plus a per-instance random
// nonce ("s2.17-a1b2c3"), so a shard's IDs can never collide across a
// flip or a member restart: a stale ID presented to a new owner (or a
// restarted old owner) deterministically answers 404 with code
// "session_not_found", and clients recreate — client.FleetSession
// automates the recreate-and-replay. What the fleet DOES share across
// nodes is the cache tier: with a kv store attached (visdbd
// -shared-kv), the recreated session's recalculations are answered
// from the fleet's shared entries instead of recomputed.
//
// # Redundant routers
//
// The router keeps no durable state: placement is a pure function of
// the healthy-member set, so any number of router processes over the
// same fleet converge to the identical shard map as their probe loops
// agree on who is up — run two and clients fail over between them
// freely. Each router reports a placement hash (a digest of its
// shard→owner map) in /v1/health, /v1/fleet, and the
// X-Visdb-Placement-Epoch response header; equal hashes mean
// identical routing. The per-router placement epoch counts local
// placement changes and is not comparable across routers. Probe
// schedules carry jitter so N routers don't stampede members in
// lockstep.
//
// A member that comes back is re-admitted only after FailAfter
// consecutive clean probes (the same hysteresis that marks it down),
// so a flapping node can't yank its shards back and forth on every
// blip.
//
// # Endpoints
//
// The full serving protocol proxies through, plus fleet-level views:
//
//	POST   /v1/sessions           route by catalog → shard → owner
//	*      /v1/sessions/{id}/...  route by the ID's shard index
//	GET    /v1/catalogs           forwarded to any healthy member
//	GET    /v1/shards             per-shard stats from each shard's owner
//	GET    /v1/fleet              membership, placement, summed cache
//	                              counters, fleet shared-hit rate, kv stats
//	GET    /v1/health             router self-report: placement epoch +
//	                              hash, healthy member count
//	GET    /healthz               router liveness
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/httpbody"
	"repro/internal/kv"
	"repro/internal/server"
	"repro/internal/wire"
)

// Member declares one visdbd node.
type Member struct {
	// Name is the stable identity rendezvous hashing keys on; renaming
	// a member reshuffles its shards, re-addressing (URL change) does
	// not.
	Name string
	// URL is the node's base URL (e.g. "http://10.0.0.7:8491").
	URL string
}

// Config configures a Router.
type Config struct {
	// Shards is the fleet-wide serving shard count; every member must
	// run visdbd with the same value. 0 selects server.DefaultShards.
	Shards int
	// Members is the fleet. At least one is required.
	Members []Member
	// HealthInterval paces the background health loop; 0 selects 2s.
	HealthInterval time.Duration
	// ProbeTimeout bounds one health probe; 0 selects 1s.
	ProbeTimeout time.Duration
	// FailAfter is how many consecutive failed probes mark a member
	// down; 0 selects 2. Passive detection (a failed forward) marks
	// down immediately regardless.
	FailAfter int
	// DrainTimeout bounds how long a shard moving between two healthy
	// members keeps routing to its old owner waiting for its sessions
	// to quiesce; 0 selects 30s.
	DrainTimeout time.Duration
	// ProbeJitter spreads each health tick by a random fraction of
	// HealthInterval in [0, ProbeJitter), so N redundant routers drift
	// apart instead of stampeding every member in lockstep. 0 selects
	// DefaultProbeJitter; negative disables jitter; values above 1 are
	// rejected.
	ProbeJitter float64
	// KV is the shared store's base URL, used only to include its
	// counters in /v1/fleet; empty omits them.
	KV string
	// HTTP performs the proxied requests and probes; nil builds one
	// with sane timeouts.
	HTTP *http.Client
}

// Defaults for Config zero values.
const (
	DefaultHealthInterval = 2 * time.Second
	DefaultProbeTimeout   = 1 * time.Second
	DefaultFailAfter      = 2
	DefaultDrainTimeout   = 30 * time.Second
	DefaultProbeJitter    = 0.2

	// retryAfterNodeDown is the Retry-After hint on node_down
	// responses: the flip has already happened when the response is
	// written, so the hint only needs to cover client turnaround.
	retryAfterNodeDown = 1 * time.Second
	// retryAfterNoHealthy is the hint when the whole fleet is down:
	// nothing flips until a member recovers, so pace retries at the
	// health-check horizon rather than client turnaround.
	retryAfterNoHealthy = 2 * time.Second
)

// member is one node plus its router-side health state (guarded by
// Router.mu).
type member struct {
	name string
	url  string

	healthy bool
	fails   int
	// oks counts consecutive clean probes while down: re-admission
	// waits for FailAfter of them, mirroring the mark-down hysteresis,
	// so a flapping member can't reshuffle shards on every blip.
	oks int
	// health is the last successful probe's report (stale while down).
	health wire.HealthResponse
}

// shardRoute is one shard's routing state (guarded by Router.mu).
type shardRoute struct {
	// owner is the member requests route to; nil only when no member
	// is healthy.
	owner *member
	// target, when non-nil, is the drain destination: placement wants
	// the shard on target but owner still holds live sessions.
	target     *member
	drainStart time.Time
}

// Router implements http.Handler over the fleet.
type Router struct {
	cfg     Config
	http    *http.Client
	mux     *http.ServeMux
	members []*member
	started time.Time

	mu     sync.RWMutex
	shards []*shardRoute
	// placementHash digests the current shard→owner map; equal hashes
	// across routers mean identical routing. placementEpoch counts this
	// router's placement changes (local only — epochs of two routers
	// are not comparable; compare hashes).
	placementHash  uint64
	placementEpoch uint64
}

// New builds a router. Placement starts with every member presumed
// healthy (the first probe round corrects it); call Run to start the
// health loop.
func New(cfg Config) (*Router, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("router: no members configured")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = server.DefaultShards
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = DefaultHealthInterval
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = DefaultProbeTimeout
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = DefaultFailAfter
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	switch {
	case cfg.ProbeJitter == 0:
		cfg.ProbeJitter = DefaultProbeJitter
	case cfg.ProbeJitter < 0:
		cfg.ProbeJitter = 0
	case cfg.ProbeJitter > 1:
		return nil, fmt.Errorf("router: probe jitter %v exceeds 1 (a full health interval)", cfg.ProbeJitter)
	}
	rt := &Router{cfg: cfg, http: cfg.HTTP, started: time.Now()}
	if rt.http == nil {
		rt.http = &http.Client{Timeout: 30 * time.Second}
	}
	seen := make(map[string]bool)
	seenURL := make(map[string]bool)
	for _, m := range cfg.Members {
		if m.Name == "" || m.URL == "" {
			return nil, fmt.Errorf("router: member needs a name and a URL")
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("router: duplicate member %q", m.Name)
		}
		u := strings.TrimRight(m.URL, "/")
		if seenURL[u] {
			return nil, fmt.Errorf("router: members %q and another share URL %s", m.Name, u)
		}
		seen[m.Name], seenURL[u] = true, true
		rt.members = append(rt.members, &member{name: m.Name, url: u, healthy: true})
	}
	rt.shards = make([]*shardRoute, cfg.Shards)
	for i := range rt.shards {
		rt.shards[i] = &shardRoute{}
	}
	rt.mu.Lock()
	rt.rebalanceLocked(time.Now())
	rt.mu.Unlock()

	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("POST /v1/sessions", rt.handleCreate)
	rt.mux.HandleFunc("/v1/sessions/{id}", rt.handleSession)
	rt.mux.HandleFunc("/v1/sessions/{id}/{op}", rt.handleSession)
	rt.mux.HandleFunc("GET /v1/catalogs", rt.handleCatalogs)
	rt.mux.HandleFunc("GET /v1/shards", rt.handleShards)
	rt.mux.HandleFunc("GET /v1/fleet", rt.handleFleet)
	rt.mux.HandleFunc("GET /v1/health", rt.handleHealth)
	rt.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return rt, nil
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// rendezvous scores member m for shard: FNV-64a of "shard|name".
func rendezvous(shard int, name string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", shard, name)
	return h.Sum64()
}

// placeLocked returns the healthy member winning shard's rendezvous
// election, nil when none is healthy. Ties (vanishingly unlikely)
// break on name order so every router instance agrees.
func (rt *Router) placeLocked(shard int) *member {
	var best *member
	var bestScore uint64
	for _, m := range rt.members {
		if !m.healthy {
			continue
		}
		s := rendezvous(shard, m.name)
		if best == nil || s > bestScore || (s == bestScore && m.name < best.name) {
			best, bestScore = m, s
		}
	}
	return best
}

// rebalanceLocked reconciles every shard's route with the current
// healthy-member placement. Dead or absent owners flip immediately
// (their sessions are gone); a move between two healthy members
// drains — the shard keeps routing to its owner until that owner
// reports zero live sessions on it, or the drain times out.
func (rt *Router) rebalanceLocked(now time.Time) {
	for i, sr := range rt.shards {
		want := rt.placeLocked(i)
		switch {
		case want == nil:
			// No healthy member: keep the stale owner pointer (requests
			// answer node_down) so a revival restores routing.
		case sr.owner == nil || !sr.owner.healthy:
			sr.owner, sr.target, sr.drainStart = want, nil, time.Time{}
		case want == sr.owner:
			sr.target, sr.drainStart = nil, time.Time{}
		default:
			// Move between two healthy members: drain.
			if sr.target != want {
				sr.target, sr.drainStart = want, now
			}
			quiesced := sr.owner.health.Status != "" && sessionsOn(sr.owner.health, i) == 0
			if quiesced || now.Sub(sr.drainStart) >= rt.cfg.DrainTimeout {
				sr.owner, sr.target, sr.drainStart = want, nil, time.Time{}
			}
		}
	}
	if h := rt.placementHashLocked(); h != rt.placementHash {
		rt.placementHash = h
		rt.placementEpoch++
	}
}

// placementHashLocked digests the shard→owner map. Two routers whose
// health views agree compute the same placement, hence the same hash —
// the machine-checkable convergence signal.
func (rt *Router) placementHashLocked() uint64 {
	h := fnv.New64a()
	for i, sr := range rt.shards {
		name := ""
		if sr.owner != nil {
			name = sr.owner.name
		}
		fmt.Fprintf(h, "%d=%s\n", i, name)
	}
	return h.Sum64()
}

// PlacementHash returns the current placement digest, formatted as 16
// hex digits (the form /v1/health and /v1/fleet report).
func (rt *Router) PlacementHash() string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return fmt.Sprintf("%016x", rt.placementHash)
}

// PlacementEpoch returns this router's local placement-change counter.
func (rt *Router) PlacementEpoch() uint64 {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.placementEpoch
}

// sessionsOn extracts shard's live session count from a health report.
func sessionsOn(h wire.HealthResponse, shard int) int {
	if shard < len(h.Shards) && h.Shards[shard].Shard == shard {
		return h.Shards[shard].Sessions
	}
	for _, sh := range h.Shards {
		if sh.Shard == shard {
			return sh.Sessions
		}
	}
	return 0
}

// probe fetches one member's health report (outside any lock).
func (rt *Router) probe(ctx context.Context, m *member) (wire.HealthResponse, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.url+"/v1/health", nil)
	if err != nil {
		return wire.HealthResponse{}, err
	}
	resp, err := rt.http.Do(req)
	if err != nil {
		return wire.HealthResponse{}, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return wire.HealthResponse{}, fmt.Errorf("health: http %d", resp.StatusCode)
	}
	var h wire.HealthResponse
	if err := httpbody.DecodeJSON(resp.Body, &h); err != nil {
		return wire.HealthResponse{}, err
	}
	return h, nil
}

// CheckNow runs one synchronous health round: probe every member,
// apply the results, rebalance. The background loop calls this on
// every tick; tests call it directly to advance fleet state
// deterministically.
func (rt *Router) CheckNow(ctx context.Context) {
	type result struct {
		m   *member
		h   wire.HealthResponse
		err error
	}
	results := make([]result, len(rt.members))
	var wg sync.WaitGroup
	for i, m := range rt.members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			h, err := rt.probe(ctx, m)
			results[i] = result{m: m, h: h, err: err}
		}(i, m)
	}
	wg.Wait()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, res := range results {
		if res.err != nil {
			res.m.fails++
			res.m.oks = 0
			if res.m.fails >= rt.cfg.FailAfter {
				res.m.healthy = false
			}
			continue
		}
		res.m.fails = 0
		res.m.health = res.h
		if !res.m.healthy {
			// Re-admission hysteresis: a downed member earns its shards
			// back only after FailAfter consecutive clean probes, so a
			// flapping node can't reshuffle placement on every blip.
			res.m.oks++
			if res.m.oks >= rt.cfg.FailAfter {
				res.m.healthy = true
				res.m.oks = 0
			}
		}
	}
	rt.rebalanceLocked(time.Now())
}

// Run drives the health loop until ctx is canceled. cmd/visdbrouter
// runs one for the daemon's lifetime. Each tick is stretched by a
// random fraction of the interval (Config.ProbeJitter) so redundant
// routers sharing a start time drift apart instead of probing every
// member in lockstep.
func (rt *Router) Run(ctx context.Context) {
	for {
		d := rt.cfg.HealthInterval
		if j := rt.cfg.ProbeJitter; j > 0 {
			d += time.Duration(rand.Float64() * j * float64(d))
		}
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
			rt.CheckNow(ctx)
		}
	}
}

// markDown records a passively-detected failure (a forward to m hit a
// transport error) and reroutes m's shards immediately, so the retry
// the caller is about to trigger lands on a live owner.
func (rt *Router) markDown(m *member) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	m.fails = rt.cfg.FailAfter
	m.oks = 0
	m.healthy = false
	rt.rebalanceLocked(time.Now())
}

// ownerOf resolves shard to its routing target.
func (rt *Router) ownerOf(shard int) (*member, error) {
	if shard < 0 || shard >= len(rt.shards) {
		return nil, fmt.Errorf("no shard %d", shard)
	}
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	sr := rt.shards[shard]
	if sr.owner == nil || !sr.owner.healthy {
		if !rt.anyHealthyLocked() {
			return nil, errNoHealthy
		}
		return nil, errNodeDown(sr.owner)
	}
	return sr.owner, nil
}

// anyHealthyLocked reports whether at least one member passes health
// checks; the caller holds mu (read or write).
func (rt *Router) anyHealthyLocked() bool {
	for _, m := range rt.members {
		if m.healthy {
			return true
		}
	}
	return false
}

// errNoHealthy marks the fleet-empty condition: no member passes
// health checks, so no placement exists anywhere — distinct from
// node_down, where the shard's owner died but the fleet lives on.
var errNoHealthy = errors.New("no healthy members: every fleet member is failing health checks")

// nodeDownError marks a shard whose owner is unreachable.
type nodeDownError struct{ name string }

func (e *nodeDownError) Error() string {
	if e.name == "" {
		return "no healthy member owns this shard"
	}
	return fmt.Sprintf("node %q is down; shard is being replaced", e.name)
}

func errNodeDown(m *member) error {
	if m == nil {
		return &nodeDownError{}
	}
	return &nodeDownError{name: m.name}
}

// writeJSON encodes v as the response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// setEpochHeader stamps the response with this router's placement
// epoch — clients and harnesses can watch it to observe failovers.
func (rt *Router) setEpochHeader(w http.ResponseWriter) {
	rt.mu.RLock()
	epoch := rt.placementEpoch
	rt.mu.RUnlock()
	w.Header().Set("X-Visdb-Placement-Epoch", strconv.FormatUint(epoch, 10))
}

// writeUnavailable answers a routing failure with its machine-readable
// code: no_healthy_members when the whole fleet is down (retry at the
// health-check horizon), node_down for a single dead owner (the flip
// already happened; retry immediately after the hint).
func (rt *Router) writeUnavailable(w http.ResponseWriter, err error) {
	code, after := wire.CodeNodeDown, retryAfterNodeDown
	if errors.Is(err, errNoHealthy) {
		code, after = wire.CodeNoHealthyMembers, retryAfterNoHealthy
	}
	rt.setEpochHeader(w)
	w.Header().Set("Retry-After", strconv.Itoa(int(after/time.Second)))
	writeJSON(w, http.StatusServiceUnavailable, wire.ErrorResponse{Error: err.Error(), Code: code})
}

// forward proxies the request (with body, already buffered or nil) to
// m and relays the response verbatim. A transport failure marks m
// down, reroutes, and answers node_down — by the time the client sees
// the 503, the flip has happened.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, m *member, body []byte) {
	u := m.url + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, rd)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, wire.ErrorResponse{Error: err.Error()})
		return
	}
	// Accept travels with the request so the member, not the router,
	// picks the representation (the results frame or JSON).
	for _, h := range []string{"Content-Type", "Accept"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	resp, err := rt.http.Do(req)
	if err != nil {
		if r.Context().Err() != nil {
			// The CLIENT went away (or timed out); the member is not to
			// blame, so don't fail it over.
			writeJSON(w, http.StatusGatewayTimeout, wire.ErrorResponse{Error: err.Error(), Code: wire.CodeCanceled})
			return
		}
		rt.markDown(m)
		rt.writeUnavailable(w, fmt.Errorf("forward to %q: %w", m.name, errNodeDown(m)))
		return
	}
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After", "Vary"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	rt.setEpochHeader(w)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// handleCreate peeks the catalog out of the creation body to compute
// its shard — the same server.ShardOf every member applies — then
// forwards the buffered body to the shard's owner.
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, wire.ErrorResponse{Error: "bad request body"})
		return
	}
	var req wire.CreateSessionRequest
	if err := json.Unmarshal(body, &req); err != nil || req.Catalog == "" {
		writeJSON(w, http.StatusBadRequest, wire.ErrorResponse{Error: "bad request body: missing catalog"})
		return
	}
	shard := server.ShardOf(req.Catalog, rt.cfg.Shards)
	m, err := rt.ownerOf(shard)
	if err != nil {
		rt.writeUnavailable(w, err)
		return
	}
	rt.forward(w, r, m, body)
}

// handleSession routes a session request by the shard index embedded
// in its ID.
func (rt *Router) handleSession(w http.ResponseWriter, r *http.Request) {
	shard, err := shardOfID(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, wire.ErrorResponse{Error: err.Error()})
		return
	}
	m, err := rt.ownerOf(shard)
	if err != nil {
		rt.writeUnavailable(w, err)
		return
	}
	// Buffer the body (a few hundred bytes at most) so a passive
	// failover never replays a half-read stream.
	var body []byte
	if r.Body != nil {
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			writeJSON(w, http.StatusBadRequest, wire.ErrorResponse{Error: "bad request body"})
			return
		}
		if len(body) == 0 {
			body = nil
		}
	}
	rt.forward(w, r, m, body)
}

// shardOfID parses the shard index out of a session ID ("s2.17" → 2).
func shardOfID(id string) (int, error) {
	if !strings.HasPrefix(id, "s") {
		return 0, fmt.Errorf("malformed session id %q", id)
	}
	dot := strings.IndexByte(id, '.')
	if dot < 0 {
		return 0, fmt.Errorf("malformed session id %q", id)
	}
	shard, err := strconv.Atoi(id[1:dot])
	if err != nil || shard < 0 {
		return 0, fmt.Errorf("session id %q names no shard", id)
	}
	return shard, nil
}

// handleCatalogs forwards to any healthy member — every member serves
// the same catalog set.
func (rt *Router) handleCatalogs(w http.ResponseWriter, r *http.Request) {
	rt.mu.RLock()
	var m *member
	for _, cand := range rt.members {
		if cand.healthy {
			m = cand
			break
		}
	}
	rt.mu.RUnlock()
	if m == nil {
		rt.writeUnavailable(w, errNoHealthy)
		return
	}
	rt.forward(w, r, m, nil)
}

// fetchShardStats fetches one member's /v1/shards (outside any lock).
func (rt *Router) fetchShardStats(ctx context.Context, m *member) ([]wire.ShardStats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.url+"/v1/shards", nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("shards: http %d", resp.StatusCode)
	}
	var out []wire.ShardStats
	if err := httpbody.DecodeJSON(resp.Body, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// memberStats fans /v1/shards out to every healthy member and returns
// each one's per-shard stats by member name.
func (rt *Router) memberStats(ctx context.Context) map[string][]wire.ShardStats {
	rt.mu.RLock()
	var targets []*member
	for _, m := range rt.members {
		if m.healthy {
			targets = append(targets, m)
		}
	}
	rt.mu.RUnlock()
	out := make(map[string][]wire.ShardStats, len(targets))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, m := range targets {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			st, err := rt.fetchShardStats(ctx, m)
			if err != nil {
				return // a just-died member simply drops out of the view
			}
			mu.Lock()
			out[m.name] = st
			mu.Unlock()
		}(m)
	}
	wg.Wait()
	return out
}

// handleShards reports per-shard stats, each shard's row taken from
// its owning member — the fleet view a single-node /v1/shards caller
// expects.
func (rt *Router) handleShards(w http.ResponseWriter, r *http.Request) {
	stats := rt.memberStats(r.Context())
	rt.mu.RLock()
	out := make([]wire.ShardStats, len(rt.shards))
	for i, sr := range rt.shards {
		out[i] = wire.ShardStats{Shard: i, Catalogs: []string{}}
		if sr.owner == nil {
			continue
		}
		if st, ok := stats[sr.owner.name]; ok && i < len(st) {
			out[i] = st[i]
		}
	}
	rt.mu.RUnlock()
	writeJSON(w, http.StatusOK, out)
}

// handleFleet reports the whole fleet: membership, placement, the sum
// of every member's cache counters (remote tier included), the
// fleet-wide shared-hit rate, and the kv store's own stats when one
// is configured.
func (rt *Router) handleFleet(w http.ResponseWriter, r *http.Request) {
	stats := rt.memberStats(r.Context())
	rt.mu.RLock()
	out := wire.FleetStats{
		Shards:         len(rt.shards),
		PlacementEpoch: rt.placementEpoch,
		PlacementHash:  fmt.Sprintf("%016x", rt.placementHash),
	}
	owned := make(map[string][]int)
	for i, sr := range rt.shards {
		if sr.owner != nil {
			owned[sr.owner.name] = append(owned[sr.owner.name], i)
		}
	}
	for _, m := range rt.members {
		fm := wire.FleetMember{
			Name:     m.name,
			URL:      m.url,
			Healthy:  m.healthy,
			Shards:   owned[m.name],
			Sessions: m.health.Sessions,
		}
		if fm.Shards == nil {
			fm.Shards = []int{}
		}
		sort.Ints(fm.Shards)
		out.Members = append(out.Members, fm)
		if st, ok := stats[m.name]; ok {
			for _, sh := range st {
				out.Sessions += sh.Sessions
				out.Recalcs += sh.Recalcs
				out.Shared.Add(sh.Shared)
			}
		}
	}
	rt.mu.RUnlock()
	if total := out.Shared.Hits + out.Shared.Misses; total > 0 {
		out.SharedHitRate = float64(out.Shared.Hits) / float64(total)
	}
	if rt.cfg.KV != "" {
		if st, err := kv.NewClient(rt.cfg.KV).ServerStats(); err == nil {
			out.KV = st
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealth is the router's self-report — the shape a peer router,
// a load balancer, or the convergence harness polls: placement epoch
// and hash (equal hashes across routers mean identical routing),
// healthy-member count, and the fleet's live session total from the
// latest health reports.
func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	rt.mu.RLock()
	out := wire.HealthResponse{
		Status:         "ok",
		UptimeNS:       time.Since(rt.started).Nanoseconds(),
		PlacementEpoch: rt.placementEpoch,
		PlacementHash:  fmt.Sprintf("%016x", rt.placementHash),
	}
	for _, m := range rt.members {
		if m.healthy {
			out.HealthyMembers++
			out.Sessions += m.health.Sessions
		}
	}
	rt.mu.RUnlock()
	writeJSON(w, http.StatusOK, out)
}

// Placement snapshots the current shard→member routing (member names
// indexed by shard; "" for an unroutable shard). Tests and /v1/fleet
// consumers use it; the serving path never does.
func (rt *Router) Placement() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]string, len(rt.shards))
	for i, sr := range rt.shards {
		if sr.owner != nil {
			out[i] = sr.owner.name
		}
	}
	return out
}

// Draining reports which shards are currently draining toward a new
// owner (shard → target member name).
func (rt *Router) Draining() map[int]string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make(map[int]string)
	for i, sr := range rt.shards {
		if sr.target != nil {
			out[i] = sr.target.name
		}
	}
	return out
}
