// Package router is the fleet front end of the serving stack: one
// stateless process that owns the catalog-shard placement map for a
// set of visdbd member nodes and proxies the whole serving protocol,
// so clients address the fleet as if it were one server. It is four
// files around this one: placement.go (the pure shard→member map and
// its health bookkeeping), probe.go (the health loop that feeds it),
// forward.go (the proxy path that reads it) and fleet.go (the
// aggregated views).
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
// its shard ("s2.17-a1b2c3" → shard 2, server.ShardOfID), and session
// creation peeks the catalog name from the request body and applies
// server.ShardOf — the same hash every member applies internally,
// pinned by that package's golden test.
//
// # Health and failure
//
// A background loop probes every member's GET /v1/health. A member
// missing FailAfter consecutive probes — or failing one live forward
// (passive detection: a mid-request crash is seen at once, not at the
// next probe) — is marked down and its shards flip immediately to their
// next rendezvous winners: its sessions died with it, so there is
// nothing to drain. The request that found it dead is answered
// "node_down" after the flip; what the codes mean and who retries them
// is wire.CodeTable. A member that comes back is re-admitted only after
// FailAfter consecutive clean probes, so a flapping node can't yank its
// shards back and forth on every blip.
//
// When a member comes BACK (or joins), placement changes while the
// old owner is still healthy: those shards drain instead of flipping
// — the shard keeps routing to its current owner (new sessions
// included) until the owner's health report shows zero live sessions
// on it, or the drain timeout expires. Draining preserves live
// sessions' state; the flip is taken when it is free (or overdue).
//
// # Redundant routers
//
// The router keeps no durable state, so any number of router processes
// over the same fleet converge to the identical shard map as their
// probe loops agree on who is up — run two and clients fail over
// between them freely. Each router reports a placement hash (a digest
// of its shard→owner map) in /v1/health and /v1/fleet; equal hashes mean
// identical routing. The per-router placement epoch (also the
// X-Visdb-Placement-Epoch response header) counts local placement
// changes and is not comparable across routers. Probe schedules carry
// jitter so N routers don't stampede members in lockstep.
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
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/httpbody"
	"repro/internal/server"
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
)

// Router implements http.Handler over the fleet.
type Router struct {
	cfg     Config
	http    *http.Client
	mux     *http.ServeMux
	started time.Time

	mu sync.RWMutex
	pl *placement // every call under mu
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
	rt := &Router{cfg: cfg, http: cfg.HTTP, started: time.Now()}
	if rt.http == nil {
		rt.http = &http.Client{Timeout: 30 * time.Second}
	}
	var members []*member
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
		members = append(members, &member{name: m.Name, url: u})
	}
	rt.pl = newPlacement(members, cfg.Shards, cfg.FailAfter, cfg.DrainTimeout)

	rt.mux = http.NewServeMux()
	rt.mux.HandleFunc("POST /v1/sessions", rt.handleCreate)
	rt.mux.HandleFunc("/v1/sessions/{id}", rt.handleSession)
	rt.mux.HandleFunc("/v1/sessions/{id}/{op}", rt.handleSession)
	rt.mux.HandleFunc("GET /v1/catalogs", rt.handleCatalogs)
	rt.mux.HandleFunc("GET /v1/shards", rt.handleShards)
	rt.mux.HandleFunc("GET /v1/fleet", rt.handleFleet)
	rt.mux.HandleFunc("GET /v1/health", rt.handleHealth)
	rt.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		httpbody.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return rt, nil
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// PlacementHash returns the current placement digest, formatted as 16
// hex digits (the form /v1/health and /v1/fleet report).
func (rt *Router) PlacementHash() string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return fmt.Sprintf("%016x", rt.pl.hash)
}

// PlacementEpoch returns this router's local placement-change counter.
func (rt *Router) PlacementEpoch() uint64 {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.pl.epoch
}

// Placement snapshots the current shard→member routing (member names
// indexed by shard; "" for an unroutable shard). Tests and /v1/fleet
// consumers use it; the serving path never does.
func (rt *Router) Placement() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.pl.owners()
}

// Draining reports which shards are currently draining toward a new
// owner (shard → target member name).
func (rt *Router) Draining() map[int]string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.pl.draining()
}
