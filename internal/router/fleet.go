package router

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/httpbody"
	"repro/internal/kv"
	"repro/internal/wire"
)

// memberStats fans /v1/shards out to every healthy member (outside any
// lock) and returns each one's per-shard stats by member name.
func (rt *Router) memberStats(ctx context.Context) map[string][]wire.ShardStats {
	rt.mu.RLock()
	targets := rt.pl.healthy()
	rt.mu.RUnlock()
	out := make(map[string][]wire.ShardStats, len(targets))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, m := range targets {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			var st []wire.ShardStats
			if httpbody.GetJSON(ctx, rt.http, m.url+"/v1/shards", &st) != nil {
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
	owners := rt.Placement()
	out := make([]wire.ShardStats, len(owners))
	for i, owner := range owners {
		out[i] = wire.ShardStats{Shard: i, Catalogs: []string{}}
		if st, ok := stats[owner]; ok && i < len(st) {
			out[i] = st[i]
		}
	}
	httpbody.WriteJSON(w, http.StatusOK, out)
}

// handleFleet reports the whole fleet: membership, placement, the sum
// of every member's cache counters (remote tier included), the
// fleet-wide shared-hit rate, and the kv store's own stats when one
// is configured.
func (rt *Router) handleFleet(w http.ResponseWriter, r *http.Request) {
	stats := rt.memberStats(r.Context())
	rt.mu.RLock()
	out := wire.FleetStats{
		Shards:         len(rt.pl.shards),
		PlacementEpoch: rt.pl.epoch,
		PlacementHash:  fmt.Sprintf("%016x", rt.pl.hash),
	}
	owned := make(map[string][]int)
	for i, name := range rt.pl.owners() {
		owned[name] = append(owned[name], i) // ascending by construction
	}
	for _, m := range rt.pl.members {
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
		out.Members = append(out.Members, fm)
		for _, sh := range stats[m.name] {
			out.Sessions += sh.Sessions
			out.Recalcs += sh.Recalcs
			out.Shared.Add(sh.Shared)
		}
	}
	rt.mu.RUnlock()
	if total := out.Shared.Hits + out.Shared.Misses; total > 0 {
		out.SharedHitRate = float64(out.Shared.Hits) / float64(total)
	}
	if rt.cfg.KV != "" {
		if st, err := kv.NewClient(rt.cfg.KV).ServerStats(r.Context()); err == nil {
			out.KV = st
		}
	}
	httpbody.WriteJSON(w, http.StatusOK, out)
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
		PlacementEpoch: rt.pl.epoch,
		PlacementHash:  fmt.Sprintf("%016x", rt.pl.hash),
	}
	for _, m := range rt.pl.healthy() {
		out.HealthyMembers++
		out.Sessions += m.health.Sessions
	}
	rt.mu.RUnlock()
	httpbody.WriteJSON(w, http.StatusOK, out)
}
