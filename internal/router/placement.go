package router

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/wire"
)

// member is one node plus its router-side health state.
type member struct {
	name string
	url  string

	healthy bool
	fails   int
	// oks counts consecutive clean probes while down: re-admission
	// waits for failAfter of them, mirroring the mark-down hysteresis,
	// so a flapping member can't reshuffle shards on every blip.
	oks int
	// health is the last successful probe's report (stale while down).
	health wire.HealthResponse
}

// shardRoute is one shard's routing state.
type shardRoute struct {
	// owner is the member requests route to; nil only when no member
	// has ever been healthy.
	owner *member
	// target, when non-nil, is the drain destination: placement wants
	// the shard on target but owner still holds live sessions.
	target     *member
	drainStart time.Time
}

// placement is the fleet's shard→member map and the health bookkeeping
// that moves it: rendezvous hashing over the healthy members, the
// up/down hysteresis, drain-before-flip, and the digest redundant
// routers compare. It does no I/O and takes no lock — Router.mu guards
// every call — and time enters as an argument, so the whole life of a
// fleet (TestPlacementTable) runs as a table of observations.
//
// Invariant after every rebalance: if any member is healthy, every
// shard's owner is.
type placement struct {
	members      []*member
	shards       []*shardRoute
	failAfter    int
	drainTimeout time.Duration
	// hash digests the current shard→owner map; equal hashes across
	// routers mean identical routing. epoch counts this router's
	// placement changes (local only — epochs of two routers are not
	// comparable; compare hashes).
	hash  uint64
	epoch uint64
}

// newPlacement starts with every member presumed healthy (the first
// probe round corrects it).
func newPlacement(members []*member, shards, failAfter int, drainTimeout time.Duration) *placement {
	p := &placement{members: members, shards: make([]*shardRoute, shards), failAfter: failAfter, drainTimeout: drainTimeout}
	for _, m := range members {
		m.healthy = true
	}
	for i := range p.shards {
		p.shards[i] = &shardRoute{}
	}
	p.rebalance(time.Time{})
	return p
}

// rendezvous scores member m for shard: FNV-64a of "shard|name".
func rendezvous(shard int, name string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", shard, name)
	return h.Sum64()
}

// place returns the healthy member winning shard's rendezvous
// election, nil when none is healthy. Ties (vanishingly unlikely)
// break on name order so every router instance agrees.
func (p *placement) place(shard int) *member {
	var best *member
	var bestScore uint64
	for _, m := range p.members {
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

// rebalance reconciles every shard's route with the current
// healthy-member placement. Dead or absent owners flip immediately
// (their sessions are gone); a move between two healthy members
// drains — the shard keeps routing to its owner until that owner
// reports zero live sessions on it, or the drain times out.
func (p *placement) rebalance(now time.Time) {
	for i, sr := range p.shards {
		want := p.place(i)
		switch {
		case want == nil:
			// No healthy member: keep the stale owner pointer so a
			// revival restores routing.
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
			if quiesced || now.Sub(sr.drainStart) >= p.drainTimeout {
				sr.owner, sr.target, sr.drainStart = want, nil, time.Time{}
			}
		}
	}
	// The digest of the shard→owner map: two routers whose health views
	// agree compute the same placement, hence the same hash — the
	// machine-checkable convergence signal.
	h := fnv.New64a()
	for i, name := range p.owners() {
		fmt.Fprintf(h, "%d=%s\n", i, name)
	}
	if sum := h.Sum64(); sum != p.hash {
		p.hash = sum
		p.epoch++
	}
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

// observe applies one probe result to m's health state; the caller
// rebalances once the round is in. failAfter consecutive failures mark
// a member down, and a downed member earns its shards back only after
// failAfter consecutive clean probes.
func (p *placement) observe(m *member, h wire.HealthResponse, err error) {
	if err != nil {
		m.fails++
		m.oks = 0
		if m.fails >= p.failAfter {
			m.healthy = false
		}
		return
	}
	m.fails = 0
	m.health = h
	if !m.healthy {
		m.oks++
		if m.oks >= p.failAfter {
			m.healthy = true
			m.oks = 0
		}
	}
}

// markDown records a passively-detected failure (a forward to m hit a
// transport error) and re-places m's shards at once, so the retry the
// caller is about to trigger lands on a live owner.
func (p *placement) markDown(m *member, now time.Time) {
	m.fails = p.failAfter
	m.oks = 0
	m.healthy = false
	p.rebalance(now)
}

// errNoHealthy marks the fleet-empty condition: no member passes
// health checks, so no placement exists anywhere.
var errNoHealthy = errors.New("no healthy members: every fleet member is failing health checks")

// ownerOf resolves a shard in [0, len(shards)) to its routing target.
// By the invariant an unhealthy owner means an empty fleet.
func (p *placement) ownerOf(shard int) (*member, error) {
	if m := p.shards[shard].owner; m != nil && m.healthy {
		return m, nil
	}
	return nil, errNoHealthy
}

// healthy lists the members currently passing health checks, in
// configuration order.
func (p *placement) healthy() []*member {
	var out []*member
	for _, m := range p.members {
		if m.healthy {
			out = append(out, m)
		}
	}
	return out
}

// owners snapshots the shard→member routing (member names indexed by
// shard; "" for an unroutable shard).
func (p *placement) owners() []string {
	out := make([]string, len(p.shards))
	for i, sr := range p.shards {
		if sr.owner != nil {
			out[i] = sr.owner.name
		}
	}
	return out
}

// draining reports which shards are draining toward a new owner (shard
// → target member name).
func (p *placement) draining() map[int]string {
	out := make(map[int]string)
	for i, sr := range p.shards {
		if sr.target != nil {
			out[i] = sr.target.name
		}
	}
	return out
}
