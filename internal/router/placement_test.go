package router

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestPlacementTable runs the life of a fleet through the pure
// placement type — no HTTP, no clock, no lock: each row is one probe
// round (who answered, how many sessions every answering member reports
// per shard, how much time passed) and what the shard map must look
// like afterwards. It holds the three properties the router is built
// on: the map is a pure function of the healthy set (and moves only a
// dead member's shards), a flap inside the hysteresis reshuffles
// nothing, and a rejoin drains before it flips.
func TestPlacementTable(t *testing.T) {
	const shards, failAfter = 16, 2
	names := []string{"a", "b", "c"}
	var members []*member
	for _, n := range names {
		members = append(members, &member{name: n, url: "http://" + n})
	}
	p := newPlacement(members, shards, failAfter, 30*time.Second)
	now := time.Unix(1000, 0)

	// want is the map the healthy set alone dictates.
	want := func(healthy ...string) []string {
		out := make([]string, shards)
		for i := range out {
			out[i] = rendezvousOwner(i, healthy...)
		}
		return out
	}
	all := want("a", "b", "c")
	withoutB := want("a", "c")
	for i := range all {
		if all[i] != "b" && all[i] != withoutB[i] {
			t.Fatalf("shard %d moved %s -> %s though its owner never died: movement is not minimal", i, all[i], withoutB[i])
		}
	}

	down := errors.New("probe failed")
	rows := []struct {
		what     string
		failing  string // the member whose probe fails this round, if any
		sessions int    // live sessions every answering member reports on every shard
		advance  time.Duration
		owners   []string
		draining bool // some shard is waiting to move
		moved    bool // the epoch must (or must not) have advanced
	}{
		{"all up", "", 0, time.Second, all, false, false},
		{"b misses one probe: inside the hysteresis", "b", 0, time.Second, all, false, false},
		{"b answers again: the miss is forgotten", "", 0, time.Second, all, false, false},
		{"b misses one", "b", 0, time.Second, all, false, false},
		{"b misses two: down, its shards flip at once", "b", 3, time.Second, withoutB, false, true},
		{"b answers once: not readmitted yet", "", 3, time.Second, withoutB, false, false},
		{"b flaps", "b", 3, time.Second, withoutB, false, false},
		{"b answers once", "", 3, time.Second, withoutB, false, false},
		{"b answers twice: readmitted, but the owners hold sessions — drain", "", 3, time.Second, withoutB, true, false},
		{"still draining", "", 3, time.Second, withoutB, true, false},
		{"the owners quiesce: flip", "", 0, time.Second, all, false, true},
	}
	for _, row := range rows {
		now = now.Add(row.advance)
		epoch := p.epoch
		for _, m := range members {
			if m.name == row.failing {
				p.observe(m, wire.HealthResponse{}, down)
				continue
			}
			h := wire.HealthResponse{Status: "ok"}
			for i := 0; i < shards; i++ {
				h.Shards = append(h.Shards, wire.ShardHealth{Shard: i, Sessions: row.sessions})
			}
			p.observe(m, h, nil)
		}
		p.rebalance(now)
		if got := p.owners(); !reflect.DeepEqual(got, row.owners) {
			t.Fatalf("%s: owners %v, want %v", row.what, got, row.owners)
		}
		if got := len(p.draining()) > 0; got != row.draining {
			t.Fatalf("%s: draining %v, want %v", row.what, p.draining(), row.draining)
		}
		if got := p.epoch != epoch; got != row.moved {
			t.Fatalf("%s: epoch %d -> %d, want moved=%v", row.what, epoch, p.epoch, row.moved)
		}
	}

	// A drain that never quiesces flips at the timeout; a passive
	// mark-down flips without waiting for a probe; an empty fleet keeps
	// its last owners and refuses to route.
	p.markDown(members[1], now)
	if got := p.owners(); !reflect.DeepEqual(got, withoutB) {
		t.Fatalf("markDown: owners %v, want %v", got, withoutB)
	}
	busy := wire.HealthResponse{Status: "ok", Shards: []wire.ShardHealth{{Shard: 0, Sessions: 1}}}
	for i := 1; i < shards; i++ {
		busy.Shards = append(busy.Shards, wire.ShardHealth{Shard: i, Sessions: 1})
	}
	for round := 0; round < failAfter; round++ {
		for _, m := range members {
			p.observe(m, busy, nil)
		}
		p.rebalance(now)
	}
	if len(p.draining()) == 0 || !reflect.DeepEqual(p.owners(), withoutB) {
		t.Fatalf("rejoin under load: owners %v draining %v", p.owners(), p.draining())
	}
	p.rebalance(now.Add(31 * time.Second))
	if len(p.draining()) != 0 || !reflect.DeepEqual(p.owners(), all) {
		t.Fatalf("drain timeout: owners %v draining %v", p.owners(), p.draining())
	}
	p.markDown(members[0], now)
	p.markDown(members[1], now)
	last := p.owners() // everything on c
	p.markDown(members[2], now)
	if _, err := p.ownerOf(0); !errors.Is(err, errNoHealthy) {
		t.Fatalf("empty fleet routed: %v", err)
	}
	if !reflect.DeepEqual(p.owners(), last) || !reflect.DeepEqual(last, want("c")) || len(p.healthy()) != 0 {
		t.Fatalf("empty fleet: owners %v (were %v) healthy %v", p.owners(), last, p.healthy())
	}
}
