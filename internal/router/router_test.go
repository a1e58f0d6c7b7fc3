package router

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
)

// stubNode fakes a visdbd member: a controllable /v1/health plus a
// recorder for every proxied request.
type stubNode struct {
	name string
	ts   *httptest.Server

	mu     sync.Mutex
	health wire.HealthResponse
	hits   []string
	// failing makes /v1/health answer 500 — a sick-but-listening node.
	failing bool
}

func newStubNode(t *testing.T, name string, shards int) *stubNode {
	t.Helper()
	n := &stubNode{name: name}
	n.health = wire.HealthResponse{Status: "ok", UptimeNS: 1, Shards: make([]wire.ShardHealth, shards)}
	for i := range n.health.Shards {
		n.health.Shards[i].Shard = i
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/health", func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		h, failing := n.health, n.failing
		n.mu.Unlock()
		if failing {
			http.Error(w, "dying", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(h)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		n.mu.Lock()
		n.hits = append(n.hits, r.Method+" "+r.URL.Path)
		n.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{"served_by": n.name})
	})
	n.ts = httptest.NewServer(mux)
	t.Cleanup(n.ts.Close)
	return n
}

func (n *stubNode) member() Member { return Member{Name: n.name, URL: n.ts.URL} }

func (n *stubNode) setSessions(shard, count int) {
	n.mu.Lock()
	n.health.Shards[shard].Sessions = count
	total := 0
	for _, sh := range n.health.Shards {
		total += sh.Sessions
	}
	n.health.Sessions = total
	n.mu.Unlock()
}

func (n *stubNode) setFailing(v bool) {
	n.mu.Lock()
	n.failing = v
	n.mu.Unlock()
}

func (n *stubNode) hitCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.hits)
}

// servedBy performs one GET through the router and reports which stub
// answered ("" with the error response decoded into code on a 503).
func servedBy(t *testing.T, rt *Router, path string) (string, string) {
	t.Helper()
	ts := httptest.NewServer(rt)
	defer ts.Close()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		ServedBy string `json:"served_by"`
		Code     string `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body.ServedBy, body.Code
}

// TestPlacementDeterministicAndMinimal: rendezvous placement is a
// pure function of the healthy-member set — identical across router
// instances — and removing one member moves ONLY that member's
// shards.
func TestPlacementDeterministicAndMinimal(t *testing.T) {
	const shards = 16
	members3 := []Member{
		{Name: "a", URL: "http://a"}, {Name: "b", URL: "http://b"}, {Name: "c", URL: "http://c"},
	}
	rt1, err := New(Config{Shards: shards, Members: members3})
	if err != nil {
		t.Fatal(err)
	}
	rt2, err := New(Config{Shards: shards, Members: members3})
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := rt1.Placement(), rt2.Placement()
	seen := make(map[string]int)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("placement not deterministic at shard %d: %q vs %q", i, p1[i], p2[i])
		}
		seen[p1[i]]++
	}
	if len(seen) != 3 {
		t.Fatalf("16 shards over 3 members used only %v", seen)
	}

	rt3, err := New(Config{Shards: shards, Members: members3[:2]})
	if err != nil {
		t.Fatal(err)
	}
	p3 := rt3.Placement()
	for i := range p1 {
		if p1[i] != "c" && p3[i] != p1[i] {
			t.Fatalf("shard %d moved %q → %q though its owner survived", i, p1[i], p3[i])
		}
		if p1[i] == "c" && (p3[i] != "a" && p3[i] != "b") {
			t.Fatalf("shard %d orphaned: %q", i, p3[i])
		}
	}
}

// TestRoutesByCatalogAndSessionID: creation routes by
// server.ShardOf(catalog), session requests by the ID's embedded
// shard index — both landing on the placement's owner.
func TestRoutesByCatalogAndSessionID(t *testing.T) {
	const shards = 4
	a, b := newStubNode(t, "a", shards), newStubNode(t, "b", shards)
	rt, err := New(Config{Shards: shards, Members: []Member{a.member(), b.member()}, FailAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	place := rt.Placement()
	ts := httptest.NewServer(rt)
	defer ts.Close()

	// "traffic" hashes to shard 2 (pinned by the server package's
	// golden test); its create must land on shard 2's owner.
	shard := server.ShardOf("traffic", shards)
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json",
		strings.NewReader(`{"catalog":"traffic","query":"SELECT a FROM S"}`))
	if err != nil {
		t.Fatal(err)
	}
	var created struct {
		ServedBy string `json:"served_by"`
	}
	json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	if created.ServedBy != place[shard] {
		t.Fatalf("create landed on %q, owner is %q", created.ServedBy, place[shard])
	}

	// A session ID names its shard directly.
	for shard := 0; shard < shards; shard++ {
		id := "s" + string(rune('0'+shard)) + ".9"
		got, _ := servedBy(t, rt, "/v1/sessions/"+id+"/results")
		if got != place[shard] {
			t.Fatalf("shard %d routed to %q, owner is %q", shard, got, place[shard])
		}
	}

	// Malformed IDs answer 404 without touching any member.
	before := a.hitCount() + b.hitCount()
	resp, err = http.Get(ts.URL + "/v1/sessions/bogus/results")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("malformed id: %d", resp.StatusCode)
	}
	if a.hitCount()+b.hitCount() != before {
		t.Fatal("malformed id was forwarded")
	}
}

// TestPassiveFailover: a transport failure during a forward marks the
// member down and reroutes BEFORE the node_down response is written,
// so the client's retry lands on the new owner.
func TestPassiveFailover(t *testing.T) {
	const shards = 8
	a, b := newStubNode(t, "a", shards), newStubNode(t, "b", shards)
	rt, err := New(Config{Shards: shards, Members: []Member{a.member(), b.member()}, FailAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Find a shard owned by b, then crash b.
	var bShard = -1
	for i, owner := range rt.Placement() {
		if owner == "b" {
			bShard = i
			break
		}
	}
	if bShard < 0 {
		t.Fatal("b owns nothing")
	}
	b.ts.Close()

	ts := httptest.NewServer(rt)
	defer ts.Close()
	id := "s" + string(rune('0'+bShard)) + ".1"
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	var e wire.ErrorResponse
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || e.Code != wire.CodeNodeDown {
		t.Fatalf("want 503 node_down, got %d %+v", resp.StatusCode, e)
	}
	// The flip already happened, so node_down asks for no wait of its own
	// (wire.CodeTable): every shard now routes to a, and the retry
	// succeeds.
	if v := resp.Header.Get("Retry-After"); v != "" {
		t.Fatalf("node_down carries Retry-After %q; the shard is already re-placed", v)
	}
	for i, owner := range rt.Placement() {
		if owner != "a" {
			t.Fatalf("shard %d still routed to %q after passive failover", i, owner)
		}
	}
	if got, _ := servedBy(t, rt, "/v1/sessions/"+id+"/results"); got != "a" {
		t.Fatalf("retry landed on %q", got)
	}
}

// TestDrainThenFlip: when placement moves a shard between two HEALTHY
// members (a member came back), the shard keeps routing to its old
// owner while that owner reports live sessions on it, then flips the
// moment the owner quiesces — and a stuck drain flips at the timeout.
func TestDrainThenFlip(t *testing.T) {
	const shards = 8
	ctx := context.Background()
	a, b := newStubNode(t, "a", shards), newStubNode(t, "b", shards)
	rt, err := New(Config{
		Shards: shards, Members: []Member{a.member(), b.member()},
		FailAfter: 1, DrainTimeout: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Kill b via probes: its shards flip to a immediately.
	b.ts.Close()
	rt.CheckNow(ctx)
	var moved []int
	for i, owner := range rt.Placement() {
		if owner != "a" {
			t.Fatalf("shard %d not on a after b died", i)
		}
		if rendezvousOwner(i, "a", "b") == "b" {
			moved = append(moved, i)
		}
	}
	if len(moved) == 0 {
		t.Fatal("b would own nothing; test proves nothing")
	}

	// a holds live sessions on one moved shard; b revives. The loaded
	// shard drains (still routed to a, target b), the idle ones flip
	// straight back.
	loaded := moved[0]
	a.setSessions(loaded, 3)
	b2 := newStubNode(t, "b", shards) // same name, new address
	rt2, err := New(Config{
		Shards: shards, Members: []Member{a.member(), b2.member()},
		FailAfter: 1, DrainTimeout: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Recreate the post-death state on rt2: b2 down, then revived.
	b2.setFailing(true)
	rt2.CheckNow(ctx)
	b2.setFailing(false)
	rt2.CheckNow(ctx)

	place, draining := rt2.Placement(), rt2.Draining()
	if place[loaded] != "a" || draining[loaded] != "b" {
		t.Fatalf("loaded shard %d: owner %q draining %v", loaded, place[loaded], draining)
	}
	for _, i := range moved[1:] {
		if place[i] != "b" {
			t.Fatalf("idle shard %d did not flip back: %q", i, place[i])
		}
	}

	// The owner quiesces → the next round flips.
	a.setSessions(loaded, 0)
	rt2.CheckNow(ctx)
	if p := rt2.Placement(); p[loaded] != "b" {
		t.Fatalf("quiesced shard %d still on %q", loaded, p[loaded])
	}
	if len(rt2.Draining()) != 0 {
		t.Fatalf("drains left: %v", rt2.Draining())
	}

	// Stuck drain: sessions never quiesce, but a short timeout forces
	// the flip.
	a.setSessions(loaded, 5)
	rt3, err := New(Config{
		Shards: shards, Members: []Member{a.member(), b2.member()},
		FailAfter: 1, DrainTimeout: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	b2.setFailing(true)
	rt3.CheckNow(ctx)
	b2.setFailing(false)
	rt3.CheckNow(ctx)
	if rt3.Placement()[loaded] != "a" {
		t.Fatal("drain flipped before its timeout")
	}
	time.Sleep(50 * time.Millisecond)
	rt3.CheckNow(ctx)
	if p := rt3.Placement(); p[loaded] != "b" {
		t.Fatalf("stuck drain never flipped: %q", p[loaded])
	}
}

// rendezvousOwner computes the standalone winner between two member
// names for a shard (test-side mirror of the placement rule).
func rendezvousOwner(shard int, names ...string) string {
	best, bestScore := "", uint64(0)
	for _, n := range names {
		s := rendezvous(shard, n)
		if best == "" || s > bestScore || (s == bestScore && n < best) {
			best, bestScore = n, s
		}
	}
	return best
}
