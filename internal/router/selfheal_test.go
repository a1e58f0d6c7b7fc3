package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/kv"
	"repro/internal/relevance"
	"repro/internal/server"
	"repro/internal/session"
	"repro/internal/wire"
	"repro/visdb/client"
)

// The self-healing harness: restartable members (a restart is a FRESH
// server process — new session nonce, empty session table), a kv
// store behind a partition switch, and TWO redundant routers, each
// behind its own kill switch.

// healMember is a fleet member whose process can die and come back as
// a genuinely new instance.
type healMember struct {
	name  string
	url   string
	br    *faultinject.Breaker
	cur   atomic.Pointer[server.Server]
	build func() (*server.Server, error)
}

// restart swaps in a freshly constructed server (losing every session,
// minting a new ID nonce) and revives the member's listener.
func (m *healMember) restart(t *testing.T) {
	t.Helper()
	srv, err := m.build()
	if err != nil {
		t.Fatalf("restart %s: %v", m.name, err)
	}
	m.cur.Store(srv)
	m.br.Revive()
}

type healEnv struct {
	shards     int
	kvStore    *kv.Server
	kvBr       *faultinject.Breaker
	gate       *faultinject.LatencyGate
	members    []*healMember
	routers    []*Router
	routerBr   []*faultinject.Breaker
	routerURLs []string
	clients    []*client.Client
	catalogs   map[string]*dataset.Catalog
}

// newHealEnv builds nodes restartable members serving cats replica
// catalogs, one partitionable kv store, and nRouters independent
// routers over the same member list.
func newHealEnv(t *testing.T, nodes, nRouters, cats, rows, failAfter int) *healEnv {
	t.Helper()
	env := &healEnv{
		shards:   8,
		kvStore:  kv.NewServer(0, 0),
		gate:     &faultinject.LatencyGate{},
		catalogs: make(map[string]*dataset.Catalog),
	}
	env.kvBr = faultinject.NewBreaker(env.kvStore)
	kvTS := httptest.NewServer(env.kvBr)
	t.Cleanup(kvTS.Close)

	names := make([]string, 0, cats)
	for i := 0; i < cats; i++ {
		name := fmt.Sprintf("r%d", i)
		cat, err := datagen.Traffic(rows, 1994)
		if err != nil {
			t.Fatal(err)
		}
		env.catalogs[name] = cat
		names = append(names, name)
	}

	var members []Member
	for n := 0; n < nodes; n++ {
		m := &healMember{name: string(rune('a' + n))}
		m.build = func() (*server.Server, error) {
			var cfgs []server.CatalogConfig
			for _, name := range names {
				// A fresh kv client per incarnation: a restarted process
				// starts with a closed breaker, exactly like a real reboot.
				kvc := kv.NewClient(kvTS.URL)
				kvc.BreakerThreshold = 2
				kvc.BreakerCooldown = 10 * time.Millisecond
				cfgs = append(cfgs, server.CatalogConfig{
					Name: name, Catalog: env.catalogs[name],
					Shared: core.SharedOptions{Backend: kvc},
				})
			}
			return server.New(server.Config{
				Shards: env.shards, Catalogs: cfgs, DefaultOptions: fleetGrid,
				FaultHook: func(*http.Request) *server.Fault {
					if d := env.gate.Delay(); d > 0 {
						return &server.Fault{Delay: d}
					}
					return nil
				},
			})
		}
		srv, err := m.build()
		if err != nil {
			t.Fatal(err)
		}
		m.cur.Store(srv)
		m.br = faultinject.NewBreaker(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			m.cur.Load().ServeHTTP(w, r)
		}))
		ts := httptest.NewServer(m.br)
		t.Cleanup(ts.Close)
		m.url = ts.URL
		env.members = append(env.members, m)
		members = append(members, Member{Name: m.name, URL: ts.URL})
	}

	for r := 0; r < nRouters; r++ {
		rt, err := New(Config{
			Shards: env.shards, Members: members,
			FailAfter: failAfter, DrainTimeout: time.Hour, KV: kvTS.URL,
		})
		if err != nil {
			t.Fatal(err)
		}
		br := faultinject.NewBreaker(rt)
		ts := httptest.NewServer(br)
		t.Cleanup(ts.Close)
		c := client.New(ts.URL)
		c.Retry = sleepless(4)
		env.routers = append(env.routers, rt)
		env.routerBr = append(env.routerBr, br)
		env.routerURLs = append(env.routerURLs, ts.URL)
		env.clients = append(env.clients, c)
	}
	return env
}

// applyChaos executes one scripted fault against the live topology.
func (env *healEnv) applyChaos(t *testing.T, e faultinject.ChaosEvent) {
	t.Helper()
	switch e.Action {
	case faultinject.KillMember:
		env.members[e.Target].br.Kill()
	case faultinject.RestartMember:
		env.members[e.Target].restart(t)
	case faultinject.PartitionKV:
		env.kvBr.Kill()
	case faultinject.HealKV:
		env.kvBr.Revive()
	case faultinject.KillRouter:
		env.routerBr[e.Target].Kill()
	case faultinject.ReviveRouter:
		env.routerBr[e.Target].Revive()
	case faultinject.AddLatency:
		env.gate.Set(e.Latency)
	case faultinject.ClearLatency:
		env.gate.Set(0)
	default:
		t.Fatalf("unknown chaos action %v", e)
	}
}

// checkConverged probes every member from every router and asserts the
// redundant control plane agrees on the full placement.
func (env *healEnv) checkConverged(t *testing.T, ctx context.Context, step string) {
	t.Helper()
	for _, rt := range env.routers {
		rt.CheckNow(ctx)
	}
	h0 := env.routers[0].PlacementHash()
	for i, rt := range env.routers[1:] {
		if h := rt.PlacementHash(); h != h0 {
			t.Fatalf("%s: router 0 placement %s, router %d placement %s\n0: %v\n%d: %v",
				step, h0, i+1, h, env.routers[0].Placement(), i+1, rt.Placement())
		}
	}
}

// applyFleet drives one recorded interaction through a self-healing
// FleetSession.
func (op fleetOp) applyFleet(ctx context.Context, fs *client.FleetSession) error {
	var err error
	switch op.kind {
	case "range":
		_, err = fs.SetRange(ctx, op.attr, op.lo, op.hi)
	case "weight":
		_, err = fs.SetWeight(ctx, op.pred, op.w)
	case "query":
		_, err = fs.SetQuery(ctx, op.q)
	case "undo":
		_, err = fs.Undo(ctx)
	case "pct":
		_, err = fs.SetPercentDisplayed(ctx, op.w)
	}
	return err
}

// comparePct is compareFleet for sessions that may have moved the
// percentage-displayed slider: the fresh engine gets the session's
// current pct so Displayed and normalization match bitwise.
func comparePct(step string, res client.Results, mirror *session.Session, cat *dataset.Catalog, pct float64) error {
	opts := fleetGrid
	opts.PercentDisplayed = pct
	fresh, err := core.New(cat, nil, opts).Run(mirror.Query())
	if err != nil {
		return fmt.Errorf("%s: fresh run: %w", step, err)
	}
	if res.Summary.N != fresh.N || res.Summary.Displayed != fresh.Displayed {
		return fmt.Errorf("%s: N %d vs %d, Displayed %d vs %d",
			step, res.Summary.N, fresh.N, res.Summary.Displayed, fresh.Displayed)
	}
	if len(res.Rows) != fresh.Displayed {
		return fmt.Errorf("%s: %d rows, want %d", step, len(res.Rows), fresh.Displayed)
	}
	for rank, row := range res.Rows {
		item := fresh.Order[rank]
		if row.Item != item {
			return fmt.Errorf("%s: order[%d] item %d vs %d", step, rank, row.Item, item)
		}
		d := fresh.Combined()[item]
		if math.Float64bits(row.Distance) != math.Float64bits(d) {
			return fmt.Errorf("%s: rank %d distance %v vs %v", step, rank, row.Distance, d)
		}
		if rel := relevance.RelevanceFactor(d); math.Float64bits(row.Relevance) != math.Float64bits(rel) {
			return fmt.Errorf("%s: rank %d relevance %v vs %v", step, rank, row.Relevance, rel)
		}
	}
	return nil
}

// TestFleetChaosSoakSelfHeals is the tentpole soak: a seeded chaos
// script kills and restarts members, partitions the kv store, flaps a
// router, and injects latency, while FleetSessions keep mutating
// through whichever router answers. The bar: ZERO caller-visible
// errors, bitwise identity with fault-free in-process engines at
// every checkpoint, exactly-once recalc counts, and at least one
// automatic session recovery (or the soak proved nothing).
func TestFleetChaosSoakSelfHeals(t *testing.T) {
	// One fixed seed, one fixed script: a failure anywhere reproduces
	// bit-for-bit from this constant. The final recoveries>0 assertion
	// guards the seed itself — a reshuffle that stops killing session
	// owners fails loudly instead of hollowing the test out.
	const seed = 1994
	const steps = 18
	env := newHealEnv(t, 3, 2, 2, 600, 1)
	script := faultinject.GenerateChaosScript(seed, steps, len(env.members), len(env.routers))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	queries := datagen.TrafficQueries()

	env.checkConverged(t, ctx, "bootstrap")

	type soakSession struct {
		fs     *client.FleetSession
		mirror *session.Session
		cat    *dataset.Catalog
		rng    *rand.Rand
		pct    float64
		ops    int
	}
	var sessions []*soakSession
	for g := 0; g < 3; g++ {
		catName := fmt.Sprintf("r%d", g%len(env.catalogs))
		src := queries[g%len(queries)]
		// Each session starts on a different router; recovery is free to
		// rotate between them.
		endpoints := []*client.Client{env.clients[g%2], env.clients[(g+1)%2]}
		fs, _, err := client.NewFleetSession(ctx, endpoints, catName, src,
			client.FleetOptions{})
		if err != nil {
			t.Fatalf("session %d create: %v", g, err)
		}
		mirror, err := session.NewSQL(env.catalogs[catName], nil, fleetGrid, src)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, &soakSession{
			fs: fs, mirror: mirror, cat: env.catalogs[catName],
			rng: rand.New(rand.NewSource(9000 + int64(g))),
		})
	}

	for step := 0; step < script.Steps; step++ {
		for _, e := range script.At(step) {
			env.applyChaos(t, e)
		}
		env.checkConverged(t, ctx, fmt.Sprintf("step %d", step))

		for g, ss := range sessions {
			var op fleetOp
			if step%6 == 5 {
				// Exercise the pct slider too — the one op class whose
				// normalization the fresh-engine comparison must track.
				op = fleetOp{kind: "pct", w: []float64{0.5, 0.8, 1}[(step/6)%3]}
			} else {
				var ok bool
				if op, ok = randomOp(ss.rng, ss.mirror, queries); !ok {
					continue
				}
			}
			if err := op.applyFleet(ctx, ss.fs); err != nil {
				t.Fatalf("step %d session %d %s: caller-visible error: %v", step, g, op.kind, err)
			}
			if err := op.applyMirror(ss.mirror); err != nil {
				t.Fatalf("step %d session %d mirror %s: %v", step, g, op.kind, err)
			}
			if op.kind == "pct" {
				ss.pct = op.w
			}
			ss.ops++
			if step%3 == 2 {
				res, err := ss.fs.Results(ctx, -1)
				if err != nil {
					t.Fatalf("step %d session %d results: %v", step, g, err)
				}
				if err := comparePct(fmt.Sprintf("step %d session %d", step, g), res, ss.mirror, ss.cat, ss.pct); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// The script's heal tail restored everything; a couple more probe
	// rounds and the fleet must be whole again.
	env.checkConverged(t, ctx, "post-soak")
	env.checkConverged(t, ctx, "post-soak settle")
	var hr wire.HealthResponse
	if err := getJSON(t, env.routerURLs[0]+"/v1/health", &hr); err != nil {
		t.Fatal(err)
	}
	if hr.HealthyMembers != len(env.members) {
		t.Fatalf("post-soak healthy members %d of %d", hr.HealthyMembers, len(env.members))
	}
	if hr.PlacementHash != env.routers[0].PlacementHash() {
		t.Fatalf("/v1/health placement %s vs %s", hr.PlacementHash, env.routers[0].PlacementHash())
	}

	var recoveries uint64
	for g, ss := range sessions {
		res, err := ss.fs.Results(ctx, -1)
		if err != nil {
			t.Fatalf("final results session %d: %v", g, err)
		}
		if err := comparePct(fmt.Sprintf("final session %d", g), res, ss.mirror, ss.cat, ss.pct); err != nil {
			t.Fatal(err)
		}
		// Exactly-once: the surviving incarnation holds creation + every
		// acknowledged op exactly once, matching the fault-free mirror.
		sum, err := ss.fs.Timings(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if sum.Recalcs != ss.mirror.Recalcs {
			t.Fatalf("session %d recalcs %d vs fault-free mirror %d — ops lost or double-applied",
				g, sum.Recalcs, ss.mirror.Recalcs)
		}
		recoveries += ss.fs.Recoveries()
		if err := ss.fs.Close(ctx); err != nil {
			t.Fatalf("close session %d: %v", g, err)
		}
	}
	if recoveries == 0 {
		t.Fatalf("seed %d killed no session owner — the soak proved nothing; pick a better seed", seed)
	}
	t.Logf("soak: %d steps, %d chaos events, %d automatic recoveries, zero errors",
		script.Steps, len(script.Events), recoveries)
}

// getJSON fetches url and decodes the response body into v.
func getJSON(t *testing.T, url string, v any) error {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return decodeBody(resp.Body, v)
}

// decodeBody JSON-decodes r into v.
func decodeBody(r io.Reader, v any) error {
	return json.NewDecoder(r).Decode(v)
}

// TestTwoRoutersConvergeThroughRejoin walks the full membership cycle
// — healthy, member killed, member restarted, drain-back — asserting
// at EVERY transition that both routers compute identical placements,
// and that an in-flight session survives the rejoin via drain.
func TestTwoRoutersConvergeThroughRejoin(t *testing.T) {
	env := newHealEnv(t, 3, 2, 2, 600, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rtA, rtB := env.routers[0], env.routers[1]
	queries := datagen.TrafficQueries()

	env.checkConverged(t, ctx, "bootstrap")
	epoch0 := rtA.PlacementEpoch()

	// A session on r0; its owner is the victim.
	victimCat := "r0"
	shard := server.ShardOf(victimCat, env.shards)
	victim := rtA.Placement()[shard]
	fs, _, err := client.NewFleetSession(ctx, env.clients, victimCat, queries[1], client.FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := session.NewSQL(env.catalogs[victimCat], nil, fleetGrid, queries[1])
	if err != nil {
		t.Fatal(err)
	}

	// Kill the owner. FailAfter is 2: the first probe round must NOT
	// evict (one strike), the second must — on both routers.
	for _, m := range env.members {
		if m.name == victim {
			m.br.Kill()
		}
	}
	env.checkConverged(t, ctx, "one strike")
	if rtA.Placement()[shard] != victim {
		t.Fatal("a single failed probe evicted the member (FailAfter 2)")
	}
	env.checkConverged(t, ctx, "two strikes")
	interim := rtA.Placement()[shard]
	if interim == victim {
		t.Fatalf("shard %d still on dead member %q", shard, victim)
	}
	if rtA.PlacementEpoch() == epoch0 {
		t.Fatal("placement changed but epoch did not advance")
	}

	// The session died with its node; the next op transparently
	// recreates it on the interim owner.
	op := fleetOp{kind: "range", attr: "a", lo: 10, hi: 60}
	if err := op.applyFleet(ctx, fs); err != nil {
		t.Fatalf("op after kill: %v", err)
	}
	if err := op.applyMirror(mirror); err != nil {
		t.Fatal(err)
	}
	if fs.Recoveries() != 1 {
		t.Fatalf("recoveries %d, want 1", fs.Recoveries())
	}

	// The victim restarts as a fresh process. Hysteresis: one clean
	// probe round must NOT re-admit it, the second must — and because
	// the interim owner holds a live session on the shard, it DRAINS
	// (stays routed to the interim owner) instead of flipping.
	for _, m := range env.members {
		if m.name == victim {
			m.restart(t)
		}
	}
	env.checkConverged(t, ctx, "one clean probe")
	if rtA.Placement()[shard] != interim {
		t.Fatal("a single clean probe re-admitted the member (FailAfter 2)")
	}
	env.checkConverged(t, ctx, "re-admitted")
	place, drain := rtA.Placement(), rtA.Draining()
	if place[shard] != interim || drain[shard] != victim {
		t.Fatalf("rejoin: shard %d owner %q drain %v — want draining %s→%s",
			shard, place[shard], drain, interim, victim)
	}
	placeB, drainB := rtB.Placement(), rtB.Draining()
	if placeB[shard] != place[shard] || drainB[shard] != drain[shard] {
		t.Fatalf("routers disagree on drain: A %q→%q, B %q→%q",
			place[shard], drain[shard], placeB[shard], drainB[shard])
	}

	// In-flight survival: the draining session keeps serving without
	// another recovery.
	op2 := fleetOp{kind: "weight", pred: 0, w: 2}
	if err := op2.applyFleet(ctx, fs); err != nil {
		t.Fatalf("op during drain: %v", err)
	}
	if err := op2.applyMirror(mirror); err != nil {
		t.Fatal(err)
	}
	if fs.Recoveries() != 1 {
		t.Fatalf("drain forced a recovery: %d", fs.Recoveries())
	}
	res, err := fs.Results(ctx, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := comparePct("during drain", res, mirror, env.catalogs[victimCat], 0); err != nil {
		t.Fatal(err)
	}

	// The session closes; the drained shard flips back to the rejoined
	// member on the next round — on both routers.
	if err := fs.Close(ctx); err != nil {
		t.Fatal(err)
	}
	env.checkConverged(t, ctx, "drain-back")
	if p := rtA.Placement(); p[shard] != victim {
		t.Fatalf("shard %d never drained back: %q", shard, p[shard])
	}
	if len(rtA.Draining()) != 0 || len(rtB.Draining()) != 0 {
		t.Fatalf("drains left: A %v B %v", rtA.Draining(), rtB.Draining())
	}
}

// TestReadmissionHysteresis pins the flap protection: a member that
// alternates good and bad probes never rejoins, because every failure
// resets the clean-probe counter.
func TestReadmissionHysteresis(t *testing.T) {
	const shards = 8
	ctx := context.Background()
	a, b := newStubNode(t, "a", shards), newStubNode(t, "b", shards)
	rt, err := New(Config{Shards: shards, Members: []Member{a.member(), b.member()}, FailAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	bOwns := func() bool {
		for _, owner := range rt.Placement() {
			if owner == "b" {
				return true
			}
		}
		return false
	}
	if !bOwns() {
		t.Fatal("b owns nothing; test proves nothing")
	}

	b.setFailing(true)
	rt.CheckNow(ctx)
	if !bOwns() {
		t.Fatal("one strike evicted b")
	}
	rt.CheckNow(ctx)
	if bOwns() {
		t.Fatal("two strikes did not evict b")
	}

	// Flap: ok, fail, ok, fail… never two clean rounds in a row, never
	// re-admitted.
	for i := 0; i < 4; i++ {
		b.setFailing(i%2 == 1)
		rt.CheckNow(ctx)
		if bOwns() {
			t.Fatalf("flapping member re-admitted at round %d", i)
		}
	}

	// Two consecutive clean rounds re-admit.
	b.setFailing(false)
	rt.CheckNow(ctx)
	if bOwns() {
		t.Fatal("one clean round re-admitted b")
	}
	rt.CheckNow(ctx)
	if !bOwns() {
		t.Fatal("two clean rounds did not re-admit b")
	}
}

// TestNoHealthyMembers pins the whole-fleet-down contract: 503 with
// the no_healthy_members code, a Retry-After hint, and the placement
// epoch header (so a recovering client can tell the world changed).
func TestNoHealthyMembers(t *testing.T) {
	const shards = 4
	ctx := context.Background()
	a := newStubNode(t, "a", shards)
	rt, err := New(Config{Shards: shards, Members: []Member{a.member()}, FailAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	a.setFailing(true)
	rt.CheckNow(ctx)

	ts := httptest.NewServer(rt)
	defer ts.Close()
	for _, path := range []string{"/v1/sessions/s1.9/results", "/v1/catalogs"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var e wire.ErrorResponse
		decodeBody(resp.Body, &e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || e.Code != wire.CodeNoHealthyMembers {
			t.Fatalf("%s: want 503 no_healthy_members, got %d %+v", path, resp.StatusCode, e)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s: no Retry-After", path)
		}
		if resp.Header.Get("X-Visdb-Placement-Epoch") == "" {
			t.Fatalf("%s: no placement-epoch header", path)
		}
	}

	// The member heals: service resumes and forwards carry the epoch
	// header too.
	a.setFailing(false)
	rt.CheckNow(ctx)
	resp, err := http.Get(ts.URL + "/v1/sessions/s1.9/results")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after heal: %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Visdb-Placement-Epoch") == "" {
		t.Fatal("forwarded response missing placement-epoch header")
	}
}

// TestRouterConfigValidation pins the hardening: duplicate member
// URLs are rejected at construction.
func TestRouterConfigValidation(t *testing.T) {
	base := []Member{{Name: "a", URL: "http://n1"}, {Name: "b", URL: "http://n2"}}
	if _, err := New(Config{Shards: 4, Members: base}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	dup := []Member{{Name: "a", URL: "http://n1"}, {Name: "b", URL: "http://n1"}}
	if _, err := New(Config{Shards: 4, Members: dup}); err == nil {
		t.Fatal("duplicate member URL accepted")
	}
}

// TestKVBreakerVisibleInFleetStats pins the breaker's observability
// loop: partition the store, watch the fleet view report the breaker
// open with trips and short-circuits, heal, and watch it re-close.
func TestKVBreakerVisibleInFleetStats(t *testing.T) {
	env := newHealEnv(t, 2, 1, 1, 600, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	env.checkConverged(t, ctx, "bootstrap")
	c := env.clients[0]
	// Every query holds a new IN leaf, a distance vector the member asks
	// kv for and offers to it (a range leaf is a view, which never
	// travels).
	inQuery := func(i int) string {
		return fmt.Sprintf(`SELECT a FROM S WHERE a > 50 AND t IN (%d, 75)`, i)
	}

	// Healthy store: traffic flows, breaker closed.
	s1, _, err := c.NewSession(ctx, "r0", inQuery(0), client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close(ctx)
	fleet, err := c.Fleet(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Shared.RemoteBreaker != "closed" {
		t.Fatalf("healthy breaker state %q", fleet.Shared.RemoteBreaker)
	}
	if fleet.PlacementHash == "" || fleet.PlacementHash != env.routers[0].PlacementHash() {
		t.Fatalf("fleet placement hash %q", fleet.PlacementHash)
	}

	// Partition. Each kv client trips after 2 failures; the session
	// keeps working (kv is an optimization tier, not a dependency),
	// and once open, requests short-circuit instead of eating a
	// timeout per call.
	env.kvBr.Kill()
	for i := 0; i < 6; i++ {
		if _, err := s1.SetQuery(ctx, inQuery(1+i)); err != nil {
			t.Fatalf("op %d during partition: %v", i, err)
		}
	}
	fleet, err = c.Fleet(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Shared.RemoteBreaker != "open" || fleet.Shared.RemoteTrips == 0 {
		t.Fatalf("partitioned breaker: state %q trips %d", fleet.Shared.RemoteBreaker, fleet.Shared.RemoteTrips)
	}
	if fleet.Shared.RemoteShortCircuits == 0 {
		t.Fatal("open breaker never short-circuited")
	}

	// Heal; after the cooldown a probe re-closes the breaker.
	env.kvBr.Revive()
	deadline := time.Now().Add(10 * time.Second)
	for i := 7; ; i++ {
		time.Sleep(15 * time.Millisecond)
		if _, err := s1.SetQuery(ctx, inQuery(i)); err != nil {
			t.Fatalf("op after heal: %v", err)
		}
		fleet, err = c.Fleet(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if fleet.Shared.RemoteBreaker == "closed" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never re-closed after heal: %q", fleet.Shared.RemoteBreaker)
		}
	}
}
