package router

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/kv"
	"repro/internal/query"
	"repro/internal/relevance"
	"repro/internal/server"
	"repro/internal/session"
	"repro/visdb/client"
)

// The fleet harness: N visdbd-equivalent members (each behind a kill
// switch), one kv store, one router — the whole tentpole topology,
// in-process.

var fleetGrid = core.Options{GridW: 16, GridH: 16}

type fleetMember struct {
	name    string
	breaker *faultinject.Breaker
	url     string
}

type fleetEnv struct {
	shards  int
	kvStore *kv.Server
	// kvKeys is every key a member asked the store for or offered it.
	kvMu     sync.Mutex
	kvKeys   map[string]bool
	members  []*fleetMember
	catalogs map[string]*dataset.Catalog
	rt       *Router
	url      string // the router's front end
	client   *client.Client
}

// newFleetEnv builds a fleet of `nodes` members all serving the same
// `cats` replica catalogs (identical data per name — the fleet
// invariant that makes the kv tier's structural keys shared), wired
// through one kv store and one router.
func newFleetEnv(t *testing.T, nodes, cats, rows int) *fleetEnv {
	t.Helper()
	env := &fleetEnv{shards: 8, kvStore: kv.NewServer(0, 0), kvKeys: make(map[string]bool), catalogs: make(map[string]*dataset.Catalog)}
	kvTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if key := r.URL.Query().Get("key"); key != "" {
			env.kvMu.Lock()
			env.kvKeys[key] = true
			env.kvMu.Unlock()
		}
		env.kvStore.ServeHTTP(w, r)
	}))
	t.Cleanup(kvTS.Close)

	var catCfgs []server.CatalogConfig
	for i := 0; i < cats; i++ {
		name := fmt.Sprintf("r%d", i)
		// One seed for every catalog: the kv tier's keys are structural
		// (table identity + epoch, no catalog name), so every catalog
		// attached to one store MUST hold identical data — that is the
		// contract that lets replicas warm each other.
		cat, err := datagen.Traffic(rows, 1994)
		if err != nil {
			t.Fatal(err)
		}
		env.catalogs[name] = cat
		catCfgs = append(catCfgs, server.CatalogConfig{Name: name, Catalog: cat})
	}

	var members []Member
	for n := 0; n < nodes; n++ {
		name := string(rune('a' + n))
		// Every member gets its own shared tiers but the same catalog
		// data (read-only; safe to share the decoded arrays) and its own
		// kv client onto the one store.
		cfgs := make([]server.CatalogConfig, len(catCfgs))
		copy(cfgs, catCfgs)
		for i := range cfgs {
			cfgs[i].Shared = core.SharedOptions{Backend: kv.NewClient(kvTS.URL)}
		}
		srv, err := server.New(server.Config{Shards: env.shards, Catalogs: cfgs, DefaultOptions: fleetGrid})
		if err != nil {
			t.Fatal(err)
		}
		br := faultinject.NewBreaker(srv)
		ts := httptest.NewServer(br)
		t.Cleanup(ts.Close)
		env.members = append(env.members, &fleetMember{name: name, breaker: br, url: ts.URL})
		members = append(members, Member{Name: name, URL: ts.URL})
	}

	rt, err := New(Config{Shards: env.shards, Members: members, FailAfter: 1, DrainTimeout: time.Hour, KV: kvTS.URL})
	if err != nil {
		t.Fatal(err)
	}
	env.rt = rt
	rtTS := httptest.NewServer(rt)
	t.Cleanup(rtTS.Close)
	env.url = rtTS.URL
	env.client = client.New(rtTS.URL)
	// Sleepless retries: the node-kill path exercises the real retry
	// loop without real backoff waits.
	env.client.Retry = sleepless(4)
	return env
}

// sleepless is a retry policy whose waits return at once.
func sleepless(attempts int) client.RetryPolicy {
	return client.RetryPolicy{
		MaxAttempts: attempts,
		BaseDelay:   time.Millisecond,
		Sleep:       func(ctx context.Context, d time.Duration) error { return ctx.Err() },
	}
}

// ownerOfCatalog reports which member currently serves a catalog.
func (env *fleetEnv) ownerOfCatalog(name string) string {
	return env.rt.Placement()[server.ShardOf(name, env.shards)]
}

// compareFleet asserts the remote session is bitwise identical —
// order, distances, relevances — to a fresh in-process engine run of
// the mirror's current query.
func compareFleet(ctx context.Context, step string, remote *client.Session, mirror *session.Session, cat *dataset.Catalog) error {
	fresh, err := core.New(cat, nil, fleetGrid).Run(mirror.Query())
	if err != nil {
		return fmt.Errorf("%s: fresh run: %w", step, err)
	}
	res, err := remote.Results(ctx, -1)
	if err != nil {
		return fmt.Errorf("%s: results: %w", step, err)
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

// fleetOp is one recorded interaction — the client-side operation log
// the node-kill recovery replays onto a recreated session.
type fleetOp struct {
	kind   string // "range", "weight", "query", "undo"
	attr   string
	lo, hi float64
	pred   int
	w      float64
	q      string
}

func (op fleetOp) applyRemote(ctx context.Context, s *client.Session) error {
	var err error
	switch op.kind {
	case "range":
		_, err = s.SetRange(ctx, op.attr, op.lo, op.hi)
	case "weight":
		_, err = s.SetWeight(ctx, op.pred, op.w)
	case "query":
		_, err = s.SetQuery(ctx, op.q)
	case "undo":
		_, err = s.Undo(ctx)
	}
	return err
}

func (op fleetOp) applyMirror(m *session.Session) error {
	switch op.kind {
	case "range":
		return m.SetRangeByAttr(op.attr, op.lo, op.hi)
	case "weight":
		preds := query.Predicates(m.Query().Where)
		return m.SetWeight(preds[op.pred], op.w)
	case "query":
		return m.SetQuery(op.q)
	case "undo":
		return m.Undo()
	case "pct":
		return m.SetPercentDisplayed(op.w)
	}
	return fmt.Errorf("unknown op %q", op.kind)
}

// fleetQueries are the traffic queries and one whose second leaf, an IN
// list on t, is a distance vector: the traffic queries' leaves are range
// leaves, views of their columns' planes that every member takes of its
// own, so only such a leaf gives the kv tier something to carry. The
// range ops drag a, b and c, never t.
func fleetQueries() []string {
	return append(datagen.TrafficQueries(), `SELECT a FROM S WHERE a > 50 AND b < 40 OR t IN (25, 75) WEIGHT 2`)
}

// randomOp draws one applicable interaction for the mirror's state.
func randomOp(rng *rand.Rand, mirror *session.Session, queries []string) (fleetOp, bool) {
	attrs := []string{"a", "b", "c"}
	switch c := rng.Intn(12); {
	case c < 5:
		attr := attrs[rng.Intn(len(attrs))]
		if _, err := mirror.FindCond(attr); err != nil {
			return fleetOp{}, false
		}
		lo := math.Floor(rng.Float64() * 80)
		hi := lo + math.Floor(rng.Float64()*40)
		switch rng.Intn(3) {
		case 0:
			hi = math.Inf(1)
		case 1:
			lo = math.Inf(-1)
		}
		return fleetOp{kind: "range", attr: attr, lo: lo, hi: hi}, true
	case c < 8:
		preds := query.Predicates(mirror.Query().Where)
		return fleetOp{kind: "weight", pred: rng.Intn(len(preds)), w: []float64{0.5, 1, 2, 3}[rng.Intn(4)]}, true
	case c < 10:
		return fleetOp{kind: "query", q: queries[rng.Intn(len(queries))]}, true
	default:
		if !mirror.CanUndo() {
			return fleetOp{}, false
		}
		return fleetOp{kind: "undo"}, true
	}
}

// TestFleetReplayMatchesInProcess is the tentpole identity property:
// many concurrent randomized sessions driven through the router
// across three member processes are bitwise identical to fresh
// in-process engines at every step, while the kv tier carries leaf
// work — and only leaf work — between the members (fleet shared-hit
// rate and remote hits both nonzero, every kv key a leaf's).
func TestFleetReplayMatchesInProcess(t *testing.T) {
	sessions, steps := 60, 6
	if testing.Short() {
		sessions, steps = 12, 4
	}
	env := newFleetEnv(t, 3, 3, 900)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	queries := fleetQueries()

	// The replica catalogs must span at least two members, or the run
	// proves single-node serving, not a fleet.
	owners := make(map[string]bool)
	for name := range env.catalogs {
		owners[env.ownerOfCatalog(name)] = true
	}
	if len(owners) < 2 {
		t.Fatalf("degenerate placement: all catalogs on %v", owners)
	}

	const workers = 8
	errs := make([]error, sessions)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for g := 0; g < sessions; g++ {
		g := g
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			rng := rand.New(rand.NewSource(7000 + int64(g)))
			catName := fmt.Sprintf("r%d", g%len(env.catalogs))
			cat := env.catalogs[catName]
			src := queries[g%len(queries)]
			remote, _, err := env.client.NewSession(ctx, catName, src, client.Options{})
			if err != nil {
				errs[g] = fmt.Errorf("create: %w", err)
				return
			}
			defer remote.Close(ctx)
			mirror, err := session.NewSQL(cat, nil, fleetGrid, src)
			if err != nil {
				errs[g] = err
				return
			}
			if err := compareFleet(ctx, fmt.Sprintf("session %d initial", g), remote, mirror, cat); err != nil {
				errs[g] = err
				return
			}
			for step := 0; step < steps; step++ {
				op, ok := randomOp(rng, mirror, queries)
				if !ok {
					continue
				}
				if err := op.applyRemote(ctx, remote); err != nil {
					errs[g] = fmt.Errorf("session %d step %d remote %s: %w", g, step, op.kind, err)
					return
				}
				if err := op.applyMirror(mirror); err != nil {
					errs[g] = fmt.Errorf("session %d step %d mirror %s: %w", g, step, op.kind, err)
					return
				}
				if err := compareFleet(ctx, fmt.Sprintf("session %d step %d %s", g, step, op.kind), remote, mirror, cat); err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", g, err)
		}
	}

	// The fleet view must show cross-node sharing: a nonzero fleet-wide
	// shared-hit rate AND kv-tier traffic (replica catalogs of the same
	// data produce identical structural keys on every member).
	fleet, err := env.client.Fleet(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fleet.SharedHitRate <= 0 {
		t.Fatalf("fleet shared-hit rate zero: %+v", fleet.Shared)
	}
	if fleet.Shared.RemoteHits == 0 || fleet.Shared.RemotePuts == 0 {
		t.Fatalf("kv tier carried nothing between nodes: %+v", fleet.Shared)
	}
	if fleet.KV.Puts == 0 || fleet.KV.Entries == 0 {
		t.Fatalf("kv store unused: %+v", fleet.KV)
	}
	// Leaf vectors are all that crosses: every index and interior entry
	// behind the identical results above was rebuilt on the member that
	// used it.
	env.kvMu.Lock()
	for key := range env.kvKeys {
		if !strings.HasPrefix(key, "C|") && !strings.HasPrefix(key, "J|") && !strings.HasPrefix(key, "B|") && !strings.HasPrefix(key, "S|") {
			t.Fatalf("a member asked the kv store about %q, which is not a leaf entry", key)
		}
	}
	env.kvMu.Unlock()
	if fleet.KV.MaxEntries == 0 || fleet.KV.MaxBytes == 0 {
		t.Fatalf("fleet report dropped the kv store's bounds: %+v", fleet.KV)
	}
	if fleet.Recalcs == 0 {
		t.Fatalf("fleet recalcs: %+v", fleet)
	}
	t.Logf("fleet: %d sessions, %d recalcs, shared-hit rate %.3f, remote hits %d, kv entries %d",
		sessions, fleet.Recalcs, fleet.SharedHitRate, fleet.Shared.RemoteHits, fleet.KV.Entries)
}

// TestFleetNodeKillRecovers is the availability property: a member
// killed mid-run takes its sessions with it, but clients recover
// through the router — the failed forward marks the node down and
// reroutes, the recreated session replays its operation log on the
// new owner (warmed by the kv tier the dead node fed), and the final
// state is bitwise identical to the fault-free mirror with
// exactly-once application (recalc counters equal create + ops).
func TestFleetNodeKillRecovers(t *testing.T) {
	env := newFleetEnv(t, 3, 2, 900)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	queries := fleetQueries()

	// The victim catalog's owner dies; the other catalog keeps serving
	// (possibly on another member) untouched.
	victimCat := "r0"
	cat := env.catalogs[victimCat]
	victim := env.ownerOfCatalog(victimCat)

	src := queries[3] // its IN leaf is what the dead node leaves in kv
	remote, _, err := env.client.NewSession(ctx, victimCat, src, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := session.NewSQL(cat, nil, fleetGrid, src)
	if err != nil {
		t.Fatal(err)
	}

	// Scripted interaction with an operation log; the kill lands
	// between ops 3 and 4.
	rng := rand.New(rand.NewSource(41))
	var script []fleetOp
	for len(script) < 8 {
		if op, ok := randomOp(rng, mirror, queries); ok && op.kind != "undo" {
			script = append(script, op)
		}
	}

	applied := 0
	recreates := 0
	apply := func(op fleetOp) {
		t.Helper()
		err := op.applyRemote(ctx, remote)
		if err != nil {
			// The session died with its node (404 on the new owner after
			// the router's passive failover, or node_down if the flip is
			// still settling). Recreate on the current owner and replay
			// the log — creation routes by catalog, so it lands wherever
			// the shard lives NOW.
			var ae *client.APIError
			if !errors.As(err, &ae) {
				t.Fatalf("op %d (%s): %v", applied, op.kind, err)
			}
			recreates++
			fresh, _, cerr := env.client.NewSession(ctx, victimCat, src, client.Options{})
			if cerr != nil {
				t.Fatalf("recreate after %v: %v", err, cerr)
			}
			remote = fresh
			for i := 0; i < applied; i++ {
				if rerr := script[i].applyRemote(ctx, remote); rerr != nil {
					t.Fatalf("replay op %d: %v", i, rerr)
				}
			}
			if rerr := op.applyRemote(ctx, remote); rerr != nil {
				t.Fatalf("re-attempt op %d: %v", applied, rerr)
			}
		}
		applied++
		if merr := op.applyMirror(mirror); merr != nil {
			t.Fatalf("mirror op %d: %v", applied-1, merr)
		}
	}

	for i, op := range script {
		if i == 4 {
			// Kill the victim's node mid-run. No health loop is running:
			// recovery rides entirely on passive detection in the proxy
			// path plus client retries.
			for _, m := range env.members {
				if m.name == victim {
					m.breaker.Kill()
				}
			}
		}
		apply(op)
		if err := compareFleet(ctx, fmt.Sprintf("op %d %s", i, op.kind), remote, mirror, cat); err != nil {
			t.Fatal(err)
		}
	}
	if recreates == 0 {
		t.Fatal("the kill was never observed — the script proves nothing")
	}
	newOwner := env.ownerOfCatalog(victimCat)
	if newOwner == victim {
		t.Fatalf("shard still routed to the dead node %q", victim)
	}

	// Exactly-once: the recreated session applied create + every op
	// exactly once — its recalc counter matches the fault-free mirror's.
	sum, err := remote.Timings(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Recalcs != mirror.Recalcs {
		t.Fatalf("recalcs %d vs fault-free mirror %d — ops lost or double-applied", sum.Recalcs, mirror.Recalcs)
	}
	if want := 1 + len(script); mirror.Recalcs != want {
		t.Fatalf("mirror recalcs %d, want %d", mirror.Recalcs, want)
	}

	// Warm failover: the new owner's replay was fed by the kv entries
	// the dead node computed — visible as fleet-wide remote hits.
	fleet, err := env.client.Fleet(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Shared.RemoteHits == 0 {
		t.Fatalf("failover recomputed everything; kv tier unused: %+v", fleet.Shared)
	}
	for _, m := range fleet.Members {
		if m.Name == victim && m.Healthy {
			t.Fatalf("dead member still marked healthy: %+v", fleet.Members)
		}
	}
	t.Logf("recovered via %d recreate(s): %s -> %s, remote hits %d",
		recreates, victim, newOwner, fleet.Shared.RemoteHits)
}
