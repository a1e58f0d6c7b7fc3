package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/relevance"
	"repro/internal/session"
	"repro/internal/wire"
	"repro/visdb/client"
)

// testGrid keeps server-side sessions and the in-process mirrors on
// identical engine options.
var testGrid = core.Options{GridW: 16, GridH: 16}

// newTestServer serves the given catalogs behind an httptest server and
// returns a typed client.
func newTestServer(t testing.TB, shards int, catalogs ...CatalogConfig) (*Server, *client.Client) {
	t.Helper()
	srv, err := New(Config{Shards: shards, Catalogs: catalogs, DefaultOptions: testGrid})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, client.New(ts.URL)
}

func trafficConfig(t testing.TB, name string, rows int, seed int64) CatalogConfig {
	t.Helper()
	cat, err := datagen.Traffic(rows, seed)
	if err != nil {
		t.Fatal(err)
	}
	return CatalogConfig{Name: name, Catalog: cat}
}

// compareRemote fetches the remote session's full displayed ranking
// and asserts bitwise identity — order, distances, relevances —
// against a FRESH in-process engine run of the mirror's current query
// over the same catalog. Returns an error instead of failing so the
// concurrency test can call it from worker goroutines.
func compareRemote(ctx context.Context, step string, remote *client.Session, mirror *session.Session, cat *dataset.Catalog, withTuples bool) error {
	fresh, err := core.New(cat, nil, testGrid).Run(mirror.Query())
	if err != nil {
		return fmt.Errorf("%s: fresh run: %w", step, err)
	}
	var res client.Results
	if withTuples {
		res, err = remote.ResultsWithTuples(ctx, -1)
	} else {
		res, err = remote.Results(ctx, -1)
	}
	if err != nil {
		return fmt.Errorf("%s: results: %w", step, err)
	}
	if res.Summary.N != fresh.N || res.Summary.Displayed != fresh.Displayed {
		return fmt.Errorf("%s: N %d vs %d, Displayed %d vs %d",
			step, res.Summary.N, fresh.N, res.Summary.Displayed, fresh.Displayed)
	}
	st := fresh.Stats()
	if res.Summary.NumResults != st.NumResults {
		return fmt.Errorf("%s: NumResults %d vs %d", step, res.Summary.NumResults, st.NumResults)
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
		rel := relevance.RelevanceFactor(d)
		if math.Float64bits(row.Relevance) != math.Float64bits(rel) {
			return fmt.Errorf("%s: rank %d relevance %v vs %v", step, rank, row.Relevance, rel)
		}
		if withTuples {
			tup, err := fresh.Tuple(item)
			if err != nil {
				return fmt.Errorf("%s: tuple(%d): %w", step, item, err)
			}
			if len(row.Tuple) != len(tup.Rows) {
				return fmt.Errorf("%s: tuple tables %d vs %d", step, len(row.Tuple), len(tup.Rows))
			}
			for i, vals := range tup.Rows {
				for j, v := range vals {
					if row.Tuple[i][j] != v.String() {
						return fmt.Errorf("%s: tuple[%d][%d] %q vs %q", step, i, j, row.Tuple[i][j], v.String())
					}
				}
			}
		}
	}
	return nil
}

// scriptQueries are the whole-query replacements the randomized
// scripts rotate through — the same queries the repository benchmark
// (bench/) drives, so the replay-identity suite covers exactly what
// it measures.
var scriptQueries = datagen.TrafficQueries()

// scriptStep applies one random interaction to the remote session and
// its in-process mirror, keeping both on identical state. Returns a
// label for failure messages.
func scriptStep(ctx context.Context, rng *rand.Rand, step int, remote *client.Session, mirror *session.Session) (string, error) {
	attrs := []string{"a", "b", "c"}
	switch op := rng.Intn(12); {
	case op < 5: // range drag (sometimes one-sided)
		attr := attrs[rng.Intn(len(attrs))]
		if _, err := mirror.FindCond(attr); err != nil {
			return fmt.Sprintf("step %d: skip drag %s", step, attr), nil
		}
		lo := math.Floor(rng.Float64() * 80)
		hi := lo + math.Floor(rng.Float64()*40)
		switch rng.Intn(3) {
		case 0:
			hi = math.Inf(1)
		case 1:
			lo = math.Inf(-1)
		}
		if _, err := remote.SetRange(ctx, attr, lo, hi); err != nil {
			return "", fmt.Errorf("step %d: remote drag %s: %w", step, attr, err)
		}
		if err := mirror.SetRangeByAttr(attr, lo, hi); err != nil {
			return "", fmt.Errorf("step %d: mirror drag %s: %w", step, attr, err)
		}
		return fmt.Sprintf("step %d: drag %s to [%g,%g]", step, attr, lo, hi), nil
	case op < 8: // weight change (sometimes a no-op)
		preds := query.Predicates(mirror.Query().Where)
		i := rng.Intn(len(preds))
		w := []float64{0.5, 1, 1, 2, 3}[rng.Intn(5)]
		if _, err := remote.SetWeight(ctx, i, w); err != nil {
			return "", fmt.Errorf("step %d: remote weight: %w", step, err)
		}
		if err := mirror.SetWeight(preds[i], w); err != nil {
			return "", fmt.Errorf("step %d: mirror weight: %w", step, err)
		}
		return fmt.Sprintf("step %d: weight pred %d = %g", step, i, w), nil
	case op < 10: // whole-query replacement
		src := scriptQueries[rng.Intn(len(scriptQueries))]
		if _, err := remote.SetQuery(ctx, src); err != nil {
			return "", fmt.Errorf("step %d: remote query: %w", step, err)
		}
		if err := mirror.SetQuery(src); err != nil {
			return "", fmt.Errorf("step %d: mirror query: %w", step, err)
		}
		return fmt.Sprintf("step %d: set query", step), nil
	default: // undo
		if !mirror.CanUndo() {
			return fmt.Sprintf("step %d: skip undo", step), nil
		}
		if _, err := remote.Undo(ctx); err != nil {
			return "", fmt.Errorf("step %d: remote undo: %w", step, err)
		}
		if err := mirror.Undo(); err != nil {
			return "", fmt.Errorf("step %d: mirror undo: %w", step, err)
		}
		return fmt.Sprintf("step %d: undo", step), nil
	}
}

// TestRemoteReplayMatchesInProcess is the end-to-end identity
// property: a remote client session replaying a randomized interaction
// script (drags, weights, query replacement, undo) is bitwise
// identical — rows, relevances, order — to a fresh in-process engine
// at every step.
func TestRemoteReplayMatchesInProcess(t *testing.T) {
	cc := trafficConfig(t, "traffic", 1500, 42)
	_, c := newTestServer(t, 2, cc)
	ctx := context.Background()

	remote, sum, err := c.NewSession(ctx, "traffic", scriptQueries[2], client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.N != 1500 {
		t.Fatalf("initial N = %d", sum.N)
	}
	mirror, err := session.NewSQL(cc.Catalog, nil, testGrid, scriptQueries[2])
	if err != nil {
		t.Fatal(err)
	}
	if err := compareRemote(ctx, "initial", remote, mirror, cc.Catalog, true); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1994))
	for step := 0; step < 40; step++ {
		label, err := scriptStep(ctx, rng, step, remote, mirror)
		if err != nil {
			t.Fatal(err)
		}
		if err := compareRemote(ctx, label, remote, mirror, cc.Catalog, step%7 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := remote.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentClientsMatchFreshEngines is the acceptance property:
// 8 concurrent HTTP clients on ONE catalog — all sharing the
// catalog's server-side cache tier — each produce results bitwise
// identical to a fresh in-process engine at every step, and a warm
// client created afterwards sees nonzero SharedHits over the wire.
func TestConcurrentClientsMatchFreshEngines(t *testing.T) {
	const clients = 8
	const steps = 10
	cc := trafficConfig(t, "traffic", 1200, 9)
	_, c := newTestServer(t, 3, cc)
	ctx := context.Background()

	errs := make([]error, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + int64(g)))
			src := scriptQueries[g%len(scriptQueries)]
			remote, _, err := c.NewSession(ctx, "traffic", src, client.Options{})
			if err != nil {
				errs[g] = err
				return
			}
			defer remote.Close(ctx)
			// The mirror is fully isolated (private cache only): identity
			// proves the shared serving path never leaks between
			// sessions.
			mirror, err := session.NewSQL(cc.Catalog, nil, testGrid, src)
			if err != nil {
				errs[g] = err
				return
			}
			if err := compareRemote(ctx, fmt.Sprintf("client %d initial", g), remote, mirror, cc.Catalog, false); err != nil {
				errs[g] = err
				return
			}
			for step := 0; step < steps; step++ {
				label, err := scriptStep(ctx, rng, step, remote, mirror)
				if err != nil {
					errs[g] = err
					return
				}
				if err := compareRemote(ctx, fmt.Sprintf("client %d %s", g, label), remote, mirror, cc.Catalog, false); err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", g, err)
		}
	}
	// A warm client on the busiest query warm-starts off the shared
	// tier, visible in the wire timings.
	_, sum, err := c.NewSession(ctx, "traffic", scriptQueries[0], client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Timings.SharedHits == 0 {
		t.Fatalf("warm client saw no shared hits: %+v", sum.Timings)
	}
	stats, err := c.ShardStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var hits uint64
	for _, st := range stats {
		hits += st.Shared.Hits
	}
	if hits == 0 {
		t.Fatal("shard stats report no shared-tier hits")
	}
}

// TestRoutingDeterministic: catalogs home on ShardOf(name), session
// IDs embed the shard, and both the catalogs listing and session
// creation agree on the placement.
func TestRoutingDeterministic(t *testing.T) {
	const shards = 5
	names := []string{"alpha", "beta", "gamma"}
	var ccs []CatalogConfig
	for i, name := range names {
		ccs = append(ccs, trafficConfig(t, name, 300, int64(i)))
	}
	_, c := newTestServer(t, shards, ccs...)
	ctx := context.Background()

	infos, err := c.Catalogs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(names) {
		t.Fatalf("%d catalogs listed, want %d", len(infos), len(names))
	}
	for _, info := range infos {
		if want := ShardOf(info.Name, shards); info.Shard != want {
			t.Fatalf("catalog %q on shard %d, want %d", info.Name, info.Shard, want)
		}
	}
	for _, name := range names {
		s, _, err := c.NewSession(ctx, name, `SELECT a FROM S WHERE a > 50`, client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want := ShardOf(name, shards); s.Shard != want {
			t.Fatalf("session on %q routed to shard %d, want %d", name, s.Shard, want)
		}
		if err := s.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// TestProtocolErrors: the protocol's failure modes map to the right
// status codes and never wedge a session.
func TestProtocolErrors(t *testing.T) {
	cc := trafficConfig(t, "traffic", 200, 3)
	_, c := newTestServer(t, 2, cc)
	ctx := context.Background()

	wantStatus := func(err error, code int, label string) {
		t.Helper()
		var apiErr *client.APIError
		if err == nil {
			t.Fatalf("%s: no error", label)
		}
		var ok bool
		if apiErr, ok = err.(*client.APIError); !ok {
			t.Fatalf("%s: %v is not an APIError", label, err)
		}
		if apiErr.Status != code {
			t.Fatalf("%s: status %d, want %d (%s)", label, apiErr.Status, code, apiErr.Msg)
		}
	}

	_, _, err := c.NewSession(ctx, "nope", `SELECT a FROM S WHERE a > 1`, client.Options{})
	wantStatus(err, 404, "unknown catalog")
	_, _, err = c.NewSession(ctx, "traffic", `SELECT FROM WHERE`, client.Options{})
	wantStatus(err, 400, "parse error")
	_, _, err = c.NewSession(ctx, "traffic", `SELECT z FROM S WHERE z > 1`, client.Options{})
	wantStatus(err, 400, "bind error")

	s, _, err := c.NewSession(ctx, "traffic", `SELECT a FROM S WHERE a > 50 AND b < 40`, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.SetRange(ctx, "zzz", 1, 2)
	wantStatus(err, 400, "range on unknown attribute")
	_, err = s.SetRange(ctx, "a", 9, 2)
	wantStatus(err, 400, "inverted range")
	_, err = s.SetWeight(ctx, 99, 2)
	wantStatus(err, 400, "weight index out of range")
	_, err = s.SetWeight(ctx, 0, -1)
	wantStatus(err, 400, "negative weight")
	_, err = s.Undo(ctx)
	wantStatus(err, 409, "undo with empty history")
	_, err = s.SetQuery(ctx, `SELECT FROM`)
	wantStatus(err, 400, "bad replacement query")

	// The session still works after every rejected request.
	if _, err := s.SetRange(ctx, "a", 10, 60); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Undo(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent: the server's 404 session_not_found on the
	// second DELETE says the session is gone, which is what Close asks.
	if err := s.Close(ctx); err != nil {
		t.Fatalf("double close: %v", err)
	}
	_, err = s.Results(ctx, 5)
	wantStatus(err, 404, "results after close")
}

// TestSessionCapSheds: a shard at its session limit answers 503 on
// creation — before paying the initial recalculation — and frees
// capacity again when a session closes.
func TestSessionCapSheds(t *testing.T) {
	cc := trafficConfig(t, "traffic", 200, 5)
	srv, err := New(Config{
		Shards:              1,
		Catalogs:            []CatalogConfig{cc},
		DefaultOptions:      testGrid,
		MaxSessionsPerShard: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := client.New(ts.URL)
	c.Retry.MaxAttempts = 1 // failures surface as they are answered
	ctx := context.Background()

	var open []*client.Session
	for i := 0; i < 2; i++ {
		s, _, err := c.NewSession(ctx, "traffic", scriptQueries[0], client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, s)
	}
	_, _, err = c.NewSession(ctx, "traffic", scriptQueries[0], client.Options{})
	apiErr, ok := err.(*client.APIError)
	if !ok || apiErr.Status != 503 {
		t.Fatalf("over-cap creation: got %v, want 503", err)
	}
	// Existing sessions keep working at the cap.
	if _, err := open[0].SetWeight(ctx, 0, 2); err != nil {
		t.Fatal(err)
	}
	// Closing one frees a slot.
	if err := open[1].Close(ctx); err != nil {
		t.Fatal(err)
	}
	s, _, err := c.NewSession(ctx, "traffic", scriptQueries[0], client.Options{})
	if err != nil {
		t.Fatalf("creation after close: %v", err)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := open[0].Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestGridClamp: client-supplied grid dimensions are clamped so one
// request cannot size the server's allocations arbitrarily.
func TestGridClamp(t *testing.T) {
	cc := trafficConfig(t, "traffic", 100, 6)
	_, c := newTestServer(t, 1, cc)
	ctx := context.Background()
	s, sum, err := c.NewSession(ctx, "traffic", scriptQueries[0],
		client.Options{GridW: 1 << 30, GridH: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(ctx)
	// 100 rows all fit any clamped grid; the point is that the request
	// succeeded without a grid^2 allocation (the clamp kept it at
	// maxGridSide per side).
	if sum.Displayed > 100 {
		t.Fatalf("displayed %d from 100 rows", sum.Displayed)
	}
}

// TestFullSortKeyIsIgnored: the wire has no full-sort option, because
// the displayed prefix is the same under a full sort. A create request
// that still carries "full_sort": true succeeds and serves the rows a
// request without it serves.
func TestFullSortKeyIsIgnored(t *testing.T) {
	srv, err := New(Config{Shards: 1, DefaultOptions: testGrid, Catalogs: []CatalogConfig{trafficConfig(t, "traffic", 3000, 8)}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	rows := func(options string) wire.ResultsResponse {
		body := fmt.Sprintf(`{"catalog":"traffic","query":%q,"options":{"grid_w":16,"grid_h":16%s}}`, scriptQueries[2], options)
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info wire.SessionInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("create with options %q: http %d, %v", options, resp.StatusCode, err)
		}
		_, raw := rawResults(t, ts.URL, info.ID, "", "")
		var res wire.ResultsResponse
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := rows("")
	if len(want.Rows) == 0 {
		t.Fatal("no rows")
	}
	got := rows(`,"full_sort":true`)
	got.Summary.Timings, want.Summary.Timings = wire.Timings{}, wire.Timings{}
	sameRows(t, "create", "full_sort session", got, want)
}

// TestDiskCatalogReplayMatchesInMemory is the file-backed serving
// property: a server hosting the traffic catalog from an on-disk
// segment file — under a decoded-segment cache squeezed far below the
// catalog size — replays a randomized interaction script bitwise
// identically to fresh in-process engines over the same data in memory.
func TestDiskCatalogReplayMatchesInMemory(t *testing.T) {
	mem, err := datagen.Traffic(1500, 42)
	if err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(t.TempDir(), "traffic.visdb")
	if _, err := dataset.WriteCatalogFile(segPath, mem); err != nil {
		t.Fatal(err)
	}
	disk, err := dataset.OpenCatalogFile(segPath, dataset.OpenOptions{
		CacheBytes: 1, // one resident segment: every read pages
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	_, c := newTestServer(t, 2, CatalogConfig{Name: "traffic", Catalog: disk})
	ctx := context.Background()
	remote, sum, err := c.NewSession(ctx, "traffic", scriptQueries[2], client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.N != 1500 {
		t.Fatalf("initial N = %d", sum.N)
	}
	// The mirror runs on the in-memory catalog: every comparison
	// crosses the memory/disk boundary.
	mirror, err := session.NewSQL(mem, nil, testGrid, scriptQueries[2])
	if err != nil {
		t.Fatal(err)
	}
	if err := compareRemote(ctx, "initial", remote, mirror, mem, true); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1994))
	for step := 0; step < 25; step++ {
		label, err := scriptStep(ctx, rng, step, remote, mirror)
		if err != nil {
			t.Fatal(err)
		}
		if err := compareRemote(ctx, label, remote, mirror, mem, step%7 == 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := remote.Close(ctx); err != nil {
		t.Fatal(err)
	}
}
