package server

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/query"
	"repro/internal/session"
	"repro/visdb/client"
)

// TestWarmRemoteRerunsReportPruning: warm weight-only reruns on a
// saturated selection must leave root chunks without a refined row —
// and the pruning attribution must travel the wire
// (Summary.Timings.Pruned) so operators can see the rank-before-scale
// path working. The results stay bit-identical to a fresh in-process
// engine throughout.
func TestWarmRemoteRerunsReportPruning(t *testing.T) {
	ctx := context.Background()
	const rows = 65536
	cfg := trafficConfig(t, "prune", rows, 5)
	_, cl := newTestServer(t, 1, cfg)

	// `a >= 0` holds everywhere, so every combined OR distance is an
	// exact zero, which the leaves' codes prove: the cut falls at the
	// display budget and no chunk past it holds a survivor.
	sql := `SELECT a FROM S WHERE a >= 0 OR b < 40`
	remote, sum, err := cl.NewSession(ctx, "prune", sql, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close(ctx)
	if sum.Timings.Chunks == 0 {
		t.Fatalf("initial run reports no evaluator chunks: %+v", sum.Timings)
	}
	mirror, err := session.NewSQL(cfg.Catalog, nil, testGrid, sql)
	if err != nil {
		t.Fatal(err)
	}
	prunedWarm := 0
	for i := 0; i < 3; i++ {
		w := float64(2 + i%2)
		wsum, err := remote.SetWeight(ctx, 0, w)
		if err != nil {
			t.Fatal(err)
		}
		if err := mirror.SetWeight(query.Predicates(mirror.Query().Where)[0], w); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			// Run 1 filled the leaves and their code planes; later reruns
			// must prune.
			prunedWarm += wsum.Timings.Pruned
		}
		if wsum.Timings.Pruned > wsum.Timings.Chunks {
			t.Fatalf("pruned %d of %d chunks?", wsum.Timings.Pruned, wsum.Timings.Chunks)
		}
		if err := compareRemote(ctx, "warm rerun", remote, mirror, cfg.Catalog, false); err != nil {
			t.Fatal(err)
		}
	}
	if prunedWarm == 0 {
		t.Fatal("warm remote reruns never reported pruned chunks")
	}
	// The timings endpoint reports the same counters.
	tm, err := remote.Timings(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Timings.Chunks == 0 {
		t.Fatalf("timings endpoint lost the chunk counters: %+v", tm.Timings)
	}
	// ... and names the root's combine pass as a part of the selection.
	if tm.Timings.RootCombineNS <= 0 || tm.Timings.RootCombineNS > tm.Timings.SelectNS {
		t.Fatalf("root_combine_ns %d outside (0, select_ns %d]", tm.Timings.RootCombineNS, tm.Timings.SelectNS)
	}
}

// TestIdleSessionTTLSweep: sessions idle past the TTL are reaped —
// freeing their pooled buffers and their slot under the per-shard
// cap — while recently-touched sessions survive. The sweep cutoff is
// driven explicitly, so the test never sleeps.
func TestIdleSessionTTLSweep(t *testing.T) {
	ctx := context.Background()
	cfg := trafficConfig(t, "ttl", 2000, 6)
	srv, err := New(Config{
		Shards:         1,
		Catalogs:       []CatalogConfig{cfg},
		DefaultOptions: testGrid,
		SessionTTL:     time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	cl := client.New(ts.URL)

	sql := `SELECT a FROM S WHERE a > 50 AND b < 40`
	idle, _, err := cl.NewSession(ctx, "ttl", sql, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	live, _, err := cl.NewSession(ctx, "ttl", sql, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Everything before t0 counts as idle for a sweep at t0+TTL; the
	// live session is touched after t0 and must survive.
	t0 := time.Now()
	if _, err := live.Timings(ctx); err != nil {
		t.Fatal(err)
	}
	if reaped := srv.SweepIdleSessions(t0.Add(time.Hour)); reaped != 1 {
		t.Fatalf("sweep reaped %d sessions, want 1", reaped)
	}
	if _, err := live.Timings(ctx); err != nil {
		t.Fatalf("live session was reaped: %v", err)
	}
	if _, err := idle.Timings(ctx); err == nil {
		t.Fatal("idle session still answers after the sweep")
	}
	st := srv.shards[0].stats()
	if st.SessionsReaped != 1 || st.Sessions != 1 {
		t.Fatalf("shard stats after sweep: %+v", st)
	}
	// A disabled TTL never reaps.
	srvOff, err := New(Config{Shards: 1, Catalogs: []CatalogConfig{trafficConfig(t, "ttl", 2000, 6)}, DefaultOptions: testGrid})
	if err != nil {
		t.Fatal(err)
	}
	if reaped := srvOff.SweepIdleSessions(time.Now().Add(240 * time.Hour)); reaped != 0 {
		t.Fatalf("disabled TTL reaped %d sessions", reaped)
	}
}
