package server

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/visdb/client"
)

// TestAdmissionOverWire: a server in its default configuration shares
// the cheap numeric leaves of a tiny catalog like any others — recency
// is the tier's only residency rule, there is no cost threshold a leaf
// must reach. A second session on the query takes its leaves from the
// tier, and an undo of a range drag recomputes nothing.
func TestAdmissionOverWire(t *testing.T) {
	ctx := context.Background()
	srv, err := New(Config{
		Shards:         2,
		Catalogs:       []CatalogConfig{trafficConfig(t, "traffic", 500, 11)},
		DefaultOptions: testGrid,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c := client.New(ts.URL)
	const sql = `SELECT a FROM S WHERE a > 50 AND b < 40`
	first, _, err := c.NewSession(ctx, "traffic", sql, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Close(ctx); err != nil {
		t.Fatal(err)
	}
	s, sum, err := c.NewSession(ctx, "traffic", sql, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tm := sum.Timings; tm.SharedHits == 0 || tm.CacheMisses != 0 {
		t.Fatalf("the second session recomputed what the first left: %+v", tm)
	}
	if _, err := s.SetRange(ctx, "a", 30, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	sum, err = s.Undo(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if tm := sum.Timings; tm.CacheMisses != 0 {
		t.Fatalf("undo recomputed a leaf the drag left in the tier: %+v", tm)
	}
	stats, err := c.ShardStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stats {
		if st.Shared.Rejects != 0 {
			t.Fatalf("shard %d reports %d rejects; nothing rejects", st.Shard, st.Shared.Rejects)
		}
	}
}

// drainCatalog builds a catalog whose edit-distance leaves make a
// recalculation take real wall-clock time, so shutdown observably
// overlaps an in-flight recalculation.
func drainCatalog(t testing.TB, n int) *dataset.Catalog {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	tbl, err := dataset.NewTable("P", dataset.Schema{
		{Name: "name", Kind: dataset.KindString},
		{Name: "age", Kind: dataset.KindInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"miller", "smith", "meier", "schmidt", "maier", "mueller", "smythe", "schmitt"}
	for i := 0; i < n; i++ {
		if err := tbl.AppendRow(
			dataset.Str(names[rng.Intn(len(names))]),
			dataset.Int(int64(18+rng.Intn(60))),
		); err != nil {
			t.Fatal(err)
		}
	}
	cat := dataset.NewCatalog()
	if err := cat.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestShutdownDrainsInFlight: http.Server.Shutdown must wait for an
// in-flight recalculation (an edit request mid-recompute) to complete
// and answer before the server exits — the daemon's graceful-drain
// contract.
func TestShutdownDrainsInFlight(t *testing.T) {
	srv, err := New(Config{
		Shards: 1,
		Catalogs: []CatalogConfig{{
			Name:    "people",
			Catalog: drainCatalog(t, 120_000),
		}},
		DefaultOptions: testGrid,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(l) }()

	ctx := context.Background()
	c := client.New("http://" + l.Addr().String())
	s, _, err := c.NewSession(ctx, "people", `SELECT name FROM P WHERE name = 'meyer' USING edit AND age BETWEEN 30 AND 40`, client.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Fire a query replacement whose recalculation computes a FRESH
	// edit-distance leaf over the whole table (the 'smith' predicate
	// was never run, so nothing serves it from a cache) — a recompute
	// long enough that shutdown reliably overlaps it.
	editDone := make(chan error, 1)
	go func() {
		_, err := s.SetQuery(ctx, `SELECT name FROM P WHERE name = 'smith' USING edit AND age BETWEEN 20 AND 50`)
		editDone <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	overlapped := true
	for srv.InFlight() == 0 && time.Now().Before(deadline) {
		select {
		case err := <-editDone:
			// The edit outran the poll (a very fast machine): the drain
			// assertion below is then vacuous but the contract holds.
			if err != nil {
				t.Fatalf("edit failed: %v", err)
			}
			editDone <- nil
			overlapped = false
		default:
		}
		if !overlapped {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if overlapped && srv.InFlight() == 0 {
		t.Fatal("edit request never became visible in flight")
	}

	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	if !overlapped {
		t.Log("edit completed before shutdown began; drain overlap not exercised this run")
	}
	// The in-flight edit was not cut off: it completes successfully
	// (the server finished the recalculation and wrote the response
	// before draining; only the client-side decode may still be
	// running when Shutdown returns).
	select {
	case err := <-editDone:
		if err != nil {
			t.Fatalf("in-flight edit failed during drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight edit never completed after drain")
	}
	if n := srv.InFlight(); n != 0 {
		t.Fatalf("%d requests in flight after drain", n)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("serve loop: %v", err)
	}
}

// BenchmarkServerThroughput measures the serving overhead of the HTTP
// layer: one warm remote session per client goroutine dragging a
// weight slider in a tight loop (the cheapest full recalculation),
// against an in-memory listener. Compare with BenchmarkReweight/warm
// for the in-process cost of the same interaction.
func BenchmarkServerThroughput(b *testing.B) {
	cc := trafficConfig(b, "traffic", 50_000, 1994)
	_, c := newTestServer(b, 2, cc)
	ctx := context.Background()
	s, _, err := c.NewSession(ctx, "traffic", `SELECT a FROM S WHERE a > 50 AND b < 40`, client.Options{GridW: 64, GridH: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close(ctx)
	weights := []float64{0.5, 1, 2, 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SetWeight(ctx, 0, weights[i%len(weights)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	sum, err := s.Timings(ctx)
	if err != nil {
		b.Fatal(err)
	}
	if sum.Recalcs == 0 {
		b.Fatal("no recalculations happened")
	}
	_ = fmt.Sprintf("%d", sum.Recalcs)
}
