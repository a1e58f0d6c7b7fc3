package main

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/visdb/client"
)

// TestDaemonSmoke drives one full daemon lifecycle in-process: start
// on an ephemeral port, run a scripted session through the typed
// client (create, drag, weight, undo, results, timings, close), then
// cancel the context — the SIGTERM path — and assert a clean, drained
// exit.
func TestDaemonSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := config{
		addr:         "127.0.0.1:0",
		shards:       2,
		catalogs:     "traffic:3000",
		seed:         7,
		gridW:        16,
		gridH:        16,
		drainTimeout: 10 * time.Second,
	}
	addrc := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg, func(addr string) { addrc <- addr }) }()

	var addr string
	select {
	case addr = <-addrc:
	case err := <-done:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}

	c := client.New("http://" + addr)
	rctx, rcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer rcancel()

	s, sum, err := c.NewSession(rctx, "traffic", `SELECT a FROM S WHERE a > 50 AND b < 40`, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.N != 3000 || sum.Displayed == 0 {
		t.Fatalf("initial summary n=%d displayed=%d", sum.N, sum.Displayed)
	}
	if sum, err = s.SetRange(rctx, "a", 30, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if sum.Recalcs != 2 {
		t.Fatalf("after drag: recalcs=%d", sum.Recalcs)
	}
	if _, err = s.SetWeight(rctx, 0, 2.5); err != nil {
		t.Fatal(err)
	}
	if sum, err = s.Undo(rctx); err != nil {
		t.Fatal(err)
	}
	res, err := s.Results(rctx, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("results rows = %d, want 5", len(res.Rows))
	}
	for _, row := range res.Rows {
		if math.IsNaN(row.Distance) || row.Relevance <= 0 || row.Relevance > 1 {
			t.Fatalf("bad row %+v", row)
		}
	}
	if _, err := s.Timings(rctx); err != nil {
		t.Fatal(err)
	}
	// A second session on the same catalog warm-starts off the shared
	// tier: cross-process reuse visible over the wire.
	s2, sum2, err := c.NewSession(rctx, "traffic", `SELECT a FROM S WHERE a > 50 AND b < 40`, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Timings.SharedHits == 0 {
		t.Fatalf("warm session saw no shared hits: %+v", sum2.Timings)
	}
	if err := s2.Close(rctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(rctx); err != nil {
		t.Fatal(err)
	}
	stats, err := c.ShardStats(rctx)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, st := range stats {
		total += int(st.SessionsCreated)
	}
	if total != 2 {
		t.Fatalf("sessions created = %d, want 2", total)
	}
	// The health self-report the fleet router polls: per-shard session
	// counts (all zero — both sessions closed), uptime, no quarantine.
	h, err := c.Health(rctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.UptimeNS <= 0 {
		t.Fatalf("health: %+v", h)
	}
	if h.Sessions != 0 || len(h.Shards) != 2 || len(h.Quarantined) != 0 {
		t.Fatalf("health after close: %+v", h)
	}

	cancel() // SIGTERM path
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain and exit")
	}
}

// TestDaemonDiskCatalog: a -catalogs entry naming a segment-file path
// serves that catalog from disk — sessions answer over it, shard stats
// report the interior tier, and a bad path fails startup loudly.
func TestDaemonDiskCatalog(t *testing.T) {
	mem, err := datagen.Traffic(3000, 7)
	if err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(t.TempDir(), "traffic.visdb")
	if _, err := dataset.WriteCatalogFile(segPath, mem); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := config{
		addr:         "127.0.0.1:0",
		shards:       2,
		catalogs:     "disk:" + segPath + ",synth:500",
		seed:         7,
		gridW:        16,
		gridH:        16,
		catCacheMB:   1,
		drainTimeout: 10 * time.Second,
	}
	addrc := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg, func(addr string) { addrc <- addr }) }()
	var addr string
	select {
	case addr = <-addrc:
	case err := <-done:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}

	c := client.New("http://" + addr)
	rctx, rcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer rcancel()
	s, sum, err := c.NewSession(rctx, "disk",
		`SELECT a FROM S WHERE a > 50 AND b < 40 OR c BETWEEN 20 AND 30 WEIGHT 2`, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.N != 3000 || sum.Displayed == 0 {
		t.Fatalf("initial summary n=%d displayed=%d", sum.N, sum.Displayed)
	}
	// A weight drag OUTSIDE the AND subtree leaves the subtree's cached
	// interior entry valid: the warm rerun takes the interior fast path
	// over the file-backed catalog.
	if sum, err = s.SetWeight(rctx, 1, 2.5); err != nil {
		t.Fatal(err)
	}
	if sum.Timings.SketchHits == 0 {
		t.Fatalf("warm rerun on the disk catalog took no sketch hits: %+v", sum.Timings)
	}
	if err := s.Close(rctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain and exit")
	}

	// Startup must fail loudly on a dangling path.
	bad := cfg
	bad.catalogs = "oops:" + filepath.Join(t.TempDir(), "missing.visdb")
	if err := run(context.Background(), bad, nil); err == nil {
		t.Fatal("dangling catalog path did not fail startup")
	}
}

// TestDaemonRefusesEarlierLayouts: a -catalogs path to a file in a
// layout the reader does not read fails startup — the daemon exits
// non-zero with the refusal, which names the layout and the fix — and
// is not quarantined as corruption.
func TestDaemonRefusesEarlierLayouts(t *testing.T) {
	mem, err := datagen.Traffic(500, 7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "traffic.visdb")
	if _, err := dataset.WriteCatalogFile(path, mem); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, head := range []string{"VSEGCAT1", "VSEGCAT2"} {
		if err := os.WriteFile(path, append([]byte(head), data[len(head):]...), 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := config{
			addr:         "127.0.0.1:0",
			shards:       2,
			catalogs:     "old:" + path + ",synth:500",
			gridW:        16,
			gridH:        16,
			drainTimeout: 10 * time.Second,
		}
		err := run(context.Background(), cfg, nil)
		if err == nil || errors.Is(err, dataset.ErrCorruptSegment) ||
			!strings.Contains(err.Error(), head) || !strings.Contains(err.Error(), "visdbgen -format seg") {
			t.Fatalf("%s: startup error %v, want the layout refusal", head, err)
		}
	}
}
