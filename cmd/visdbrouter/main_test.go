package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/router"
	"repro/internal/server"
	"repro/visdb/client"
)

// newLocalServer serves h on an ephemeral port for the test's
// lifetime and returns its base URL.
func newLocalServer(t *testing.T, h http.Handler) string {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestRouterDaemonSmoke stands up a miniature fleet — two visdbd-
// equivalent members plus the router daemon — and drives a session
// through the router end to end: create routes by catalog shard,
// edits route by session ID, /v1/fleet aggregates, and the SIGTERM
// path exits cleanly. (The full 3-node fleet with kv tier, replay
// identity and node kills lives in internal/router's harness tests;
// this is the daemon lifecycle.)
func TestRouterDaemonSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Two members serving the identical catalog set (the fleet
	// invariant), as in-process HTTP servers.
	const shards = 4
	memberURLs := make([]string, 2)
	for i := range memberURLs {
		cat, err := datagen.Traffic(800, 7)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Config{
			Shards: shards,
			Catalogs: []server.CatalogConfig{
				{Name: "traffic", Catalog: cat},
			},
			DefaultOptions: core.Options{GridW: 16, GridH: 16},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := newLocalServer(t, srv)
		memberURLs[i] = ts
	}

	cfg := config{
		addr:           "127.0.0.1:0",
		shards:         shards,
		members:        fmt.Sprintf("a=%s,b=%s", memberURLs[0], memberURLs[1]),
		healthInterval: 100 * time.Millisecond,
		failAfter:      1,
		drainTimeout:   time.Second,
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
	if sum.N != 800 || s.Shard != server.ShardOf("traffic", shards) {
		t.Fatalf("created: n=%d shard=%d", sum.N, s.Shard)
	}
	if _, err := s.SetWeight(rctx, 0, 2); err != nil {
		t.Fatal(err)
	}
	res, err := s.Results(rctx, 3)
	if err != nil || len(res.Rows) != 3 {
		t.Fatalf("results: %d rows, err %v", len(res.Rows), err)
	}
	fleet, err := c.Fleet(rctx)
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Shards != shards || len(fleet.Members) != 2 {
		t.Fatalf("fleet: %+v", fleet)
	}
	covered := 0
	for _, m := range fleet.Members {
		if !m.Healthy {
			t.Fatalf("member %q unhealthy: %+v", m.Name, fleet)
		}
		covered += len(m.Shards)
	}
	if covered != shards {
		t.Fatalf("placement covers %d/%d shards", covered, shards)
	}
	if fleet.Sessions != 1 {
		t.Fatalf("fleet sessions: %d", fleet.Sessions)
	}
	if err := s.Close(rctx); err != nil {
		t.Fatal(err)
	}

	// Bad member specs fail startup loudly.
	if err := run(context.Background(), config{addr: "127.0.0.1:0", members: "nonsense"}, nil); err == nil {
		t.Fatal("bad -members did not fail startup")
	}

	cancel() // SIGTERM path
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit")
	}
}

// TestConfigValidation pins the startup floors and the member-spec
// hardening: degenerate flag values and ambiguous fleets must fail
// before the router takes traffic.
func TestConfigValidation(t *testing.T) {
	bad := []config{
		{healthInterval: 2 * time.Millisecond},                              // probe storm
		{probeTimeout: time.Millisecond},                                    // probes can't finish
		{healthInterval: 100 * time.Millisecond, probeTimeout: time.Second}, // overlapping rounds
		{failAfter: -1},                        // nonsensical hysteresis
		{drainTimeout: 100 * time.Millisecond}, // drains can't finish
	}
	for i, cfg := range bad {
		if err := cfg.validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	good := []config{
		{}, // zero = flags not set; run() applies library defaults
		{healthInterval: time.Second, probeTimeout: 500 * time.Millisecond, drainTimeout: 30 * time.Second},
	}
	for i, cfg := range good {
		if err := cfg.validate(); err != nil {
			t.Errorf("good config %d rejected: %v", i, err)
		}
	}

	specs := []string{
		"a=http://n1,a=http://n2", // duplicate name
		"a=http://n1,b=http://n1", // duplicate URL
		"a=,b=http://n2",          // empty URL
		"=http://n1",              // empty name
		" , ,",                    // nothing at all
	}
	for _, spec := range specs {
		ms, err := parseMembers(spec)
		if err == nil {
			_, err = router.New(router.Config{Members: ms})
		}
		if err == nil {
			t.Errorf("member spec %q accepted", spec)
		}
	}
	if ms, err := parseMembers(" a=http://n1, b=http://n2 "); err != nil || len(ms) != 2 {
		t.Errorf("valid spec rejected: %v %v", ms, err)
	}
}
