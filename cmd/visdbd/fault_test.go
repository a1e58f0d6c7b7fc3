package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/wire"
	"repro/visdb/client"
)

// writeFlippedCatalog writes a synthetic catalog to a segment file and
// XORs one byte at off (negative offsets count from the end).
func writeFlippedCatalog(t *testing.T, dir string, off int) string {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	mem, err := datagen.Traffic(2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "flipped.visdb")
	if _, err := dataset.WriteCatalogFile(path, mem); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += len(raw)
	}
	raw[off] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDaemonQuarantinesCorruptCatalog is the daemon-level acceptance
// check the CI corruption step drives: a bit-flipped segment catalog
// is refused — quarantined with a typed corruption error, answering
// 503 catalog_quarantined — while a healthy catalog on the same
// daemon keeps serving. Two flip sites cover both failure times: a
// footer flip fails verification at load, a mid-blob flip passes load
// and trips the per-segment checksum on first decode.
func TestDaemonQuarantinesCorruptCatalog(t *testing.T) {
	dir := t.TempDir()
	footerFlip := writeFlippedCatalog(t, filepath.Join(dir, "f"), -10)
	blobFlip := writeFlippedCatalog(t, filepath.Join(dir, "b"), 1<<10)

	// The footer flip must be a load-time ErrCorruptSegment.
	if _, err := dataset.OpenCatalogFile(footerFlip, dataset.OpenOptions{}); !errors.Is(err, dataset.ErrCorruptSegment) {
		t.Fatalf("footer flip: want ErrCorruptSegment, got %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := config{
		addr:           "127.0.0.1:0",
		shards:         2,
		catalogs:       "loadbad:" + footerFlip + ",decodebad:" + blobFlip + ",good:800",
		seed:           7,
		gridW:          16,
		gridH:          16,
		drainTimeout:   10 * time.Second,
		requestTimeout: 30 * time.Second,
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
	c.Retry.MaxAttempts = 1 // failures surface as they are answered
	rctx, rcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer rcancel()

	const query = `SELECT a FROM S WHERE a > 50 AND b < 40`
	for _, name := range []string{"loadbad", "decodebad"} {
		_, _, err := c.NewSession(rctx, name, query, client.Options{})
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Status != 503 || ae.Code != wire.CodeCatalogQuarantined {
			t.Fatalf("%s: want 503/%s, got %v", name, wire.CodeCatalogQuarantined, err)
		}
	}
	// The healthy catalog on the same daemon serves through it all.
	s, sum, err := c.NewSession(rctx, "good", query, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.N != 800 {
		t.Fatalf("good catalog N = %d", sum.N)
	}
	if _, err := s.SetWeight(rctx, 0, 2); err != nil {
		t.Fatal(err)
	}
	// The listing reports both quarantines.
	infos, err := c.Catalogs(rctx)
	if err != nil {
		t.Fatal(err)
	}
	q := map[string]bool{}
	for _, info := range infos {
		q[info.Name] = info.Quarantined
	}
	if !q["loadbad"] || !q["decodebad"] || q["good"] {
		t.Fatalf("quarantine flags: %v", q)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never drained")
	}
}

// TestDaemonFlagValidation: degenerate flag values fail startup with
// errors naming the flag, and duplicate catalog names are rejected
// before any data loads.
func TestDaemonFlagValidation(t *testing.T) {
	base := config{
		addr:         "127.0.0.1:0",
		shards:       1,
		catalogs:     "traffic:100",
		seed:         1,
		gridW:        8,
		gridH:        8,
		drainTimeout: 5 * time.Second,
	}
	cases := []struct {
		name string
		mut  func(c *config)
		want string
	}{
		{"drain too small", func(c *config) { c.drainTimeout = 10 * time.Millisecond }, "-drain-timeout"},
		{"ttl too small", func(c *config) { c.sessionTTL = 5 * time.Millisecond }, "-session-ttl"},
		{"request timeout too small", func(c *config) { c.requestTimeout = time.Millisecond }, "-request-timeout"},
		{"negative catalog cache", func(c *config) { c.catCacheMB = -1 }, "-catalog-cache-mb"},
		{"zero grid", func(c *config) { c.gridW = 0 }, "-gridw"},
		{"duplicate catalogs", func(c *config) { c.catalogs = "a:100,a:200" }, "duplicate catalog"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			err := run(context.Background(), cfg, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want startup error mentioning %q, got %v", tc.want, err)
			}
		})
	}
}
