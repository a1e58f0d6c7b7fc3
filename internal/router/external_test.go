package router

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/session"
	"repro/visdb/client"
)

// TestExternalFleetReplay replays randomized interaction scripts
// against a REAL fleet — visdbrouter + visdbd processes + a visdbkv
// store, reached over plain HTTP — and asserts every step bitwise
// identical to fresh in-process engines over the same catalog data.
// It is the over-the-wire half of TestFleetReplayMatchesInProcess,
// driven by the CI fleet e2e step; without the environment it skips.
//
//	VISDB_FLEET_URL      router base URL (required)
//	VISDB_FLEET_SEG      path to the segment catalog every member serves
//	                     (unset: the members serve datagen.Traffic(rows, 1994)
//	                     with VISDB_FLEET_ROWS rows, default 2000)
//	VISDB_FLEET_CATALOGS catalog names to drive, comma-free count
//	                     (default 3: r0 r1 r2)
func TestExternalFleetReplay(t *testing.T) {
	base := os.Getenv("VISDB_FLEET_URL")
	if base == "" {
		t.Skip("VISDB_FLEET_URL not set; this runs in the CI fleet e2e step")
	}
	var cat *dataset.Catalog
	var err error
	if seg := os.Getenv("VISDB_FLEET_SEG"); seg != "" {
		cat, err = dataset.OpenCatalogFile(seg, dataset.OpenOptions{})
		if err != nil {
			t.Fatalf("open %s: %v", seg, err)
		}
		defer cat.Close()
	} else {
		rows := 2000
		if v := os.Getenv("VISDB_FLEET_ROWS"); v != "" {
			fmt.Sscanf(v, "%d", &rows)
		}
		if cat, err = datagen.Traffic(rows, 1994); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	c := client.New(base)
	c.Retry = client.RetryPolicy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond}

	queries := datagen.TrafficQueries()
	const perCatalog, steps = 2, 6
	cats := 3
	for i := 0; i < cats; i++ {
		for k := 0; k < perCatalog; k++ {
			g := i*perCatalog + k
			catName := fmt.Sprintf("r%d", i)
			src := queries[g%len(queries)]
			rng := rand.New(rand.NewSource(500 + int64(g)))
			remote, _, err := c.NewSession(ctx, catName, src, client.Options{})
			if err != nil {
				t.Fatalf("session %d (%s): %v", g, catName, err)
			}
			mirror, err := session.NewSQL(cat, nil, fleetGrid, src)
			if err != nil {
				t.Fatal(err)
			}
			if err := compareFleet(ctx, fmt.Sprintf("session %d initial", g), remote, mirror, cat); err != nil {
				t.Fatal(err)
			}
			for step := 0; step < steps; step++ {
				op, ok := randomOp(rng, mirror, queries)
				if !ok {
					continue
				}
				if err := op.applyRemote(ctx, remote); err != nil {
					t.Fatalf("session %d step %d remote %s: %v", g, step, op.kind, err)
				}
				if err := op.applyMirror(mirror); err != nil {
					t.Fatalf("session %d step %d mirror %s: %v", g, step, op.kind, err)
				}
				if err := compareFleet(ctx, fmt.Sprintf("session %d step %d %s", g, step, op.kind), remote, mirror, cat); err != nil {
					t.Fatal(err)
				}
			}
			if err := remote.Close(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The fleet must be whole and sharing: every member healthy, work
	// carried between nodes through the kv tier.
	fleet, err := c.Fleet(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range fleet.Members {
		if !m.Healthy {
			t.Fatalf("member %q unhealthy: %+v", m.Name, fleet.Members)
		}
	}
	if len(fleet.Members) < 3 {
		t.Fatalf("fleet has %d members, want >= 3", len(fleet.Members))
	}
	if fleet.SharedHitRate <= 0 {
		t.Fatalf("fleet shared nothing: %+v", fleet.Shared)
	}
	if fleet.Shared.RemoteHits == 0 || fleet.KV.Entries == 0 {
		t.Fatalf("kv tier idle: shared %+v kv %+v", fleet.Shared, fleet.KV)
	}
	t.Logf("external fleet: %d members, %d recalcs, shared-hit rate %.3f, remote hits %d, kv entries %d",
		len(fleet.Members), fleet.Recalcs, fleet.SharedHitRate, fleet.Shared.RemoteHits, fleet.KV.Entries)
}
