// Command visdbd is the VisDB serving daemon: it hosts catalogs
// behind the HTTP/JSON interaction protocol of internal/server, so
// remote clients (visdb/client, or anything speaking JSON) drive
// visual feedback sessions against shared catalogs — the
// cross-process serving shape of the scaling roadmap.
//
// Usage:
//
//	visdbd -addr :8491 -catalogs traffic:200000
//	visdbd -addr :8491 -shards 8 -catalogs "a:100000,b:50000" -cache-mb 512
//
// Each entry of -catalogs is name:source. A numeric source (name:rows)
// serves a deterministic synthetic catalog (datagen.Traffic; table S
// with float attributes a, b, c); any other source is a path to an
// on-disk segment catalog written by visdbgen -o / csvutil, served
// straight from the file through the bounded decoded-segment cache
// (-catalog-cache-mb per catalog) — resident memory stays O(cache),
// not O(catalog), and results are bit-identical to serving the same
// data in memory. All catalogs are sharded across -shards serving
// shards by name hash. Every catalog gets its own shared
// predicate-cache tier bounded by -cache-entries / -cache-mb.
//
//	visdbd -addr :8491 -catalogs "traffic:200000,archive:/data/archive.visdb"
//
// Sessions idle longer than -session-ttl (default 30m; 0 disables)
// are reaped by a periodic sweep, so crashed clients release the
// pooled result buffers they pinned instead of holding a slot of the
// per-shard session cap until a DELETE that never comes.
//
// On SIGINT/SIGTERM the daemon drains: in-flight recalculations run
// to completion (bounded by -drain-timeout) before the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/kv"
	"repro/internal/server"
)

// config carries the parsed flags; run is separated from main so the
// smoke test can drive a full daemon lifecycle in-process.
type config struct {
	addr           string
	shards         int
	catalogs       string
	seed           int64
	gridW, gridH   int
	cacheEntries   int
	cacheMB        int
	catCacheMB     int
	sharedKV       string
	drainTimeout   time.Duration
	sessionTTL     time.Duration
	requestTimeout time.Duration
}

// validate rejects flag values that would configure the daemon into a
// degenerate state, with startup errors naming the flag — a typo'd
// unit suffix ("30" instead of "30s") must fail loudly, not serve with
// a nanosecond timeout.
func (cfg *config) validate() error {
	if cfg.drainTimeout < time.Second {
		return fmt.Errorf("-drain-timeout %v is below the 1s floor (in-flight recalculations need time to finish)", cfg.drainTimeout)
	}
	if cfg.sessionTTL != 0 && cfg.sessionTTL < time.Second {
		return fmt.Errorf("-session-ttl %v is below the 1s floor (0 disables reaping)", cfg.sessionTTL)
	}
	if cfg.requestTimeout != 0 && cfg.requestTimeout < 50*time.Millisecond {
		return fmt.Errorf("-request-timeout %v is below the 50ms floor (0 disables the deadline)", cfg.requestTimeout)
	}
	if cfg.catCacheMB < 0 {
		return fmt.Errorf("-catalog-cache-mb must be >= 0, got %d", cfg.catCacheMB)
	}
	if cfg.cacheMB < 0 || cfg.cacheEntries < 0 {
		return fmt.Errorf("-cache-mb and -cache-entries must be >= 0")
	}
	if cfg.gridW <= 0 || cfg.gridH <= 0 {
		return fmt.Errorf("-gridw and -gridh must be positive, got %dx%d", cfg.gridW, cfg.gridH)
	}
	return nil
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8491", "listen address")
	flag.IntVar(&cfg.shards, "shards", server.DefaultShards, "number of serving shards")
	flag.StringVar(&cfg.catalogs, "catalogs", "traffic:200000", "served catalogs, comma-separated name:rows")
	flag.Int64Var(&cfg.seed, "seed", 1994, "synthetic catalog seed")
	flag.IntVar(&cfg.gridW, "gridw", 128, "default session grid width")
	flag.IntVar(&cfg.gridH, "gridh", 128, "default session grid height")
	flag.IntVar(&cfg.cacheEntries, "cache-entries", 0, "per-catalog shared-cache entry cap (0 = default 1024)")
	flag.IntVar(&cfg.cacheMB, "cache-mb", 0, "per-catalog shared-cache byte budget in MiB (0 = default 256)")
	flag.IntVar(&cfg.catCacheMB, "catalog-cache-mb", 0, "decoded-segment cache budget in MiB for file-backed catalogs (0 = default 64)")
	flag.StringVar(&cfg.sharedKV, "shared-kv", "", "visdbkv store base URL; attaches the fleet's shared-distance tier to every catalog's cache")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "graceful shutdown drain bound")
	flag.DurationVar(&cfg.sessionTTL, "session-ttl", 30*time.Minute, "reap sessions idle longer than this (0 disables; each live session pins O(rows) buffers)")
	flag.DurationVar(&cfg.requestTimeout, "request-timeout", 0, "per-request deadline, recalculations included; overruns answer 504 with the session rolled back (0 disables)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, nil); err != nil {
		fmt.Fprintln(os.Stderr, "visdbd:", err)
		os.Exit(1)
	}
}

// buildCatalogs parses the -catalogs spec: numeric sources generate
// synthetic catalogs, everything else opens an on-disk segment catalog
// served through the bounded decoded-segment cache.
func buildCatalogs(cfg config) ([]server.CatalogConfig, error) {
	shared := core.SharedOptions{
		MaxEntries: cfg.cacheEntries,
		MaxBytes:   int64(cfg.cacheMB) << 20,
	}
	if cfg.sharedKV != "" {
		// One client for every catalog: the kv keys are structural
		// (table identities, not catalog names), so replica catalogs
		// across the fleet share entries through it.
		shared.Backend = kv.NewClient(cfg.sharedKV)
	}
	var out []server.CatalogConfig
	seen := make(map[string]bool)
	for _, spec := range strings.Split(cfg.catalogs, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		name, src, ok := strings.Cut(spec, ":")
		if !ok || name == "" || src == "" {
			return nil, fmt.Errorf("bad catalog spec %q (want name:rows or name:path)", spec)
		}
		if seen[name] {
			return nil, fmt.Errorf("duplicate catalog name %q in -catalogs", name)
		}
		seen[name] = true
		var cat *dataset.Catalog
		if rows, err := strconv.Atoi(src); err == nil {
			if rows <= 0 {
				return nil, fmt.Errorf("bad row count in catalog spec %q", spec)
			}
			// Each catalog draws from its own seed stream so same-sized
			// catalogs hold different data.
			cat, err = datagen.Traffic(rows, cfg.seed+int64(len(out)))
			if err != nil {
				return nil, err
			}
		} else {
			cat, err = dataset.OpenCatalogFile(src, dataset.OpenOptions{
				CacheBytes: int64(cfg.catCacheMB) << 20,
			})
			if errors.Is(err, dataset.ErrCorruptSegment) {
				// Checksum failure at load: quarantine this catalog —
				// clients get 503 with the error — but keep serving every
				// other catalog. A wrong path, a permission problem or a
				// file in a layout the reader does not read still fails
				// startup (the operator misconfigured, the data is not
				// damaged).
				log.Printf("visdbd: catalog %q QUARANTINED: %v", name, err)
				out = append(out, server.CatalogConfig{Name: name, Quarantined: fmt.Errorf("catalog %q: %w", name, err)})
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("catalog %q: %w", name, err)
			}
		}
		out = append(out, server.CatalogConfig{Name: name, Catalog: cat, Shared: shared})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no catalogs configured")
	}
	return out, nil
}

// run builds the server, serves until ctx is canceled, then drains.
// ready (may be nil) is called with the bound address once listening —
// the smoke test uses it to discover the port of addr ":0".
func run(ctx context.Context, cfg config, ready func(addr string)) error {
	if cfg.shards <= 0 {
		cfg.shards = server.DefaultShards
	}
	if err := cfg.validate(); err != nil {
		return err
	}
	catalogs, err := buildCatalogs(cfg)
	if err != nil {
		return err
	}
	// Release file-backed catalogs on exit (a no-op for in-memory ones;
	// quarantined catalogs never opened).
	defer func() {
		for _, cc := range catalogs {
			if cc.Catalog != nil {
				cc.Catalog.Close()
			}
		}
	}()
	srv, err := server.New(server.Config{
		Shards:         cfg.shards,
		Catalogs:       catalogs,
		DefaultOptions: core.Options{GridW: cfg.gridW, GridH: cfg.gridH},
		SessionTTL:     cfg.sessionTTL,
		RequestTimeout: cfg.requestTimeout,
	})
	if err != nil {
		return err
	}
	if cfg.sessionTTL > 0 {
		// Reap abandoned sessions (crashed clients never DELETE) so the
		// per-shard cap sheds attackers, not memory.
		go srv.SweepLoop(ctx)
	}
	l, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	for _, cc := range catalogs {
		if cc.Catalog == nil {
			log.Printf("visdbd: catalog %q on shard %d is quarantined (503)",
				cc.Name, server.ShardOf(cc.Name, cfg.shards))
			continue
		}
		log.Printf("visdbd: serving catalog %q (%d rows) on shard %d",
			cc.Name, mustRows(cc), server.ShardOf(cc.Name, cfg.shards))
	}
	log.Printf("visdbd: listening on %s (%d shards)", l.Addr(), cfg.shards)
	if ready != nil {
		ready(l.Addr().String())
	}

	hs := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Graceful drain: Shutdown refuses new connections and waits for
	// every in-flight request — i.e. every in-flight recalculation —
	// to finish, bounded by the drain timeout.
	log.Printf("visdbd: draining (%d requests in flight)...", srv.InFlight())
	sctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	log.Printf("visdbd: drained, exiting (in flight: %d)", srv.InFlight())
	return nil
}

// mustRows reports a catalog's table row count for the startup log.
func mustRows(cc server.CatalogConfig) int {
	rows := 0
	for _, name := range cc.Catalog.TableNames() {
		if t, err := cc.Catalog.Table(name); err == nil {
			rows += t.NumRows()
		}
	}
	return rows
}
