// Command visdbkv is the fleet's shared-distance store: one small
// process holding the immutable byte vectors of internal/kv so leaf
// distance vectors computed on one visdbd node warm every node.
//
// Usage:
//
//	visdbkv -addr :8499 -max-bytes-mb 256 -max-entries 65536
//
// The store is a cache, not a database: nothing persists, eviction is
// LRU under the entry cap and the byte budget (keys count towards it),
// and a restart merely costs the fleet a warm-up. On SIGINT/SIGTERM the
// daemon shuts down gracefully (in-flight requests finish).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/kv"
)

type config struct {
	addr       string
	maxEntries int
	maxBytesMB int
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8499", "listen address")
	flag.IntVar(&cfg.maxEntries, "max-entries", kv.DefaultMaxEntries, "resident entry cap")
	flag.IntVar(&cfg.maxBytesMB, "max-bytes-mb", int(kv.DefaultMaxBytes>>20), "key + value byte budget in MiB")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, nil); err != nil {
		fmt.Fprintln(os.Stderr, "visdbkv:", err)
		os.Exit(1)
	}
}

// run serves until ctx is canceled. ready (may be nil) is called with
// the bound address once listening — the smoke test uses it to discover
// the port of addr ":0".
func run(ctx context.Context, cfg config, ready func(addr string)) error {
	if cfg.maxEntries < 0 || cfg.maxBytesMB < 0 {
		return fmt.Errorf("-max-entries and -max-bytes-mb must be >= 0")
	}
	store := kv.NewServer(cfg.maxEntries, int64(cfg.maxBytesMB)<<20)
	l, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	// The flags' 0 means "default"; log the bounds in effect.
	bounds := store.Stats()
	log.Printf("visdbkv: listening on %s (budget %d MiB, %d entries)",
		l.Addr(), bounds.MaxBytes>>20, bounds.MaxEntries)
	if ready != nil {
		ready(l.Addr().String())
	}
	hs := &http.Server{Handler: store}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	st := store.Stats()
	log.Printf("visdbkv: exiting (%d entries, %d bytes, %d gets, %d hits)",
		st.Entries, st.Bytes, st.Gets, st.Hits)
	return nil
}
