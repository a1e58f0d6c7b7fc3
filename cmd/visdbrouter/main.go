// Command visdbrouter is the fleet front end: it owns the shard
// placement map over a set of visdbd member nodes, health-checks
// them, and proxies the whole serving protocol — clients address the
// fleet through it as if it were one visdbd.
//
// Usage:
//
//	visdbrouter -addr :8490 -shards 8 \
//	    -members "a=http://10.0.0.7:8491,b=http://10.0.0.8:8491,c=http://10.0.0.9:8491" \
//	    -kv http://10.0.0.5:8499
//
// Every member must run visdbd with the same -shards value and the
// same catalog set; placement (rendezvous hashing over the healthy
// members) decides which member serves which shard. A member missing
// -fail-after consecutive health probes is failed over immediately;
// shards moving between healthy members drain (bounded by
// -drain-timeout). See internal/router for the full semantics.
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
	"strings"
	"syscall"
	"time"

	"repro/internal/router"
	"repro/internal/server"
)

type config struct {
	addr           string
	shards         int
	members        string
	kv             string
	healthInterval time.Duration
	probeTimeout   time.Duration
	failAfter      int
	drainTimeout   time.Duration
}

// validate rejects flag values that would configure the router into a
// degenerate state, with startup errors naming the flag — a typo'd
// unit suffix ("2" instead of "2s") must fail loudly, not probe the
// fleet every two nanoseconds. Zero values mean "flag not set" in
// tests that build the struct directly and skip the floors.
func (cfg *config) validate() error {
	if cfg.healthInterval != 0 && cfg.healthInterval < 10*time.Millisecond {
		return fmt.Errorf("-health-interval %v is below the 10ms floor (probes would saturate the members)", cfg.healthInterval)
	}
	if cfg.probeTimeout != 0 && cfg.probeTimeout < 10*time.Millisecond {
		return fmt.Errorf("-probe-timeout %v is below the 10ms floor (healthy members would look dead)", cfg.probeTimeout)
	}
	if cfg.probeTimeout != 0 && cfg.healthInterval != 0 && cfg.probeTimeout > cfg.healthInterval {
		return fmt.Errorf("-probe-timeout %v exceeds -health-interval %v (probe rounds would overlap)", cfg.probeTimeout, cfg.healthInterval)
	}
	if cfg.failAfter < 0 {
		return fmt.Errorf("-fail-after must be >= 0, got %d", cfg.failAfter)
	}
	if cfg.drainTimeout != 0 && cfg.drainTimeout < time.Second {
		return fmt.Errorf("-drain-timeout %v is below the 1s floor (in-flight recalculations need time to finish)", cfg.drainTimeout)
	}
	return nil
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8490", "listen address")
	flag.IntVar(&cfg.shards, "shards", server.DefaultShards, "fleet-wide shard count (must match every member's -shards)")
	flag.StringVar(&cfg.members, "members", "", "fleet members, comma-separated name=url")
	flag.StringVar(&cfg.kv, "kv", "", "shared kv store base URL (stats only; members attach via visdbd -shared-kv)")
	flag.DurationVar(&cfg.healthInterval, "health-interval", router.DefaultHealthInterval, "health probe period")
	flag.DurationVar(&cfg.probeTimeout, "probe-timeout", router.DefaultProbeTimeout, "bound on one health probe")
	flag.IntVar(&cfg.failAfter, "fail-after", router.DefaultFailAfter, "consecutive failed probes before failover; a rejoining member needs the same number of clean probes")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", router.DefaultDrainTimeout, "bound on draining a moved shard off a healthy owner")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, nil); err != nil {
		fmt.Fprintln(os.Stderr, "visdbrouter:", err)
		os.Exit(1)
	}
}

// parseMembers parses the -members spec ("a=http://x,b=http://y");
// router.New rejects duplicate names and duplicate URLs.
func parseMembers(spec string) ([]router.Member, error) {
	var out []router.Member
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad member spec %q (want name=url)", part)
		}
		out = append(out, router.Member{Name: name, URL: url})
	}
	return out, nil
}

// run builds the router, serves until ctx is canceled, then shuts
// down. ready (may be nil) is called with the bound address once
// listening.
func run(ctx context.Context, cfg config, ready func(addr string)) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	members, err := parseMembers(cfg.members)
	if err != nil {
		return err
	}
	rt, err := router.New(router.Config{
		Shards:         cfg.shards,
		Members:        members,
		HealthInterval: cfg.healthInterval,
		ProbeTimeout:   cfg.probeTimeout,
		FailAfter:      cfg.failAfter,
		DrainTimeout:   cfg.drainTimeout,
		KV:             cfg.kv,
	})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	// Settle membership before taking traffic: a member that is
	// already down should not receive the first requests.
	rt.CheckNow(ctx)
	go rt.Run(ctx)
	for i, owner := range rt.Placement() {
		log.Printf("visdbrouter: shard %d -> %s", i, owner)
	}
	log.Printf("visdbrouter: listening on %s (%d shards, %d members)", l.Addr(), cfg.shards, len(members))
	if ready != nil {
		ready(l.Addr().String())
	}
	hs := &http.Server{Handler: rt}
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
	log.Printf("visdbrouter: exiting")
	return nil
}
