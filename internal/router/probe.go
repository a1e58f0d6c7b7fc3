package router

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"repro/internal/httpbody"
	"repro/internal/wire"
)

// probeJitter stretches each health tick by a random fraction of the
// interval in [0, probeJitter), so redundant routers sharing a start
// time drift apart instead of probing every member in lockstep.
const probeJitter = 0.2

// CheckNow runs one synchronous health round: probe every member's
// GET /v1/health (outside any lock), apply the results, rebalance. The
// background loop calls this on every tick; tests call it directly to
// advance fleet state deterministically.
func (rt *Router) CheckNow(ctx context.Context) {
	members := rt.pl.members // the slice is fixed at New
	reports := make([]wire.HealthResponse, len(members))
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m *member) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
			defer cancel()
			errs[i] = httpbody.GetJSON(pctx, rt.http, m.url+"/v1/health", &reports[i])
		}(i, m)
	}
	wg.Wait()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for i, m := range members {
		rt.pl.observe(m, reports[i], errs[i])
	}
	rt.pl.rebalance(time.Now())
}

// Run drives the health loop until ctx is canceled. cmd/visdbrouter
// runs one for the daemon's lifetime.
func (rt *Router) Run(ctx context.Context) {
	for {
		d := rt.cfg.HealthInterval
		d += time.Duration(rand.Float64() * probeJitter * float64(d))
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
			rt.CheckNow(ctx)
		}
	}
}
