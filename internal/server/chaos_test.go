package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/session"
	"repro/internal/wire"
	"repro/visdb/client"
)

// chaosPolicy is a retry policy with no real sleeps and no jitter —
// the chaos suite's wall-clock cost is pure compute.
func chaosPolicy(attempts int) client.RetryPolicy {
	return client.RetryPolicy{
		MaxAttempts: attempts,
		BaseDelay:   time.Millisecond,
		Sleep:       func(ctx context.Context, d time.Duration) error { return ctx.Err() },
	}
}

// chaosScript builds a deterministic drop schedule: every 11th
// request dies before reaching the server, every 13th is served but
// its response is dropped (the ambiguous failure idempotency exists
// for). Worst-case consecutive failures stay far below the retry
// budget.
func chaosScript(n int) []faultinject.Outcome {
	script := make([]faultinject.Outcome, n)
	for i := range script {
		switch {
		case i%11 == 10:
			script[i] = faultinject.DropBefore
		case i%13 == 12:
			script[i] = faultinject.DropAfter
		default:
			script[i] = faultinject.Pass
		}
	}
	return script
}

// TestChaosReplayMatchesInProcess is the fault-tolerance acceptance
// property: a randomized interaction script driven through a client
// whose requests are dropped before the server, dropped after being
// applied, and answered 500 by injected handler faults — with
// automatic idempotent retries — stays bitwise identical (rows,
// distances, relevances, order) to a fault-free in-process session,
// and the recalculation counters prove every operation was applied
// exactly once.
func TestChaosReplayMatchesInProcess(t *testing.T) {
	cc := trafficConfig(t, "traffic", 1200, 7)
	// Injected handler faults: every 9th request answers 500 before
	// touching any state.
	var hookCalls atomic.Uint64
	srv, err := New(Config{
		Shards:         2,
		Catalogs:       []CatalogConfig{cc},
		DefaultOptions: testGrid,
		FaultHook: func(r *http.Request) *Fault {
			if hookCalls.Add(1)%9 == 5 {
				return &Fault{Status: http.StatusInternalServerError, Code: "injected", Msg: "chaos"}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ft := faultinject.NewTransport(http.DefaultTransport, chaosScript(4096)...)
	c := client.New(ts.URL)
	c.HTTP = &http.Client{Transport: ft}
	c.Retry = chaosPolicy(8)
	ctx := context.Background()

	remote, _, err := c.NewSession(ctx, "traffic", scriptQueries[1], client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := session.NewSQL(cc.Catalog, nil, testGrid, scriptQueries[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := compareRemote(ctx, "initial", remote, mirror, cc.Catalog, false); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2026))
	for step := 0; step < 40; step++ {
		label, err := scriptStep(ctx, rng, step, remote, mirror)
		if err != nil {
			t.Fatal(err)
		}
		if err := compareRemote(ctx, label, remote, mirror, cc.Catalog, step%9 == 0); err != nil {
			t.Fatal(err)
		}
		// Exactly-once: the server ran one recalculation per applied
		// operation, never one per attempt — replayed retries must not
		// recompute.
		sum, err := remote.Timings(ctx)
		if err != nil {
			t.Fatalf("%s: timings: %v", label, err)
		}
		if sum.Recalcs != mirror.Recalcs {
			t.Fatalf("%s: remote ran %d recalcs, fault-free mirror %d", label, sum.Recalcs, mirror.Recalcs)
		}
	}
	if ft.Drops() == 0 {
		t.Fatal("chaos script injected no transport drops — the run proved nothing")
	}
	if err := remote.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestDeadlineRollsBackAndRetryResumes drives deterministic 504s
// through the full stack: injected latency consumes the request
// deadline, the recalculation aborts at a cancellation checkpoint, the
// session rolls back to its pre-request state (proven bitwise against
// the untouched mirror), and an idempotent retry applies the operation
// exactly once.
func TestDeadlineRollsBackAndRetryResumes(t *testing.T) {
	cc := trafficConfig(t, "traffic", 1200, 11)
	// The first three /range requests stall past the request deadline.
	var rangeCalls atomic.Uint64
	srv, err := New(Config{
		Shards:         1,
		Catalogs:       []CatalogConfig{cc},
		DefaultOptions: testGrid,
		RequestTimeout: 30 * time.Millisecond,
		FaultHook: func(r *http.Request) *Fault {
			if strings.HasSuffix(r.URL.Path, "/range") && rangeCalls.Add(1) <= 3 {
				return &Fault{Delay: time.Second}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := client.New(ts.URL)
	c.Retry.MaxAttempts = 1 // failures surface as they are answered
	ctx := context.Background()

	remote, _, err := c.NewSession(ctx, "traffic", scriptQueries[0], client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := session.NewSQL(cc.Catalog, nil, testGrid, scriptQueries[0])
	if err != nil {
		t.Fatal(err)
	}

	// Without retries the deadline surfaces as a typed 504 …
	_, err = remote.SetRange(ctx, "a", 10, 60)
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusGatewayTimeout || ae.Code != wire.CodeDeadline {
		t.Fatalf("want 504/%s, got %v", wire.CodeDeadline, err)
	}
	// … and the session still serves its pre-request state, bitwise.
	if err := compareRemote(ctx, "after 504", remote, mirror, cc.Catalog, false); err != nil {
		t.Fatal(err)
	}
	sum, err := remote.Timings(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Recalcs != mirror.Recalcs {
		t.Fatalf("aborted recalc counted: remote %d, mirror %d", sum.Recalcs, mirror.Recalcs)
	}

	// With retries, the remaining two stalled attempts 504 and the
	// third applies — exactly once.
	c.Retry = chaosPolicy(4)
	if _, err := remote.SetRange(ctx, "a", 10, 60); err != nil {
		t.Fatal(err)
	}
	if err := mirror.SetRangeByAttr("a", 10, 60); err != nil {
		t.Fatal(err)
	}
	if err := compareRemote(ctx, "after retried drag", remote, mirror, cc.Catalog, false); err != nil {
		t.Fatal(err)
	}
	sum, err = remote.Timings(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Recalcs != mirror.Recalcs {
		t.Fatalf("retry recomputed: remote %d recalcs, mirror %d", sum.Recalcs, mirror.Recalcs)
	}
	if got := rangeCalls.Load(); got != 4 {
		t.Fatalf("range attempts %d, want 4 (1 abandoned + 2 stalled + 1 applied)", got)
	}
}

// TestSeqReplayAndConflict exercises the raw sequence protocol: a
// retransmitted Seq replays the stored summary without recomputing,
// a stale Seq answers 409 CodeSeqConflict, and a mutation without a
// positive Seq — there is no non-idempotent form — answers 400 and runs
// nothing.
func TestSeqReplayAndConflict(t *testing.T) {
	cc := trafficConfig(t, "traffic", 800, 3)
	srv, err := New(Config{Shards: 1, Catalogs: []CatalogConfig{cc}, DefaultOptions: testGrid})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ctx := context.Background()
	c := client.New(ts.URL)
	remote, _, err := c.NewSession(ctx, "traffic", scriptQueries[0], client.Options{})
	if err != nil {
		t.Fatal(err)
	}

	post := func(seq uint64, w float64) (wire.Summary, *client.APIError) {
		var sum wire.Summary
		err := doJSON(ts.URL+"/v1/sessions/"+remote.ID+"/weight",
			wire.WeightRequest{Pred: 0, Weight: w, Seq: seq}, &sum)
		var ae *client.APIError
		if errors.As(err, &ae) {
			return sum, ae
		}
		if err != nil {
			t.Fatal(err)
		}
		return sum, nil
	}

	first, ae := post(1, 2.5)
	if ae != nil {
		t.Fatal(ae)
	}
	// Replay: same seq, even a different payload, returns the stored
	// response and runs nothing.
	replay, ae := post(1, 99)
	if ae != nil {
		t.Fatal(ae)
	}
	if replay != first {
		t.Fatalf("replay %+v != original %+v", replay, first)
	}
	// Stale: seq below the applied high-water mark conflicts after a
	// later op advanced it.
	if _, ae = post(2, 3); ae != nil {
		t.Fatal(ae)
	}
	_, ae = post(1, 2.5)
	if ae == nil || ae.Status != http.StatusConflict || ae.Code != wire.CodeSeqConflict {
		t.Fatalf("want 409/%s, got %+v", wire.CodeSeqConflict, ae)
	}
	// No Seq, no mutation: Seq 0 on any route, and the empty undo body a
	// client without sequence numbers would send.
	before, err := remote.Timings(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, ae = post(0, 7); ae == nil || ae.Status != http.StatusBadRequest || ae.Code != "" {
		t.Fatalf("seq 0: want an uncoded 400, got %+v", ae)
	}
	resp, err := http.Post(ts.URL+"/v1/sessions/"+remote.ID+"/undo", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty undo body: want 400, got %d", resp.StatusCode)
	}
	if after, err := remote.Timings(ctx); err != nil || after.Recalcs != before.Recalcs {
		t.Fatalf("a refused mutation ran: recalcs %d -> %d (%v)", before.Recalcs, after.Recalcs, err)
	}
}

// doJSON posts one raw JSON request — the seq-protocol tests need
// hand-picked sequence numbers the typed client would never send.
func doJSON(url string, in, out any) error {
	buf, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e wire.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return &client.APIError{Status: resp.StatusCode, Msg: e.Error, Code: e.Code}
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
