package client

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// expect builds a scripted step that asserts the request's shape
// (method, path suffix, idempotency seq; wantSeq < 0 skips the seq
// check) before answering status with body v.
func expect(t *testing.T, method, pathSuffix string, wantSeq int, status int, v any) func(*http.Request) (*http.Response, error) {
	inner := respond(status, v, nil)
	return func(req *http.Request) (*http.Response, error) {
		t.Helper()
		if req.Method != method || !strings.HasSuffix(req.URL.Path, pathSuffix) {
			t.Errorf("request %s %s, want %s …%s", req.Method, req.URL.Path, method, pathSuffix)
		}
		if wantSeq >= 0 && req.Body != nil {
			buf, _ := io.ReadAll(req.Body)
			req.Body.Close()
			var m struct {
				Seq uint64 `json:"seq"`
			}
			if err := json.Unmarshal(buf, &m); err != nil || m.Seq != uint64(wantSeq) {
				t.Errorf("%s %s carried seq %d, want %d", req.Method, req.URL.Path, m.Seq, wantSeq)
			}
			req.Body = nil
		}
		return inner(req)
	}
}

func info(id string, recalcs int) wire.SessionInfo {
	return wire.SessionInfo{ID: id, Catalog: "cat", Summary: Summary{Recalcs: recalcs}}
}

func notFound() wire.ErrorResponse {
	return wire.ErrorResponse{Error: "no session", Code: wire.CodeSessionNotFound}
}

func TestFleetSessionRecreatesAndReplays(t *testing.T) {
	rt := &scriptRT{steps: []func(*http.Request) (*http.Response, error){
		expect(t, "POST", "/v1/sessions", -1, 200, info("s0.1-aaa", 1)),
		expect(t, "POST", "/range", 1, 200, Summary{Recalcs: 2}),
		// The node dies: the next operation finds a replacement owner
		// that never knew the session.
		expect(t, "POST", "/weight", 2, 404, notFound()),
		// Recovery: recreate, replay the log under its original seq,
		// then re-issue the failed operation under ITS original seq.
		expect(t, "POST", "/v1/sessions", -1, 200, info("s1.1-bbb", 1)),
		expect(t, "POST", "/range", 1, 200, Summary{Recalcs: 2}),
		expect(t, "POST", "/weight", 2, 200, Summary{Recalcs: 3}),
	}}
	c, _ := newTestClient(rt, 4)
	ctx := context.Background()
	fs, sum, err := NewFleetSession(ctx, []*Client{c}, "cat", "SELECT x FROM t", FleetOptions{})
	if err != nil || sum.Recalcs != 1 {
		t.Fatalf("create: %v %+v", err, sum)
	}
	if _, err := fs.SetRange(ctx, "x", 1, 2); err != nil {
		t.Fatalf("range: %v", err)
	}
	sum, err = fs.SetWeight(ctx, 0, 2)
	if err != nil {
		t.Fatalf("weight did not recover: %v", err)
	}
	// Exactly-once on the new incarnation: creation + 2 logged ops.
	if sum.Recalcs != 3 {
		t.Fatalf("recalcs after recovery: %d, want 3", sum.Recalcs)
	}
	if fs.Recoveries() != 1 {
		t.Fatalf("recoveries: %d", fs.Recoveries())
	}
	if id := fs.ID(); id != "s1.1-bbb" {
		t.Fatalf("post-recovery ID %q", id)
	}
	if got := rt.count(); got != 6 {
		t.Fatalf("requests: %d, want 6", got)
	}
}

func TestFleetSessionRotatesAcrossEndpoints(t *testing.T) {
	// Endpoint A is dead at the transport level; B serves. Creation
	// rotates A→B, and every later request sticks to B.
	dead := &scriptRT{steps: []func(*http.Request) (*http.Response, error){
		fail(io.ErrUnexpectedEOF),
	}}
	live := &scriptRT{steps: []func(*http.Request) (*http.Response, error){
		expect(t, "POST", "/v1/sessions", -1, 200, info("s0.1-aaa", 1)),
		expect(t, "POST", "/range", 1, 200, Summary{Recalcs: 2}),
	}}
	a, _ := newTestClient(dead, 4)
	b, _ := newTestClient(live, 4)
	ctx := context.Background()
	fs, _, err := NewFleetSession(ctx, []*Client{a, b}, "cat", "SELECT x FROM t", FleetOptions{})
	if err != nil {
		t.Fatalf("create did not fail over: %v", err)
	}
	if _, err := fs.SetRange(ctx, "x", 1, 2); err != nil {
		t.Fatalf("range: %v", err)
	}
	// Rotation is not a recreation.
	if fs.Recoveries() != 0 {
		t.Fatalf("recoveries: %d", fs.Recoveries())
	}
	if dead.count() != 1 || live.count() != 2 {
		t.Fatalf("calls: dead %d live %d", dead.count(), live.count())
	}
}

func TestFleetSessionSurfacesDeterministicErrors(t *testing.T) {
	rt := &scriptRT{steps: []func(*http.Request) (*http.Response, error){
		expect(t, "POST", "/v1/sessions", -1, 200, info("s0.1-aaa", 1)),
		expect(t, "POST", "/range", 1, 409, wire.ErrorResponse{Error: "stale", Code: wire.CodeSeqConflict}),
		// A deterministically failed op's number is abandoned; the next
		// op takes the NEXT number, leaving a legal gap.
		expect(t, "POST", "/weight", 2, 200, Summary{Recalcs: 2}),
	}}
	c, _ := newTestClient(rt, 4)
	ctx := context.Background()
	fs, _, err := NewFleetSession(ctx, []*Client{c}, "cat", "SELECT x FROM t", FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = fs.SetRange(ctx, "x", 1, 2)
	ae, ok := err.(*APIError)
	if !ok || ae.Code != wire.CodeSeqConflict {
		t.Fatalf("conflict did not surface: %v", err)
	}
	if fs.Ops() != 0 {
		t.Fatalf("failed op was logged: %d", fs.Ops())
	}
	if _, err := fs.SetWeight(ctx, 0, 2); err != nil {
		t.Fatalf("weight: %v", err)
	}
	if fs.Ops() != 1 {
		t.Fatalf("ops logged: %d", fs.Ops())
	}
}

func TestFleetSessionRecoveryBudget(t *testing.T) {
	// Every mutation finds the session gone, forever (a pathological
	// fleet that loses every incarnation instantly). The one budget —
	// the endpoint's MaxAttempts — must bound the loop and surface the
	// error, and the recreations must be paced, not a storm.
	steps := []func(*http.Request) (*http.Response, error){
		expect(t, "POST", "/v1/sessions", -1, 200, info("s0.1-aaa", 1)),
	}
	for i := 0; i < 3; i++ {
		steps = append(steps,
			expect(t, "POST", "/range", 1, 404, notFound()),
			expect(t, "POST", "/v1/sessions", -1, 200, info("s0.2-bbb", 1)),
		)
	}
	// MaxAttempts 3: attempt, recover, attempt, recover, attempt →
	// surface. The last scripted recreation stays unused.
	rt := &scriptRT{steps: steps}
	c, clk := newTestClient(rt, 3)
	ctx := context.Background()
	fs, _, err := NewFleetSession(ctx, []*Client{c}, "cat", "SELECT x FROM t", FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = fs.SetRange(ctx, "x", 1, 2)
	ae, ok := err.(*APIError)
	if !ok || ae.Code != wire.CodeSessionNotFound {
		t.Fatalf("budget exhaustion surfaced %v", err)
	}
	if fs.Recoveries() != 2 {
		t.Fatalf("recoveries: %d, want 2", fs.Recoveries())
	}
	if got := rt.count(); got != 6 {
		t.Fatalf("requests: %d, want 6 (create, 3 × range, 2 × recreate)", got)
	}
	checkBackoff(t, clk.delays, []time.Duration{10 * time.Millisecond, 20 * time.Millisecond})
}

func TestFleetSessionCloseOnDeadNodeIsClean(t *testing.T) {
	rt := &scriptRT{steps: []func(*http.Request) (*http.Response, error){
		expect(t, "POST", "/v1/sessions", -1, 200, info("s0.1-aaa", 1)),
		expect(t, "DELETE", "/v1/sessions/s0.1-aaa", -1, 404, notFound()),
	}}
	c, _ := newTestClient(rt, 4)
	ctx := context.Background()
	fs, _, err := NewFleetSession(ctx, []*Client{c}, "cat", "SELECT x FROM t", FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(ctx); err != nil {
		t.Fatalf("close after node death: %v", err)
	}
	if _, err := fs.SetRange(ctx, "x", 1, 2); err == nil {
		t.Fatal("closed session accepted an operation")
	}
}
