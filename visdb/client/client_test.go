package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// scriptRT is a fully scripted http.RoundTripper: attempt i gets
// steps[i]'s outcome. Deterministic by construction — retry tests
// never depend on timing or randomness.
type scriptRT struct {
	mu    sync.Mutex
	steps []func(*http.Request) (*http.Response, error)
	calls int
}

func (rt *scriptRT) RoundTrip(req *http.Request) (*http.Response, error) {
	rt.mu.Lock()
	i := rt.calls
	rt.calls++
	rt.mu.Unlock()
	if i >= len(rt.steps) {
		return nil, fmt.Errorf("scriptRT: unexpected attempt %d", i+1)
	}
	return rt.steps[i](req)
}

func (rt *scriptRT) count() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.calls
}

// respond builds a step answering status with a JSON body and optional
// headers.
func respond(status int, v any, hdr map[string]string) func(*http.Request) (*http.Response, error) {
	return func(req *http.Request) (*http.Response, error) {
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		buf, _ := json.Marshal(v)
		h := http.Header{"Content-Type": []string{"application/json"}}
		for k, val := range hdr {
			h.Set(k, val)
		}
		return &http.Response{StatusCode: status, Header: h, Body: io.NopCloser(bytes.NewReader(buf)), Request: req}, nil
	}
}

// fail builds a step that errors at the transport layer.
func fail(err error) func(*http.Request) (*http.Response, error) {
	return func(req *http.Request) (*http.Response, error) {
		if req.Body != nil {
			io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		return nil, err
	}
}

// fakeClock is a virtual clock: it records backoff waits and advances
// its own time by them without sleeping, so every retry test runs in
// microseconds of real time.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Duration
	delays []time.Duration
}

func (f *fakeClock) sleep(ctx context.Context, d time.Duration) error {
	f.mu.Lock()
	f.delays = append(f.delays, d)
	f.now += d
	f.mu.Unlock()
	return ctx.Err()
}

func (f *fakeClock) elapsed() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// newTestClient wires a scripted transport and a policy on the virtual
// clock: 10 ms doubling to an 80 ms cap, spread over ±50 % like every
// policy (checkBackoff asserts the band).
func newTestClient(rt http.RoundTripper, attempts int) (*Client, *fakeClock) {
	clk := &fakeClock{}
	c := New("http://test")
	c.HTTP = &http.Client{Transport: rt}
	c.Retry = RetryPolicy{
		MaxAttempts: attempts,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    80 * time.Millisecond,
		Sleep:       clk.sleep,
	}
	return c, clk
}

// checkBackoff asserts the recorded waits against the nominal schedule:
// each within ±50 % of its nominal value, or exactly the value when it is
// a server hint (exact[i]).
func checkBackoff(t *testing.T, got, nominal []time.Duration, exact ...int) {
	t.Helper()
	if len(got) != len(nominal) {
		t.Fatalf("delays %v, want %d of them (nominal %v)", got, len(nominal), nominal)
	}
	isExact := make(map[int]bool)
	for _, i := range exact {
		isExact[i] = true
	}
	for i, d := range nominal {
		lo, hi := d/2, d+d/2
		if isExact[i] {
			lo, hi = d, d
		}
		if got[i] < lo || got[i] > hi {
			t.Fatalf("delay[%d] = %v, want within [%v, %v]", i, got[i], lo, hi)
		}
	}
}

func session(c *Client) *Session {
	return &Session{c: c, ID: "s0.1", Catalog: "cat"}
}

func TestRetriesOn5xxThenSucceeds(t *testing.T) {
	want := Summary{N: 42, Displayed: 7, Recalcs: 3}
	rt := &scriptRT{steps: []func(*http.Request) (*http.Response, error){
		respond(500, wire.ErrorResponse{Error: "boom"}, nil),
		respond(503, wire.ErrorResponse{Error: "shed", Code: wire.CodeSessionCap}, map[string]string{"Retry-After": "2"}),
		respond(200, want, nil),
	}}
	c, clk := newTestClient(rt, 4)
	sum, err := session(c).SetWeight(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sum != want {
		t.Fatalf("summary %+v", sum)
	}
	if rt.count() != 3 {
		t.Fatalf("attempts %d, want 3", rt.count())
	}
	// First wait: base 10ms. Second: backoff says 20ms but the server's
	// Retry-After hint (2s) is longer and wins.
	checkBackoff(t, clk.delays, []time.Duration{10 * time.Millisecond, 2 * time.Second}, 1)
}

func TestNoRetryOn4xx(t *testing.T) {
	rt := &scriptRT{steps: []func(*http.Request) (*http.Response, error){
		respond(400, wire.ErrorResponse{Error: "bad query"}, nil),
	}}
	c, clk := newTestClient(rt, 4)
	_, err := session(c).SetQuery(context.Background(), "nonsense")
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != 400 {
		t.Fatalf("want APIError 400, got %v", err)
	}
	if rt.count() != 1 || len(clk.delays) != 0 {
		t.Fatalf("4xx must not retry: attempts=%d delays=%v", rt.count(), clk.delays)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	rt := &scriptRT{steps: []func(*http.Request) (*http.Response, error){
		respond(500, wire.ErrorResponse{Error: "1"}, nil),
		respond(500, wire.ErrorResponse{Error: "2"}, nil),
		respond(500, wire.ErrorResponse{Error: "3"}, nil),
	}}
	c, clk := newTestClient(rt, 3)
	_, err := session(c).Undo(context.Background())
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != 500 || ae.Msg != "3" {
		t.Fatalf("want the final 500, got %v", err)
	}
	if rt.count() != 3 {
		t.Fatalf("attempts %d, want exactly the budget", rt.count())
	}
	// Exponential schedule 10, 20ms between the three attempts.
	checkBackoff(t, clk.delays, []time.Duration{10 * time.Millisecond, 20 * time.Millisecond})
}

func TestBackoffCapsAtMaxDelay(t *testing.T) {
	steps := make([]func(*http.Request) (*http.Response, error), 6)
	for i := range steps {
		steps[i] = respond(502, wire.ErrorResponse{Error: "gw"}, nil)
	}
	rt := &scriptRT{steps: steps}
	c, clk := newTestClient(rt, 6)
	_, err := session(c).SetRange(context.Background(), "x", 1, 2)
	if err == nil {
		t.Fatal("want failure")
	}
	// 10, 20, 40, 80, then capped at 80.
	want := []time.Duration{10, 20, 40, 80, 80}
	for i := range want {
		want[i] *= time.Millisecond
	}
	checkBackoff(t, clk.delays, want)
}

func TestTransportErrorRetries(t *testing.T) {
	want := Summary{N: 5}
	rt := &scriptRT{steps: []func(*http.Request) (*http.Response, error){
		fail(errors.New("connection reset")),
		respond(200, want, nil),
	}}
	c, _ := newTestClient(rt, 2)
	sum, err := session(c).SetWeight(context.Background(), 1, 0.5)
	if err != nil || sum != want {
		t.Fatalf("sum=%+v err=%v", sum, err)
	}
}

func TestExpiredContextStopsRetrying(t *testing.T) {
	rt := &scriptRT{steps: []func(*http.Request) (*http.Response, error){
		respond(500, wire.ErrorResponse{Error: "boom"}, nil),
	}}
	c, clk := newTestClient(rt, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := session(c).Undo(ctx)
	if err == nil {
		t.Fatal("want failure")
	}
	if rt.count() > 1 {
		t.Fatalf("retried %d times with a dead context", rt.count()-1)
	}
	_ = clk
}

// TestRetriesReuseSeq is the idempotency contract from the client's
// side: every attempt of one logical operation carries the same
// sequence number, and consecutive operations number consecutively.
func TestRetriesReuseSeq(t *testing.T) {
	var seqs []uint64
	record := func(status int, v any) func(*http.Request) (*http.Response, error) {
		return func(req *http.Request) (*http.Response, error) {
			var body wire.WeightRequest
			if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
				return nil, err
			}
			req.Body.Close()
			seqs = append(seqs, body.Seq)
			buf, _ := json.Marshal(v)
			return &http.Response{StatusCode: status,
				Header: http.Header{"Content-Type": []string{"application/json"}},
				Body:   io.NopCloser(bytes.NewReader(buf)), Request: req}, nil
		}
	}
	rt := &scriptRT{steps: []func(*http.Request) (*http.Response, error){
		record(500, wire.ErrorResponse{Error: "flake"}),
		record(200, Summary{}),
		record(200, Summary{}),
	}}
	c, _ := newTestClient(rt, 3)
	s := session(c)
	if _, err := s.SetWeight(context.Background(), 0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetWeight(context.Background(), 0, 3); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3 || seqs[0] != 1 || seqs[1] != 1 || seqs[2] != 2 {
		t.Fatalf("seqs %v, want [1 1 2]", seqs)
	}
}

func TestAPIErrorCarriesCodeAndRetryAfter(t *testing.T) {
	rt := &scriptRT{steps: []func(*http.Request) (*http.Response, error){
		respond(503, wire.ErrorResponse{Error: "segment corrupt", Code: wire.CodeCatalogQuarantined},
			map[string]string{"Retry-After": "60"}),
	}}
	c, _ := newTestClient(rt, 1)
	_, err := session(c).Results(context.Background(), 5)
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("want APIError, got %v", err)
	}
	if ae.Code != wire.CodeCatalogQuarantined || ae.RetryAfter != 60*time.Second || ae.Status != 503 {
		t.Fatalf("%+v", ae)
	}
}

// TestRetryAfterHTTPDate: RFC 9110 allows Retry-After to be an
// HTTP-date as well as delay-seconds (no binary of ours sends one; a
// proxy in between may). The client turns a date into a duration against
// the wall clock — an HTTP-date has one-second resolution, so a date
// d ahead reads as (d − 2 s, d] — and a past date must read as no hint,
// not a negative one.
func TestRetryAfterHTTPDate(t *testing.T) {
	now := time.Now()
	cases := []struct {
		name     string
		header   string
		min, max time.Duration
	}{
		{"http-date future", now.Add(90 * time.Second).UTC().Format(http.TimeFormat), 88 * time.Second, 90 * time.Second},
		{"http-date past", now.Add(-30 * time.Second).UTC().Format(http.TimeFormat), 0, 0},
		{"delay-seconds still works", "45", 45 * time.Second, 45 * time.Second},
		{"garbage ignored", "soon", 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt := &scriptRT{steps: []func(*http.Request) (*http.Response, error){
				respond(503, wire.ErrorResponse{Error: "shed"},
					map[string]string{"Retry-After": tc.header}),
			}}
			c, _ := newTestClient(rt, 1)
			_, err := session(c).Results(context.Background(), 5)
			var ae *APIError
			if !errors.As(err, &ae) {
				t.Fatalf("want APIError, got %v", err)
			}
			if ae.RetryAfter < tc.min || ae.RetryAfter > tc.max {
				t.Fatalf("RetryAfter = %v, want within [%v, %v]", ae.RetryAfter, tc.min, tc.max)
			}
		})
	}
}

// TestRetriesOnNodeDown: a router answering node_down — the session's
// node died and the shard is being replaced — is a transient fleet
// condition: the client retries, pacing itself off the Retry-After
// hint so the retry lands after the shard flip.
func TestRetriesOnNodeDown(t *testing.T) {
	want := Summary{N: 9, Recalcs: 2}
	rt := &scriptRT{steps: []func(*http.Request) (*http.Response, error){
		respond(503, wire.ErrorResponse{Error: "node b is down", Code: wire.CodeNodeDown},
			map[string]string{"Retry-After": "1"}),
		respond(200, want, nil),
	}}
	c, clk := newTestClient(rt, 4)
	sum, err := session(c).SetWeight(context.Background(), 0, 2)
	if err != nil || sum != want {
		t.Fatalf("sum=%+v err=%v", sum, err)
	}
	if rt.count() != 2 {
		t.Fatalf("attempts %d, want 2", rt.count())
	}
	// The server's 1s hint beats the 10ms backoff schedule.
	if len(clk.delays) != 1 || clk.delays[0] != time.Second {
		t.Fatalf("delays %v, want [1s]", clk.delays)
	}
}

// TestRetryableKeysOnCode pins the retry decision to the code's row of
// wire.CodeTable, exhaustively: a plain Session resends exactly the
// failures of class RetrySame, never a RetryNever or a RetryRecreate
// (it has no log to replay), and an absent or unknown code falls back to
// the status class.
func TestRetryableKeysOnCode(t *testing.T) {
	type row struct {
		code   string
		status int
		want   bool
	}
	var cases []row
	for code, info := range wire.CodeTable {
		cases = append(cases, row{code, info.Status, info.Class == wire.RetrySame})
	}
	if len(cases) != 9 {
		t.Fatalf("table has %d codes; the protocol's vocabulary is 9", len(cases))
	}
	cases = append(cases,
		row{"", 500, true}, row{"", 503, true}, row{"", 400, false}, row{"", 404, false},
		row{"injected", 500, true}, row{"injected", 404, false}, // unknown code: status class decides
	)
	for _, tc := range cases {
		rt := &scriptRT{steps: []func(*http.Request) (*http.Response, error){
			respond(tc.status, wire.ErrorResponse{Error: "x", Code: tc.code}, nil),
			respond(200, Summary{}, nil),
		}}
		c, _ := newTestClient(rt, 2)
		_, err := session(c).SetWeight(context.Background(), 0, 2)
		if retried := rt.count() == 2; retried != tc.want || (err == nil) != tc.want {
			t.Errorf("%d %q: retried=%v err=%v, want retried=%v", tc.status, tc.code, retried, err, tc.want)
		}
	}
}

// TestRetryAfterDateStretchesBackoff: the duration derived from an
// HTTP-date must reach the backoff loop exactly like the integer form —
// the retry waits the server's hint when it exceeds the schedule.
func TestRetryAfterDateStretchesBackoff(t *testing.T) {
	rt := &scriptRT{steps: []func(*http.Request) (*http.Response, error){
		respond(503, wire.ErrorResponse{Error: "shed"},
			map[string]string{"Retry-After": time.Now().Add(10 * time.Second).UTC().Format(http.TimeFormat)}),
		respond(200, Summary{N: 1}, nil),
	}}
	c, clk := newTestClient(rt, 3)
	if _, err := session(c).Results(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	if len(clk.delays) != 1 || clk.delays[0] < 8*time.Second || clk.delays[0] > 10*time.Second {
		t.Fatalf("delays %v, want one within [8s, 10s]", clk.delays)
	}
}

// TestOneBudgetPerOperation is the edge's second contract line: one
// logical operation spends one attempt budget, paced by the server's
// hint. Against a server that answers every mutation 503 session_cap +
// Retry-After: 1, a Session op and a FleetSession op each send the
// failing request exactly MaxAttempts times with at least a second of
// (virtual) time between consecutive sends — where a FleetSession used to
// send it 9 times back to back, or 36 with a policy set, because its
// recovery loop and its endpoint's retry loop multiplied.
func TestOneBudgetPerOperation(t *testing.T) {
	const attempts = 4
	for _, fleet := range []bool{false, true} {
		var clk *fakeClock
		var sentAt []time.Duration
		handler := roundTripFunc(func(req *http.Request) (*http.Response, error) {
			if req.URL.Path == "/v1/sessions" {
				return respond(200, info("s0.1-aaa", 1), nil)(req)
			}
			sentAt = append(sentAt, clk.elapsed())
			return respond(503, wire.ErrorResponse{Error: "full", Code: wire.CodeSessionCap},
				map[string]string{"Retry-After": "1"})(req)
		})
		var c *Client
		c, clk = newTestClient(handler, attempts)
		ctx := context.Background()
		var err error
		if fleet {
			var fs *FleetSession
			if fs, _, err = NewFleetSession(ctx, []*Client{c}, "cat", "SELECT x FROM t", FleetOptions{}); err != nil {
				t.Fatal(err)
			}
			_, err = fs.SetRange(ctx, "x", 1, 2)
		} else {
			_, err = session(c).SetRange(ctx, "x", 1, 2)
		}
		ae, ok := err.(*APIError)
		if !ok || ae.Code != wire.CodeSessionCap {
			t.Fatalf("fleet=%v: want the last session_cap to surface, got %v", fleet, err)
		}
		if len(sentAt) != attempts {
			t.Fatalf("fleet=%v: the failing request went out %d times (at %v), want exactly MaxAttempts = %d",
				fleet, len(sentAt), sentAt, attempts)
		}
		for i := 1; i < len(sentAt); i++ {
			if gap := sentAt[i] - sentAt[i-1]; gap < time.Second {
				t.Fatalf("fleet=%v: sends %d and %d are %v apart; Retry-After: 1 asks for at least 1s", fleet, i, i+1, gap)
			}
		}
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }
