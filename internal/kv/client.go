package kv

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpbody"
)

// DefaultTimeout bounds every client request. The backend sits on the
// leaf-fill path — a slow store must degrade to a local compute, not
// stall a session — so the timeout is what bounds the worst case, not
// the work a Get saves.
const DefaultTimeout = 2 * time.Second

// DefaultBreakerThreshold is the consecutive-failure count that trips
// the circuit breaker open when Client.BreakerThreshold is zero. Three
// strikes: one failure may be a blip, three in a row with zero
// successes in between is an outage.
const DefaultBreakerThreshold = 3

// DefaultBreakerCooldown is how long an open breaker rejects traffic
// before letting one half-open probe through (Client.BreakerCooldown
// zero value). Long relative to DefaultTimeout so a dead store costs
// one timeout per cooldown window instead of one per request.
const DefaultBreakerCooldown = 5 * time.Second

// ClientStats snapshots a client's cumulative traffic.
type ClientStats struct {
	Hits   uint64 // Gets answered 200
	Misses uint64 // Gets answered 404
	Puts   uint64 // Puts attempted
	Errors uint64 // transport failures and unexpected statuses
	Shared uint64 // Gets collapsed onto another caller's in-flight fetch
	// ShortCircuits counts operations answered instantly (Get: miss,
	// Put: dropped) because the breaker was open — each one is a
	// network timeout the caller did not pay.
	ShortCircuits uint64
	// Breaker is the breaker's current state: "closed", "open",
	// "half-open", or "" when disabled. Trips counts closed→open
	// transitions.
	Breaker string
	Trips   uint64
}

// Client speaks the kv protocol and implements core.SharedBackend: Get
// and Put never fail loudly — a network error is a miss (counted in
// Stats), because the store is an optimization, not a dependency.
//
// Concurrent Gets of the same key collapse onto one request
// (singleflight): the follower waits for the leader's response and
// shares the bytes, so a thundering herd inside one process costs one
// round trip — mirroring the SharedCache's own fill semantics one layer
// down.
// A circuit breaker guards every network call: after
// BreakerThreshold consecutive failures the breaker opens and
// operations short-circuit (Get answers an instant miss, Put drops)
// without touching the network, so a partitioned store costs ~0
// instead of a timeout per leaf fill. After BreakerCooldown one probe
// is let through half-open; its success re-closes the breaker, its
// failure re-opens it for another cooldown.
type Client struct {
	base string
	// HTTP is the underlying client; replaceable before first use for
	// tests and fault injection. The default carries DefaultTimeout.
	HTTP *http.Client
	// BreakerThreshold is the consecutive-failure count that opens the
	// breaker: 0 selects DefaultBreakerThreshold, negative disables the
	// breaker entirely. Set before first use.
	BreakerThreshold int
	// BreakerCooldown is the open→half-open wait; 0 selects
	// DefaultBreakerCooldown. Set before first use.
	BreakerCooldown time.Duration
	// Now is the breaker's clock, replaceable for tests; nil means
	// time.Now. Set before first use.
	Now func() time.Time

	mu       sync.Mutex
	inflight map[string]*getCall

	// brMu guards the breaker's state machine — separate from mu so a
	// leader blocked in getOnce never delays another caller's breaker
	// check.
	brMu      sync.Mutex
	brState   breakerState
	brFails   int  // consecutive failures while closed
	brProbing bool // a half-open probe is in flight
	brOpened  time.Time
	brTrips   uint64

	hits, misses, puts, errs, shared, short atomic.Uint64
}

// breakerState enumerates the circuit breaker's three states.
type breakerState int

const (
	brClosed breakerState = iota
	brOpen
	brHalfOpen
)

func (st breakerState) String() string {
	switch st {
	case brOpen:
		return "open"
	case brHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// getCall is one in-flight Get shared by its followers.
type getCall struct {
	done chan struct{}
	val  []byte
	ok   bool
}

// NewClient creates a client for the store at base (e.g.
// "http://127.0.0.1:7701").
func NewClient(base string) *Client {
	return &Client{
		base:     base,
		HTTP:     &http.Client{Timeout: DefaultTimeout},
		inflight: make(map[string]*getCall),
	}
}

// Stats returns the cumulative counters.
func (c *Client) Stats() ClientStats {
	st := ClientStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Puts:          c.puts.Load(),
		Errors:        c.errs.Load(),
		Shared:        c.shared.Load(),
		ShortCircuits: c.short.Load(),
	}
	st.Breaker, st.Trips, _ = c.BreakerState()
	return st
}

func (c *Client) threshold() int {
	if c.BreakerThreshold == 0 {
		return DefaultBreakerThreshold
	}
	return c.BreakerThreshold
}

func (c *Client) cooldown() time.Duration {
	if c.BreakerCooldown <= 0 {
		return DefaultBreakerCooldown
	}
	return c.BreakerCooldown
}

func (c *Client) now() time.Time {
	if c.Now != nil {
		return c.Now()
	}
	return time.Now()
}

// BreakerState implements core.BreakerReporter: the current state
// ("closed", "open", "half-open"; "" when the breaker is disabled),
// cumulative closed→open trips, and short-circuited operations.
func (c *Client) BreakerState() (state string, trips, shortCircuits uint64) {
	if c.BreakerThreshold < 0 {
		return "", 0, c.short.Load()
	}
	c.brMu.Lock()
	state, trips = c.brState.String(), c.brTrips
	c.brMu.Unlock()
	return state, trips, c.short.Load()
}

// allow reports whether a network call may proceed, advancing the
// open→half-open transition when the cooldown has elapsed. A false
// return means the caller must short-circuit (already counted).
func (c *Client) allow() bool {
	if c.BreakerThreshold < 0 {
		return true
	}
	c.brMu.Lock()
	defer c.brMu.Unlock()
	switch c.brState {
	case brClosed:
		return true
	case brOpen:
		if c.now().Sub(c.brOpened) < c.cooldown() {
			c.short.Add(1)
			return false
		}
		c.brState = brHalfOpen
		c.brProbing = true
		return true
	default: // half-open: exactly one probe at a time
		if c.brProbing {
			c.short.Add(1)
			return false
		}
		c.brProbing = true
		return true
	}
}

// record feeds a call's outcome into the state machine. ok means the
// store answered with an expected status (hit, miss, or over-budget
// rejection — the store is reachable and sane), not that the operation
// "succeeded": a 404 is a healthy answer.
func (c *Client) record(ok bool) {
	if c.BreakerThreshold < 0 {
		return
	}
	c.brMu.Lock()
	defer c.brMu.Unlock()
	wasHalfOpen := c.brState == brHalfOpen
	if wasHalfOpen {
		c.brProbing = false
	}
	if ok {
		c.brState = brClosed
		c.brFails = 0
		return
	}
	switch {
	case wasHalfOpen:
		c.tripLocked()
	case c.brState == brClosed:
		c.brFails++
		if c.brFails >= c.threshold() {
			c.tripLocked()
		}
	default:
		// Already open: a straggler that started before the trip.
	}
}

// tripLocked opens the breaker; the caller holds brMu.
func (c *Client) tripLocked() {
	c.brState = brOpen
	c.brOpened = c.now()
	c.brFails = 0
	c.brTrips++
}

func (c *Client) keyURL(key string) string {
	return c.base + "/v1/kv?key=" + url.QueryEscape(key)
}

// Get fetches the value under key; ok is false on a miss OR any
// failure — including an instant short-circuit miss while the breaker
// is open.
func (c *Client) Get(key string) ([]byte, bool) {
	if !c.allow() {
		return nil, false
	}
	c.mu.Lock()
	if call, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		// Counted before the wait so observers (tests, dashboards) see
		// the collapse while it is happening.
		c.shared.Add(1)
		<-call.done
		return call.val, call.ok
	}
	call := &getCall{done: make(chan struct{})}
	c.inflight[key] = call
	c.mu.Unlock()

	call.val, call.ok = c.getOnce(key)

	c.mu.Lock()
	delete(c.inflight, key)
	c.mu.Unlock()
	close(call.done)
	return call.val, call.ok
}

func (c *Client) getOnce(key string) ([]byte, bool) {
	resp, err := c.HTTP.Get(c.keyURL(key))
	if err != nil {
		c.errs.Add(1)
		c.record(false)
		return nil, false
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		val, err := io.ReadAll(resp.Body)
		if err != nil {
			c.errs.Add(1)
			c.record(false)
			return nil, false
		}
		c.hits.Add(1)
		c.record(true)
		return val, true
	case http.StatusNotFound:
		// A miss is a healthy answer: the store is reachable.
		c.misses.Add(1)
		c.record(true)
		return nil, false
	default:
		c.errs.Add(1)
		c.record(false)
		return nil, false
	}
}

// Put offers a value to the store, best-effort; dropped instantly
// while the breaker is open.
func (c *Client) Put(key string, val []byte) {
	c.puts.Add(1)
	if !c.allow() {
		return
	}
	req, err := http.NewRequest(http.MethodPut, c.keyURL(key), bytes.NewReader(val))
	if err != nil {
		c.errs.Add(1)
		c.record(false)
		return
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.HTTP.Do(req)
	if err != nil {
		c.errs.Add(1)
		c.record(false)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		c.record(true)
	case http.StatusRequestEntityTooLarge:
		// The store rejected an oversized value — a healthy, expected
		// refusal, not an outage signal.
		c.errs.Add(1)
		c.record(true)
	default:
		c.errs.Add(1)
		c.record(false)
	}
}

// ServerStats fetches the store's own counters (the fleet-stats
// aggregation surfaces them).
func (c *Client) ServerStats(ctx context.Context) (Stats, error) {
	var st Stats
	err := httpbody.GetJSON(ctx, c.HTTP, c.base+"/v1/kv/stats", &st)
	return st, err
}
