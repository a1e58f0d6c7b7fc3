package client

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// FleetOptions configures a FleetSession.
type FleetOptions struct {
	// Session carries the engine options for the underlying session
	// (and for every recreated incarnation of it).
	Session Options
}

// FleetSession is a self-healing session over a fleet: a typed wrapper
// around Session that records every mutating operation in a
// deterministic log and, when the session's node dies (the fleet
// answers session_not_found after a failover, or an endpoint stops
// answering), transparently recreates the session on the current
// placement owner and replays the log — so a node kill mid-drag
// surfaces as latency, not an error.
//
// # Recovery contract
//
// What replays: every acknowledged mutating operation (SetQuery,
// SetRange, SetWeight, Undo, SetPercentDisplayed), in order, under its
// original sequence number. Because the serving protocol applies a
// sequence number at most once per session, a replay after an
// ambiguous failure (response lost mid-recovery) can never double-
// apply: each incarnation's recalculation count is exactly 1 (the
// creation run) + the number of logged operations. An operation that
// failed deterministically (4xx) consumed its number but is not
// logged; the gap is legal and skipped forever.
//
// What can't replay: state the server never acknowledged. If the
// CREATION response is lost, the retry creates a fresh session and the
// orphan lives on the old node until the idle-TTL sweep reaps it; if a
// mutation's response is lost and recovery exhausts the budget, the
// operation's fate on the old incarnation is unknowable — the error
// surfaces and the next successful operation starts a fresh
// incarnation from the log, which contains only acknowledged
// operations. Results read between a kill and the next operation
// reflect the replayed log, never a half-applied drag.
//
// # One budget
//
// A logical operation — with whatever recreation and replay it needs —
// spends ONE attempt budget, the first endpoint's RetryPolicy, in the
// loop a plain Session uses: every request goes out as a single attempt,
// a failed one costs an attempt whatever it was (creation, replayed
// mutation, the operation itself), and between attempts the session
// first acts on the failure's class — drop the incarnation on
// "recreate", rotate to the next endpoint otherwise — and then waits the
// longer of the backoff and the server's Retry-After hint.
//
// Endpoints are typically redundant visdbrouter front ends. A
// FleetSession, like a Session, represents one user's interaction loop:
// methods serialize on an internal mutex.
type FleetSession struct {
	mu       sync.Mutex
	clients  []*Client // single-attempt copies of the caller's endpoints
	policy   RetryPolicy
	cur      int
	catalog  string
	query    string
	opt      Options
	sess     *Session // nil while the session is lost
	synced   int      // log prefix applied to the current incarnation
	log      []mutation
	lastSeq  uint64 // last allocated sequence number (gaps stay skipped)
	closed   bool
	recovers atomic.Uint64
}

// NewFleetSession opens a self-healing session through the first
// reachable endpoint and returns it with the initial run's summary.
// At least one endpoint is required; order is the failover order.
func NewFleetSession(ctx context.Context, endpoints []*Client, catalog, query string, fo FleetOptions) (*FleetSession, Summary, error) {
	if len(endpoints) == 0 {
		return nil, Summary{}, errors.New("client: fleet session needs at least one endpoint")
	}
	fs := &FleetSession{catalog: catalog, query: query, opt: fo.Session, policy: endpoints[0].Retry}
	for _, c := range endpoints {
		single := *c
		single.Retry.MaxAttempts = 1
		fs.clients = append(fs.clients, &single)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var sum Summary
	err := fs.policy.run(ctx, func() (err error) {
		sum, err = fs.createLocked(ctx)
		return err
	}, fs.recoverLocked)
	if err != nil {
		return nil, Summary{}, err
	}
	return fs, sum, nil
}

// ID returns the current incarnation's server-assigned session ID
// (it changes across recoveries), or "" while the session is lost.
func (fs *FleetSession) ID() string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.sess == nil {
		return ""
	}
	return fs.sess.ID
}

// Recoveries returns how many times the session was recreated and
// replayed (endpoint rotations not included).
func (fs *FleetSession) Recoveries() uint64 { return fs.recovers.Load() }

// Ops returns the number of logged (acknowledged) mutating operations.
func (fs *FleetSession) Ops() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.log)
}

// SetQuery replaces the whole query.
func (fs *FleetSession) SetQuery(ctx context.Context, query string) (Summary, error) {
	return fs.apply(ctx, queryMutation(query))
}

// SetRange moves the range of the first condition on attr. Pass
// math.Inf(-1) / math.Inf(1) for open sides.
func (fs *FleetSession) SetRange(ctx context.Context, attr string, lo, hi float64) (Summary, error) {
	return fs.apply(ctx, rangeMutation(attr, lo, hi))
}

// SetWeight sets the weighting factor of the pred-th top-level
// selection predicate.
func (fs *FleetSession) SetWeight(ctx context.Context, pred int, weight float64) (Summary, error) {
	return fs.apply(ctx, weightMutation(pred, weight))
}

// Undo reverts the most recent undoable modification.
func (fs *FleetSession) Undo(ctx context.Context) (Summary, error) {
	return fs.apply(ctx, undoMutation())
}

// SetPercentDisplayed fixes the displayed fraction; see
// Session.SetPercentDisplayed.
func (fs *FleetSession) SetPercentDisplayed(ctx context.Context, pct float64) (Summary, error) {
	return fs.apply(ctx, pctMutation(pct))
}

// Results fetches the top-k ranked rows, recovering first if the
// session was lost (the replayed state answers identically).
func (fs *FleetSession) Results(ctx context.Context, top int) (Results, error) {
	var res Results
	err := fs.read(ctx, func(s *Session) error {
		var e error
		res, e = s.Results(ctx, top)
		return e
	})
	return res, err
}

// ResultsWithTuples is Results plus rendered tuple values.
func (fs *FleetSession) ResultsWithTuples(ctx context.Context, top int) (Results, error) {
	var res Results
	err := fs.read(ctx, func(s *Session) error {
		var e error
		res, e = s.ResultsWithTuples(ctx, top)
		return e
	})
	return res, err
}

// Timings fetches the stage timings of the last recalculation.
func (fs *FleetSession) Timings(ctx context.Context) (Summary, error) {
	var sum Summary
	err := fs.read(ctx, func(s *Session) error {
		var e error
		sum, e = s.Timings(ctx)
		return e
	})
	return sum, err
}

// Close deletes the current incarnation, best-effort: a dead node
// already closed it (Session.Close answers nil for that), and the idle
// sweep reaps anything missed. The FleetSession refuses further
// operations either way.
func (fs *FleetSession) Close(ctx context.Context) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.closed = true
	if fs.sess == nil {
		return nil
	}
	err := fs.sess.Close(ctx)
	fs.sess = nil
	return err
}

// apply runs one logical mutating operation. Its sequence number is
// allocated once, here rather than by Session.nextSeq, and the request
// built under it is what every attempt, recovery and replay sends, which
// is what makes the whole dance exactly-once.
func (fs *FleetSession) apply(ctx context.Context, build mutationFor) (Summary, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.lastSeq++
	op := build(fs.lastSeq)
	var sum Summary
	err := fs.doLocked(ctx, func(s *Session) (err error) {
		sum, err = s.send(ctx, op)
		return err
	})
	if err != nil {
		return Summary{}, err
	}
	fs.log = append(fs.log, op)
	fs.synced = len(fs.log)
	return sum, nil
}

// read runs a read-only call (reads carry no sequence number; they are
// naturally idempotent).
func (fs *FleetSession) read(ctx context.Context, call func(s *Session) error) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.doLocked(ctx, call)
}

// doLocked spends the one budget on one logical operation: each attempt
// brings a live incarnation up to the whole log and then makes the call,
// stopping at its first failed request.
func (fs *FleetSession) doLocked(ctx context.Context, call func(s *Session) error) error {
	if fs.closed {
		return errors.New("client: fleet session is closed")
	}
	return fs.policy.run(ctx, func() error {
		if fs.sess == nil {
			if _, err := fs.createLocked(ctx); err != nil {
				return err
			}
		}
		// Replay under the original sequence numbers; a node that dies
		// mid-replay just moves the rest to the next placement owner.
		for ; fs.synced < len(fs.log); fs.synced++ {
			if _, err := fs.sess.send(ctx, fs.log[fs.synced]); err != nil {
				return err
			}
		}
		return call(fs.sess)
	}, fs.recoverLocked)
}

// createLocked opens a fresh incarnation through the current endpoint.
func (fs *FleetSession) createLocked(ctx context.Context) (Summary, error) {
	sess, sum, err := fs.clients[fs.cur].NewSession(ctx, fs.catalog, fs.query, fs.opt)
	if err == nil {
		fs.sess, fs.synced = sess, 0
	}
	return sum, err
}

// recoverLocked is the between-attempts action: "recreate" (the node
// died and a replacement owns the shard, or the idle sweep reaped us)
// drops the incarnation so the next attempt opens a new one; any other
// retryable failure — a transport error, a shed, a rolled-back overrun —
// re-aims the session and future creations at the next endpoint in
// failover order.
func (fs *FleetSession) recoverLocked(class wire.RetryClass) bool {
	if class == wire.RetryRecreate {
		fs.sess = nil
		fs.recovers.Add(1)
	} else if len(fs.clients) > 1 {
		fs.cur = (fs.cur + 1) % len(fs.clients)
		if fs.sess != nil {
			fs.sess.c = fs.clients[fs.cur]
		}
	}
	return true
}
