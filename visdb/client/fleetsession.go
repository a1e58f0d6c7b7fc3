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
	// MaxRecoveries bounds the recovery actions (session recreations
	// and endpoint rotations) one logical operation may consume before
	// its error surfaces; 0 selects DefaultMaxRecoveries, negative
	// disables recovery entirely (every failure surfaces). Recovery
	// itself is immediate: the per-request RetryPolicy of each endpoint
	// Client does the pacing.
	MaxRecoveries int
}

// DefaultMaxRecoveries is the per-operation recovery budget when
// FleetOptions.MaxRecoveries is zero.
const DefaultMaxRecoveries = 8

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
// mutation's response is lost and recovery exhausts MaxRecoveries, the
// operation's fate on the old incarnation is unknowable — the error
// surfaces and the next successful operation starts a fresh
// incarnation from the log, which contains only acknowledged
// operations. Results read between a kill and the next operation
// reflect the replayed log, never a half-applied drag.
//
// Endpoints are typically redundant visdbrouter front ends; a
// transport failure or an exhausted retry budget against one rotates
// to the next. A FleetSession, like a Session, represents one user's
// interaction loop: methods serialize on an internal mutex.
type FleetSession struct {
	mu       sync.Mutex
	clients  []*Client
	cur      int
	catalog  string
	query    string
	opt      Options
	maxRec   int
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
	fs := &FleetSession{
		clients: endpoints,
		catalog: catalog,
		query:   query,
		opt:     fo.Session,
		maxRec:  fo.MaxRecoveries,
	}
	if fs.maxRec == 0 {
		fs.maxRec = DefaultMaxRecoveries
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	budget := fs.maxRec
	for {
		sess, sum, err := fs.clients[fs.cur].NewSession(ctx, catalog, query, fs.opt)
		if err == nil {
			fs.sess = sess
			return fs, sum, nil
		}
		if !fs.recoverLocked(ctx, err, &budget) {
			return nil, Summary{}, err
		}
	}
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
// already closed it, and the idle sweep reaps anything missed. The
// FleetSession refuses further operations either way.
func (fs *FleetSession) Close(ctx context.Context) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.closed = true
	if fs.sess == nil {
		return nil
	}
	err := fs.sess.Close(ctx)
	fs.sess = nil
	if ae, ok := err.(*APIError); ok && ae.Code == wire.CodeSessionNotFound {
		return nil // the node's death closed it for us
	}
	return err
}

// apply runs one logical mutating operation through the sync → send →
// recover loop. The operation's sequence number is allocated once, here
// rather than by Session.nextSeq, and the request built under it is
// what every retry, recovery and replay sends, which is what makes the
// whole dance exactly-once.
func (fs *FleetSession) apply(ctx context.Context, build mutationFor) (Summary, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return Summary{}, errors.New("client: fleet session is closed")
	}
	fs.lastSeq++
	op := build(fs.lastSeq)
	budget := fs.maxRec
	for {
		if err := fs.syncLocked(ctx, &budget); err != nil {
			return Summary{}, err
		}
		sum, err := fs.sess.send(ctx, op)
		if err == nil {
			fs.log = append(fs.log, op)
			fs.synced = len(fs.log)
			return sum, nil
		}
		if !fs.recoverLocked(ctx, err, &budget) {
			return Summary{}, err
		}
	}
}

// read runs a read-only call through the same sync → recover loop
// (reads carry no sequence number; they are naturally idempotent).
func (fs *FleetSession) read(ctx context.Context, fn func(s *Session) error) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return errors.New("client: fleet session is closed")
	}
	budget := fs.maxRec
	for {
		if err := fs.syncLocked(ctx, &budget); err != nil {
			return err
		}
		err := fn(fs.sess)
		if err == nil {
			return nil
		}
		if !fs.recoverLocked(ctx, err, &budget) {
			return err
		}
	}
}

// syncLocked guarantees a live incarnation with the whole log
// replayed: recreate if lost, then replay log[synced:] under the
// original sequence numbers. Replay errors feed the same recovery
// loop, so a node that dies mid-replay just moves the replay to the
// next placement owner.
func (fs *FleetSession) syncLocked(ctx context.Context, budget *int) error {
	for {
		if fs.sess == nil {
			sess, _, err := fs.clients[fs.cur].NewSession(ctx, fs.catalog, fs.query, fs.opt)
			if err != nil {
				if fs.recoverLocked(ctx, err, budget) {
					continue
				}
				return err
			}
			fs.sess, fs.synced = sess, 0
		}
		for fs.synced < len(fs.log) {
			if _, err := fs.sess.send(ctx, fs.log[fs.synced]); err != nil {
				if fs.recoverLocked(ctx, err, budget) {
					break // restart: recreate or re-aim, then resume replay
				}
				return err
			}
			fs.synced++
		}
		if fs.sess != nil && fs.synced == len(fs.log) {
			return nil
		}
	}
}

// recoverLocked decides whether err is survivable and performs the
// recovery action: session_not_found (the node died and a replacement
// owns the shard — or the idle sweep reaped us) drops the incarnation
// for recreation; any other recoverable failure (transport error, a
// retryable fleet condition that exhausted the endpoint's own retry
// budget) rotates to the next endpoint. Returns false when the error
// must surface: non-recoverable, context over, or budget exhausted.
func (fs *FleetSession) recoverLocked(ctx context.Context, err error, budget *int) bool {
	if ctx.Err() != nil || *budget <= 0 {
		return false
	}
	ae, isAPI := err.(*APIError)
	switch {
	case isAPI && ae.Code == wire.CodeSessionNotFound:
		*budget--
		fs.sess, fs.synced = nil, 0
		fs.recovers.Add(1)
	case isAPI && !retryable(err):
		return false // deterministic server decision; recovery can't help
	default:
		*budget--
		fs.rotateLocked()
	}
	return true
}

// rotateLocked re-aims the session (and future creations) at the next
// endpoint in failover order.
func (fs *FleetSession) rotateLocked() {
	if len(fs.clients) <= 1 {
		return
	}
	fs.cur = (fs.cur + 1) % len(fs.clients)
	if fs.sess != nil {
		fs.sess.c = fs.clients[fs.cur]
	}
}
