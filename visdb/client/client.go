// Package client is the typed Go client of the visdbd serving
// protocol: it drives the paper's visual feedback loop — query
// replacement, range sliders, weighting factors, undo, top-k result
// retrieval — against a remote visdbd (or any internal/server
// handler) over HTTP/JSON, using only the standard library.
//
// A Session carries the part of visdb.Session's interaction the wire
// has ops for — query replacement, a range slider addressed by
// attribute, a weight addressed by predicate index, percentage
// displayed, undo — plus the ranked rows of the overall result. Every
// method takes a context and returns the server's post-recalculation
// summary, so a thin client renders the stats panel without ever
// transferring more than the display budget:
//
//	c := client.New("http://localhost:8491")
//	s, _, err := c.NewSession(ctx, "env", `SELECT temp FROM obs WHERE temp > 20`, client.Options{})
//	if err != nil { ... }
//	defer s.Close(ctx)
//	sum, err := s.SetRange(ctx, "temp", 15, 25)     // drag the slider
//	res, err := s.Results(ctx, 10)                  // top-10 rows
//
// The client is safe for concurrent use; one Session, like its
// server-side counterpart, represents a single user's interaction
// loop and is serialized by the server's per-session mutex.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/httpbody"
	"repro/internal/wire"
)

// Wire types re-exported so callers need no internal import.
type (
	// Options configures a new session; zero fields pick the server's
	// defaults.
	Options = wire.SessionOptions
	// Summary is the scalar session state every mutating call returns.
	Summary = wire.Summary
	// Timings is the stage breakdown of the last recalculation.
	Timings = wire.Timings
	// Row is one ranked result row.
	Row = wire.Row
	// Results carries the summary plus the top-k rows.
	Results = wire.ResultsResponse
	// ShardStats describes one server shard.
	ShardStats = wire.ShardStats
	// CatalogInfo describes one served catalog.
	CatalogInfo = wire.CatalogInfo
	// Health is a node's self-report (per-shard sessions, quarantined
	// catalogs, uptime).
	Health = wire.HealthResponse
	// FleetStats aggregates a whole fleet behind a router.
	FleetStats = wire.FleetStats
)

// APIError is a non-2xx protocol response.
type APIError struct {
	Status int    // HTTP status code
	Msg    string // server's error message
	// Code is the server's machine-readable error class (a key of
	// wire.CodeTable), empty for uncoded failures. Branch on Code, never
	// on Msg.
	Code string
	// RetryAfter is the server's Retry-After hint, zero when absent.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("visdbd: %s (http %d, %s)", e.Msg, e.Status, e.Code)
	}
	return fmt.Sprintf("visdbd: %s (http %d)", e.Msg, e.Status)
}

// RetryPolicy is the attempt budget and pacing of one logical operation
// (FleetSession: with whatever recreation and replay it needs). What is
// retried is not the policy's to say: the failure's code decides
// (wire.CodeTable), and the sequence number stamped on every mutation
// makes a retry exactly-once — a replayed request returns the original
// response instead of applying twice.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget, first try included;
	// values below 1 read as 1 (no retries).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff: attempt n (1-based)
	// waits BaseDelay·2^(n-1), capped at MaxDelay, spread uniformly over
	// ±50 % so clients shed by one outage do not retry in lockstep, and
	// never less than the server's Retry-After hint.
	BaseDelay time.Duration
	// MaxDelay caps a single backoff wait; 0 means uncapped.
	MaxDelay time.Duration
	// Sleep waits out a delay; nil selects a real timer bounded by the
	// context. Tests inject a virtual clock so retry schedules run in
	// microseconds.
	Sleep func(ctx context.Context, d time.Duration) error
}

// DefaultRetryPolicy is what New gives a client: 4 attempts, 100 ms
// base delay doubling to a 2 s cap.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second}
}

// delay computes the wait before retrying after attempt n (1-based),
// honoring a server Retry-After hint when it is longer than the
// backoff would be.
func (p RetryPolicy) delay(attempt int, retryAfter time.Duration) time.Duration {
	d := p.BaseDelay << (attempt - 1)
	if p.BaseDelay > 0 && d < p.BaseDelay { // overflow past ~60 attempts
		d = p.MaxDelay
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	d = d/2 + time.Duration(rand.Float64()*float64(d))
	return max(d, retryAfter)
}

// sleep waits d or until ctx is done, via the injected clock if any.
func (p RetryPolicy) sleep(ctx context.Context, d time.Duration) error {
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// run is the edge's one retry loop: try, classify the failure, act, pace,
// try again — at most MaxAttempts tries for the whole logical operation.
// recoverFn is the between-attempts action, told what the failure's
// class asks for and answering whether it could act on it: a Session
// can only resend, a FleetSession drops its incarnation or rotates its
// endpoint. A transport error counts as RetrySame (applied or not, its
// Seq settles that); when the budget, the context or the class says
// stop, the last real failure surfaces.
func (p RetryPolicy) run(ctx context.Context, try func() error, recoverFn func(wire.RetryClass) bool) error {
	for attempt := 1; ; attempt++ {
		err := try()
		if err == nil || attempt >= p.MaxAttempts || ctx.Err() != nil {
			return err
		}
		class, hint := wire.RetrySame, time.Duration(0)
		if ae, ok := err.(*APIError); ok {
			class, hint = wire.ClassOf(ae.Code, ae.Status), ae.RetryAfter
		}
		if class == wire.RetryNever || !recoverFn(class) {
			return err
		}
		if p.sleep(ctx, p.delay(attempt, hint)) != nil {
			return err
		}
	}
}

// resendOnly is run's between-attempts action for a caller that keeps no
// operation log: the same request again, or nothing.
func resendOnly(class wire.RetryClass) bool { return class == wire.RetrySame }

// Client speaks the serving protocol to one server.
type Client struct {
	base string
	// HTTP is the underlying client; replace it before first use for
	// custom transports or timeouts. Defaults to http.DefaultClient.
	HTTP *http.Client
	// Retry is the budget and pacing of every call (see RetryPolicy);
	// New sets DefaultRetryPolicy. MaxAttempts 1 surfaces every failure
	// directly.
	Retry RetryPolicy
}

// New creates a client for a server base URL (e.g.
// "http://localhost:8491", no trailing slash needed).
func New(baseURL string) *Client {
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	return &Client{base: baseURL, HTTP: http.DefaultClient, Retry: DefaultRetryPolicy()}
}

// framedResults is the out target of a tuple-less results read-back:
// the request then asks for the binary frame (wire.ResultsFrameType)
// and the response is decoded by its Content-Type: the server answers
// JSON when the frame cannot hold the summary.
type framedResults struct{ res *Results }

// do performs a JSON round trip under c.Retry. A nil in sends no body;
// a nil out discards the response body. The body is marshaled once and
// replayed from the same bytes on every attempt.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var buf []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		buf = b
	}
	return c.Retry.run(ctx, func() error { return c.doOnce(ctx, method, path, buf, out) }, resendOnly)
}

// doOnce performs exactly one round trip.
func (c *Client) doOnce(ctx context.Context, method, path string, buf []byte, out any) error {
	var body io.Reader
	if buf != nil {
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if buf != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	framed, _ := out.(*framedResults)
	if framed != nil {
		req.Header.Set("Accept", wire.ResultsFrameType+", application/json")
		out = framed.res
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e wire.ErrorResponse
		msg := resp.Status
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e) == nil && e.Error != "" {
			msg = e.Error
		}
		ae := &APIError{Status: resp.StatusCode, Msg: msg, Code: e.Code}
		// RFC 9110 §10.2.3: Retry-After is either delay-seconds (what
		// visdbd and visdbrouter send) or an HTTP-date (what a proxy in
		// between may). A date in the past, or garbage, reads as no hint.
		if v := resp.Header.Get("Retry-After"); v != "" {
			if secs, perr := strconv.Atoi(v); perr == nil && secs >= 0 {
				ae.RetryAfter = time.Duration(secs) * time.Second
			} else if at, perr := http.ParseTime(v); perr == nil {
				ae.RetryAfter = max(0, time.Until(at))
			}
		}
		return ae
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	if framed != nil {
		if mt, _, _ := mime.ParseMediaType(resp.Header.Get("Content-Type")); mt == wire.ResultsFrameType {
			// ReadAll ends at EOF, so the connection is reusable; the
			// decoder checks the declared row count against these bytes.
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				return err
			}
			*framed.res, err = wire.DecodeResultsFrame(b)
			return err
		}
	}
	return httpbody.DecodeJSON(resp.Body, out)
}

// Session is a remote interactive session.
type Session struct {
	c *Client
	// ID is the server-assigned session ID (it embeds the owning
	// shard).
	ID string
	// Catalog and Shard echo the routing decision.
	Catalog string
	Shard   int
	// seq numbers this session's mutating operations 1, 2, 3, … — the
	// idempotency keys of the serving protocol. Every retry of one
	// logical operation reuses its number, so a retransmission after an
	// ambiguous failure (the response was lost, not the request) replays
	// the server's stored response instead of applying twice.
	seq atomic.Uint64
}

// nextSeq allocates the sequence number of one logical mutating
// operation.
func (s *Session) nextSeq() uint64 { return s.seq.Add(1) }

// NewSession opens a session on a catalog and returns it with the
// summary of the initial run.
func (c *Client) NewSession(ctx context.Context, catalog, query string, opt Options) (*Session, Summary, error) {
	var info wire.SessionInfo
	err := c.do(ctx, http.MethodPost, "/v1/sessions",
		wire.CreateSessionRequest{Catalog: catalog, Query: query, Options: opt}, &info)
	if err != nil {
		return nil, Summary{}, err
	}
	return &Session{c: c, ID: info.ID, Catalog: info.Catalog, Shard: info.Shard}, info.Summary, nil
}

// path builds a session endpoint path.
func (s *Session) path(suffix string) string {
	p := "/v1/sessions/" + url.PathEscape(s.ID)
	if suffix != "" {
		p += "/" + suffix
	}
	return p
}

// mutation is one mutating request of the session protocol as it goes
// over the wire: the endpoint suffix and the wire request value, which
// carries the sequence number it was (and will always be) issued under.
// FleetSession's replay log is a list of these.
type mutation struct {
	suffix string
	req    any
}

// mutationFor builds an operation's request once its sequence number is
// known; one constructor per operation serves Session and FleetSession.
type mutationFor func(seq uint64) mutation

func queryMutation(query string) mutationFor {
	return func(seq uint64) mutation { return mutation{"query", wire.QueryRequest{Query: query, Seq: seq}} }
}

// rangeMutation maps open sides (±Inf) to the null bounds they travel
// as.
func rangeMutation(attr string, lo, hi float64) mutationFor {
	return func(seq uint64) mutation {
		req := wire.RangeRequest{Attr: attr, Seq: seq}
		if !math.IsInf(lo, -1) {
			req.Lo = &lo
		}
		if !math.IsInf(hi, 1) {
			req.Hi = &hi
		}
		return mutation{"range", req}
	}
}

func weightMutation(pred int, weight float64) mutationFor {
	return func(seq uint64) mutation {
		return mutation{"weight", wire.WeightRequest{Pred: pred, Weight: weight, Seq: seq}}
	}
}

func undoMutation() mutationFor {
	return func(seq uint64) mutation { return mutation{"undo", wire.UndoRequest{Seq: seq}} }
}

func pctMutation(pct float64) mutationFor {
	return func(seq uint64) mutation { return mutation{"pct", wire.PctRequest{Pct: pct, Seq: seq}} }
}

// send posts m to the session as is — retries and replays included, so
// its sequence number never changes.
func (s *Session) send(ctx context.Context, m mutation) (Summary, error) {
	var sum Summary
	err := s.c.do(ctx, http.MethodPost, s.path(m.suffix), m.req, &sum)
	return sum, err
}

// SetQuery replaces the whole query (the old state stays undoable).
func (s *Session) SetQuery(ctx context.Context, query string) (Summary, error) {
	return s.send(ctx, queryMutation(query)(s.nextSeq()))
}

// SetRange moves the range of the first condition on attr — the
// remote slider drag. Pass math.Inf(-1) / math.Inf(1) for open sides;
// they travel as null bounds.
func (s *Session) SetRange(ctx context.Context, attr string, lo, hi float64) (Summary, error) {
	return s.send(ctx, rangeMutation(attr, lo, hi)(s.nextSeq()))
}

// SetWeight sets the weighting factor of the pred-th top-level
// selection predicate (query order, 0-based).
func (s *Session) SetWeight(ctx context.Context, pred int, weight float64) (Summary, error) {
	return s.send(ctx, weightMutation(pred, weight)(s.nextSeq()))
}

// Undo reverts the most recent modification.
func (s *Session) Undo(ctx context.Context) (Summary, error) {
	return s.send(ctx, undoMutation()(s.nextSeq()))
}

// SetPercentDisplayed fixes the displayed fraction (the paper's
// "percentage of the data displayed" control); pct must be in [0, 1],
// 0 restores the automatic display budget. Not undoable: the server
// takes no snapshot for it, so a following Undo reverts the latest
// query/range/weight edit instead.
func (s *Session) SetPercentDisplayed(ctx context.Context, pct float64) (Summary, error) {
	return s.send(ctx, pctMutation(pct)(s.nextSeq()))
}

// Results fetches the top-k ranked rows (item index, combined
// distance, relevance factor). top < 0 means "everything displayed";
// the server caps k at the displayed count either way. The rows travel
// as the binary results frame when the server offers it and as JSON
// otherwise; the returned value is the same bit for bit.
func (s *Session) Results(ctx context.Context, top int) (Results, error) {
	return s.results(ctx, top, false)
}

// ResultsWithTuples is Results plus the rendered attribute values of
// each row's underlying tuple(s).
func (s *Session) ResultsWithTuples(ctx context.Context, top int) (Results, error) {
	return s.results(ctx, top, true)
}

func (s *Session) results(ctx context.Context, top int, tuples bool) (Results, error) {
	q := url.Values{}
	if top >= 0 {
		q.Set("top", strconv.Itoa(top))
	}
	if tuples {
		q.Set("tuples", "1")
	}
	p := s.path("results")
	if len(q) > 0 {
		p += "?" + q.Encode()
	}
	var res Results
	var out any = &res
	if !tuples {
		out = &framedResults{res: &res}
	}
	err := s.c.do(ctx, http.MethodGet, p, nil, out)
	return res, err
}

// Timings fetches the stage timings of the last recalculation.
func (s *Session) Timings(ctx context.Context) (Summary, error) {
	var sum Summary
	err := s.c.do(ctx, http.MethodGet, s.path("timings"), nil, &sum)
	return sum, err
}

// Close deletes the session on the server, idempotently: session_not_found
// — a lost response's attempt closed it, the idle sweep or a node's death
// took it, the server never issued the ID — means gone, and answers nil.
func (s *Session) Close(ctx context.Context) error {
	err := s.c.do(ctx, http.MethodDelete, s.path(""), nil, nil)
	if ae, ok := err.(*APIError); ok && ae.Code == wire.CodeSessionNotFound {
		return nil
	}
	return err
}

// ShardStats fetches every shard's serving and shared-cache counters.
func (c *Client) ShardStats(ctx context.Context) ([]ShardStats, error) {
	var out []ShardStats
	err := c.do(ctx, http.MethodGet, "/v1/shards", nil, &out)
	return out, err
}

// Catalogs lists the served catalogs and their shard homes.
func (c *Client) Catalogs(ctx context.Context) ([]CatalogInfo, error) {
	var out []CatalogInfo
	err := c.do(ctx, http.MethodGet, "/v1/catalogs", nil, &out)
	return out, err
}

// Health fetches a node's self-report: per-shard session counts,
// quarantined catalogs, uptime.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var out Health
	err := c.do(ctx, http.MethodGet, "/v1/health", nil, &out)
	return out, err
}

// Fleet fetches the fleet-wide aggregation from a visdbrouter front
// end (membership, per-member shard ownership, summed cache counters,
// the fleet shared-hit rate).
func (c *Client) Fleet(ctx context.Context) (FleetStats, error) {
	var out FleetStats
	err := c.do(ctx, http.MethodGet, "/v1/fleet", nil, &out)
	return out, err
}
