package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/httpbody"
	"repro/internal/query"
	"repro/internal/relevance"
	"repro/internal/session"
	"repro/internal/wire"
)

// codeOf names the wire code of a session-layer failure; "" is a request
// the session refused (no such attribute, a query that does not parse),
// which travels uncoded.
func codeOf(err error) string {
	switch {
	case errors.Is(err, errNoSession):
		return wire.CodeSessionNotFound
	case errors.Is(err, context.DeadlineExceeded):
		return wire.CodeDeadline
	case errors.Is(err, context.Canceled):
		return wire.CodeCanceled
	case errors.Is(err, errNothingToUndo):
		return wire.CodeNothingToUndo
	}
	return ""
}

// writeErr answers err: under its code's row of wire.CodeTable when it
// has one, else uncoded under status.
func writeErr(w http.ResponseWriter, status int, err error) {
	if code := codeOf(err); code != "" {
		wire.WriteError(w, code, err)
		return
	}
	httpbody.WriteJSON(w, status, wire.ErrorResponse{Error: err.Error()})
}

// decodeBody parses a JSON request body (capped at 1 MiB — every
// protocol request is a few hundred bytes), answering 400 itself when it
// does not parse.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// summaryLocked builds the wire summary of a session's current result;
// the caller holds ss.mu.
func summaryLocked(ss *serverSession) wire.Summary {
	res := ss.sess.Result()
	tm := res.Timings
	st := res.Stats()
	return wire.Summary{
		N:          st.NumObjects,
		Displayed:  st.NumDisplayed,
		NumResults: st.NumResults,
		Recalcs:    ss.sess.Recalcs,
		Timings:    wire.TimingsOf(tm),
	}
}

// handleCreate opens a session: route the catalog to its shard, run
// the initial recalculation, register. The shard lock is held only for
// registration — initial runs of distinct sessions proceed
// concurrently and share leaves through the catalog tier.
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req wire.CreateSessionRequest
	if !decodeBody(w, r, &req) {
		return
	}
	cs, ok := s.catalogs[req.Catalog]
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no catalog %q", req.Catalog))
		return
	}
	if qerr := cs.quarantineErr(); qerr != nil {
		wire.WriteError(w, wire.CodeCatalogQuarantined, qerr)
		return
	}
	// Cheap pre-check so a full shard refuses before paying the
	// initial recalculation; register re-checks authoritatively under
	// the shard lock.
	if err := cs.shard.checkCapacity(); err != nil {
		wire.WriteError(w, wire.CodeSessionCap, err)
		return
	}
	opt := s.sessionOptions(req.Options)
	sess, err := session.NewSQLSharedCtx(r.Context(), cs.cat, nil, opt, req.Query, cs.shared)
	// A run over a corrupt segment file fails, or completes (corrupt
	// segments decode as zeroes) with garbage: either way quarantine and
	// refuse instead of publishing the session.
	if cerr := cs.checkCorrupt(); cerr != nil {
		wire.WriteError(w, wire.CodeCatalogQuarantined, cerr)
		return
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	// Capture the initial run's count before the session is published:
	// once register returns, its (predictable) ID is addressable and a
	// concurrent edit could mutate sess.Recalcs under its own mutex.
	initialRecalcs := uint64(sess.Recalcs)
	ss, err := cs.shard.register(sess, cs)
	if err != nil {
		// The discarded session's work stays out of the shard counter,
		// keeping recalcs attributable to sessions that ever existed.
		wire.WriteError(w, wire.CodeSessionCap, err)
		return
	}
	cs.shard.recalcs.Add(initialRecalcs)
	ss.mu.Lock()
	info := wire.SessionInfo{ID: ss.id, Catalog: cs.name, Shard: cs.shard.id, Summary: summaryLocked(ss)}
	ss.mu.Unlock()
	httpbody.WriteJSON(w, http.StatusOK, info)
}

// sessionEdit is the shared tail of every mutating session endpoint:
// resolve the ID to its shard, serialize on the session's mutex,
// settle the idempotency sequence number, run the edit under the
// request's deadline, attribute the recalculations to the shard, and
// answer with the fresh summary. The request body is fully decoded
// BEFORE this runs, so the session mutex is never held across network
// I/O (a client trickling a body must not stall the session's
// readers).
//
// Sequence semantics are wire.RangeRequest.Seq's: past the last applied
// number applies, the last applied number replays its stored response,
// a stale one answers seq_conflict. An outcome is recorded exactly when
// it is a decision (success, or a failure nobody may resend): a failure
// of class RetrySame was rolled back, so the retry must re-apply, which
// is what not advancing the number achieves.
func (s *Server) sessionEdit(w http.ResponseWriter, r *http.Request, seq uint64, edit func(ss *serverSession) error) {
	if seq == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("bad request body: a mutation needs a positive seq"))
		return
	}
	ss, err := s.lookup(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	ss.mu.Lock()
	if qerr := ss.cat.quarantineErr(); qerr != nil {
		ss.mu.Unlock()
		wire.WriteError(w, wire.CodeCatalogQuarantined, qerr)
		return
	}
	switch {
	case seq == ss.seq:
		rep := ss.reply
		ss.mu.Unlock()
		rep.write(w)
		return
	case seq < ss.seq:
		cur := ss.seq
		ss.mu.Unlock()
		wire.WriteError(w, wire.CodeSeqConflict,
			fmt.Errorf("sequence conflict: request carries stale seq %d, session applied up to %d", seq, cur))
		return
	}
	ss.sess.SetRunContext(r.Context())
	before := ss.sess.Recalcs
	err = edit(ss)
	ss.sess.SetRunContext(nil)
	ss.shard.recalcs.Add(uint64(ss.sess.Recalcs - before))
	// Poll the catalog's sticky corruption state: a recalculation that
	// decoded a corrupt segment "succeeded" over zeroed data, and its
	// result must not be served.
	if cerr := ss.cat.checkCorrupt(); cerr != nil {
		ss.mu.Unlock()
		wire.WriteError(w, wire.CodeCatalogQuarantined, cerr)
		return
	}
	rep := storedReply{err: err}
	if err == nil {
		rep.summary = summaryLocked(ss)
	}
	if wire.CodeTable[codeOf(err)].Class != wire.RetrySame {
		ss.seq, ss.reply = seq, rep
	}
	ss.mu.Unlock()
	rep.write(w)
}

// write emits a stored reply — the single encoding for both fresh and
// replayed responses, so a replay is byte-identical to the original.
func (rep storedReply) write(w http.ResponseWriter) {
	if rep.err != nil {
		writeErr(w, http.StatusBadRequest, rep.err)
		return
	}
	httpbody.WriteJSON(w, http.StatusOK, rep.summary)
}

var errNothingToUndo = errors.New("nothing to undo")

// handleQuery replaces the whole query.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req wire.QueryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s.sessionEdit(w, r, req.Seq, func(ss *serverSession) error {
		return ss.sess.SetQuery(req.Query)
	})
}

// handleRange moves a condition's range; null bounds travel as ±Inf.
func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	var req wire.RangeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	lo, hi := math.Inf(-1), math.Inf(1)
	if req.Lo != nil {
		lo = *req.Lo
	}
	if req.Hi != nil {
		hi = *req.Hi
	}
	s.sessionEdit(w, r, req.Seq, func(ss *serverSession) error {
		return ss.sess.SetRangeByAttr(req.Attr, lo, hi)
	})
}

// handleWeight sets a top-level predicate's weighting factor by its
// query order index.
func (s *Server) handleWeight(w http.ResponseWriter, r *http.Request) {
	var req wire.WeightRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s.sessionEdit(w, r, req.Seq, func(ss *serverSession) error {
		preds := query.Predicates(ss.sess.Query().Where)
		if req.Pred < 0 || req.Pred >= len(preds) {
			return fmt.Errorf("predicate index %d out of range [0,%d)", req.Pred, len(preds))
		}
		return ss.sess.SetWeight(preds[req.Pred], req.Weight)
	})
}

// handleUndo reverts the last modification.
func (s *Server) handleUndo(w http.ResponseWriter, r *http.Request) {
	var req wire.UndoRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s.sessionEdit(w, r, req.Seq, func(ss *serverSession) error {
		if !ss.sess.CanUndo() {
			return errNothingToUndo
		}
		return ss.sess.Undo()
	})
}

// handlePct fixes the session's displayed fraction — the paper's
// "percentage of the data displayed" control, now a wire operation.
// Not undoable: SetPercentDisplayed takes no snapshot, so an undo
// after a pct change reverts the latest query/range/weight edit.
func (s *Server) handlePct(w http.ResponseWriter, r *http.Request) {
	var req wire.PctRequest
	if !decodeBody(w, r, &req) {
		return
	}
	s.sessionEdit(w, r, req.Seq, func(ss *serverSession) error {
		return ss.sess.SetPercentDisplayed(req.Pct)
	})
}

// acceptsResultsFrame reports whether the request lists the results
// frame's media type in Accept. Parameters (q-values) are ignored: the
// only client that names the type wants it.
func acceptsResultsFrame(r *http.Request) bool {
	for _, line := range r.Header.Values("Accept") {
		for _, part := range strings.Split(line, ",") {
			mt, _, _ := strings.Cut(part, ";")
			if strings.EqualFold(strings.TrimSpace(mt), wire.ResultsFrameType) {
				return true
			}
		}
	}
	return false
}

// handleResults returns the top-k ranked rows. k defaults to (and is
// capped at) the displayed count, so the response size tracks the
// display budget; ?tuples=1 adds the rendered row values.
//
// Two representations, negotiated per request: JSON
// (wire.ResultsResponse) is the default, and a request that lists
// wire.ResultsFrameType in Accept and does not set tuples is answered
// with the binary frame under that Content-Type. Both are produced by
// the one extraction loop below.
//
// Locking rule: a session Result's vectors are pooled and valid only
// until its next recalculation, so everything is extracted under the
// session mutex into memory the response owns (the frame's buffer or
// deep-copied rows); JSON encoding and the network write happen after
// the mutex is released, so a slow-reading client never stalls the
// session's edits for transfer time.
func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	ss, err := s.lookup(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if qerr := ss.cat.quarantineErr(); qerr != nil {
		// The last result may predate the corruption, but rows computed
		// from zeroed segments are indistinguishable from good ones —
		// refuse rather than serve data of unknown integrity.
		wire.WriteError(w, wire.CodeCatalogQuarantined, qerr)
		return
	}
	top := -1
	if v := r.URL.Query().Get("top"); v != "" {
		top, err = strconv.Atoi(v)
		if err != nil || top < 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad top=%q", v))
			return
		}
	}
	withTuples := r.URL.Query().Get("tuples") == "1"
	wantFrame := !withTuples && acceptsResultsFrame(r)

	ss.mu.Lock()
	res := ss.sess.Result()
	k := res.Displayed
	if top >= 0 && top < k {
		k = top
	}
	out := wire.ResultsResponse{Summary: summaryLocked(ss)}
	var frame *wire.ResultsFrame
	if wantFrame {
		frame = wire.NewResultsFrame(out.Summary, k) // nil: not representable, answer JSON
	}
	if frame == nil {
		out.Rows = make([]wire.Row, 0, k)
	}
	var tupleErr error
	for rank := 0; rank < k; rank++ {
		item := res.Order[rank]
		// Ranked access: the rank-before-scale path only ever scales the
		// display prefix, and the response needs nothing more.
		d := res.DistanceOfRank(rank)
		if frame != nil {
			frame.Add(item, d)
			continue
		}
		row := wire.Row{Item: item, Distance: d, Relevance: relevance.RelevanceFactor(d)}
		if withTuples {
			tup, err := res.Tuple(item)
			if err != nil {
				tupleErr = err
				break
			}
			row.Tuple = make([][]string, len(tup.Rows))
			for i, vals := range tup.Rows {
				rendered := make([]string, len(vals))
				for j, v := range vals {
					rendered[j] = v.String()
				}
				row.Tuple[i] = rendered
			}
		}
		out.Rows = append(out.Rows, row)
	}
	ss.mu.Unlock()
	if tupleErr != nil {
		writeErr(w, http.StatusInternalServerError, tupleErr)
		return
	}
	if !withTuples {
		w.Header().Set("Vary", "Accept")
	}
	if frame != nil {
		body := frame.Bytes()
		w.Header().Set("Content-Type", wire.ResultsFrameType)
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body) // a failed write is the client's disconnect
		return
	}
	httpbody.WriteJSON(w, http.StatusOK, out)
}

// handleTimings returns the stage timings of the last recalculation.
func (s *Server) handleTimings(w http.ResponseWriter, r *http.Request) {
	ss, err := s.lookup(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if qerr := ss.cat.quarantineErr(); qerr != nil {
		wire.WriteError(w, wire.CodeCatalogQuarantined, qerr)
		return
	}
	ss.mu.Lock()
	sum := summaryLocked(ss)
	ss.mu.Unlock()
	httpbody.WriteJSON(w, http.StatusOK, sum)
}

// handleDelete closes a session.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ss, err := s.lookup(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if !ss.shard.remove(id) {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no session %q: %w", id, errNoSession))
		return
	}
	httpbody.WriteJSON(w, http.StatusOK, map[string]string{"status": "closed"})
}

// handleShards reports every shard's serving and cache stats.
func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	out := make([]wire.ShardStats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.stats()
	}
	httpbody.WriteJSON(w, http.StatusOK, out)
}

// handleHealth is a node's self-report for the fleet router: per-shard
// live session counts (the router's drain logic watches these to
// decide when a moved shard has quiesced), quarantined catalogs, and
// uptime. Kept cheap — one lock per shard, no recalculation state —
// because the router polls it on every health interval.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	out := wire.HealthResponse{
		Status:   "ok",
		UptimeNS: time.Since(s.started).Nanoseconds(),
		Shards:   make([]wire.ShardHealth, len(s.shards)),
	}
	for i, sh := range s.shards {
		sh.mu.RLock()
		n := len(sh.sessions)
		sh.mu.RUnlock()
		names := make([]string, 0, len(sh.catalogs))
		for _, cs := range sh.catalogs {
			names = append(names, cs.name)
			if cs.quarantineErr() != nil {
				out.Quarantined = append(out.Quarantined, cs.name)
			}
		}
		out.Shards[i] = wire.ShardHealth{Shard: i, Sessions: n, Catalogs: names}
		out.Sessions += n
	}
	httpbody.WriteJSON(w, http.StatusOK, out)
}

// handleCatalogs lists the served catalogs and their shard homes.
func (s *Server) handleCatalogs(w http.ResponseWriter, r *http.Request) {
	names := make([]string, 0, len(s.catalogs))
	for name := range s.catalogs {
		names = append(names, name)
	}
	// Deterministic order for scripts and tests.
	sort.Strings(names)
	out := make([]wire.CatalogInfo, 0, len(names))
	for _, name := range names {
		cs := s.catalogs[name]
		info := wire.CatalogInfo{Name: name, Shard: cs.shard.id, Quarantined: cs.quarantineErr() != nil}
		if cs.cat != nil {
			info.Tables = cs.cat.TableNames()
		}
		out = append(out, info)
	}
	httpbody.WriteJSON(w, http.StatusOK, out)
}
