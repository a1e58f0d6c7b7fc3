package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/wire"
)

// sessionState is what a refused mutation must leave alone.
type sessionState struct {
	seq       uint64
	query     string
	displayed int
	recalcs   int
}

func stateOf(ss *serverSession) sessionState {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return sessionState{
		seq:       ss.seq,
		query:     ss.sess.Query().String(),
		displayed: ss.sess.Result().Displayed,
		recalcs:   ss.sess.Recalcs,
	}
}

// FuzzSessionRequestBodies feeds arbitrary bytes to POST /v1/sessions
// and to every mutation route of a live session. Whatever arrives, the
// server never panics and never answers 5xx; a refused creation
// registers nothing; a mutation that carries no positive Seq (there is
// no non-idempotent form) answers 400; and a 4xx on a mutation leaves
// the session's query, displayed count and recalculation counter
// untouched, with its Seq
// either unchanged or burned forward to the number the request itself
// carried (a validation failure under a fresh Seq is recorded so its
// retransmission replays the same answer).
//
// The seed corpus is the bodies the e2e scripts send, one per route,
// plus their malformed neighbours.
func FuzzSessionRequestBodies(f *testing.F) {
	// Index 0 is session creation, the rest are the mutation routes of a
	// live session.
	routes := []string{"", "query", "range", "weight", "undo", "pct"}
	queries := scriptQueries
	lo, hi := 30.0, 70.0
	seeds := []struct {
		route uint8
		body  any
	}{
		{0, wire.CreateSessionRequest{Catalog: "traffic", Query: queries[2]}},
		{0, wire.CreateSessionRequest{Catalog: "traffic", Query: queries[0], Options: wire.SessionOptions{GridW: 8, GridH: 8, PercentDisplayed: 0.25}}},
		{0, wire.CreateSessionRequest{Catalog: "nope", Query: queries[0]}},
		{0, wire.CreateSessionRequest{Catalog: "traffic", Query: "SELECT FROM"}},
		{1, wire.QueryRequest{Query: queries[1], Seq: 4}},
		{1, wire.QueryRequest{Query: "SELECT a FROM S WHERE", Seq: 4}},
		{2, wire.RangeRequest{Attr: "a", Lo: &lo, Hi: &hi, Seq: 4}},
		{2, wire.RangeRequest{Attr: "b", Lo: &lo, Seq: 3}},
		{2, wire.RangeRequest{Attr: "zz", Hi: &hi, Seq: 9}},
		{3, wire.WeightRequest{Pred: 0, Weight: 2.5, Seq: 4}},
		{3, wire.WeightRequest{Pred: 7, Weight: 1, Seq: 2}},
		{3, wire.WeightRequest{Pred: 0, Weight: -1}},
		{4, wire.UndoRequest{Seq: 4}},
		{4, wire.UndoRequest{}},
		{5, wire.PctRequest{Pct: 0.5, Seq: 4}},
		{5, wire.PctRequest{Pct: 1.5, Seq: 5}},
	}
	for _, s := range seeds {
		b, err := json.Marshal(s.body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(s.route, b)
	}
	for route := range routes {
		for _, raw := range []string{"", "null", "[]", "{", `{"seq":-1}`, `{"seq":5,"attr":1}`, `{"seq":6} trailing`, `{"pct":1e999}`} {
			f.Add(uint8(route), []byte(raw))
		}
	}

	srv, err := New(Config{Shards: 1, Catalogs: []CatalogConfig{trafficConfig(f, "traffic", 400, 3)}, DefaultOptions: testGrid})
	if err != nil {
		f.Fatal(err)
	}
	do := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}
	sessions := func() int {
		sh := srv.shards[0]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return len(sh.sessions)
	}
	goodCreate, _ := json.Marshal(wire.CreateSessionRequest{Catalog: "traffic", Query: queries[2]})
	goodWeight, _ := json.Marshal(wire.WeightRequest{Pred: 0, Weight: 2, Seq: 3})

	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		name := routes[int(route)%len(routes)]
		if name == "" {
			rec := do("POST", "/v1/sessions", body)
			if rec.Code >= 500 {
				t.Fatalf("create answered %d: %s", rec.Code, rec.Body)
			}
			if rec.Code != http.StatusOK {
				if n := sessions(); n != 0 {
					t.Fatalf("create answered %d and left %d sessions registered", rec.Code, n)
				}
				return
			}
			var info wire.SessionInfo
			if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
				t.Fatalf("create answered 200 with an undecodable body: %v", err)
			}
			if rec := do("DELETE", "/v1/sessions/"+info.ID, nil); rec.Code != http.StatusOK {
				t.Fatalf("closing the created session: %d %s", rec.Code, rec.Body)
			}
			return
		}

		// A live session with one applied operation: Seq 3 is replayable,
		// lower numbers are stale, and undo has something to revert.
		var info wire.SessionInfo
		if rec := do("POST", "/v1/sessions", goodCreate); rec.Code != http.StatusOK {
			t.Fatalf("fixture create: %d %s", rec.Code, rec.Body)
		} else if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
			t.Fatal(err)
		}
		defer do("DELETE", "/v1/sessions/"+info.ID, nil)
		if rec := do("POST", "/v1/sessions/"+info.ID+"/weight", goodWeight); rec.Code != http.StatusOK {
			t.Fatalf("fixture weight: %d %s", rec.Code, rec.Body)
		}
		ss, err := srv.lookup(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		before := stateOf(ss)

		rec := do("POST", "/v1/sessions/"+info.ID+"/"+name, body)
		if rec.Code >= 500 || rec.Code == http.StatusNotFound {
			// 404 would mean the table names a route the server lacks:
			// the session is live.
			t.Fatalf("%s answered %d: %s", name, rec.Code, rec.Body)
		}
		// The number the request carried, read the way the handlers read
		// it (first JSON value of the body); an undecodable body carries
		// none, and neither does one the handler's stricter decode refused.
		var probe struct {
			Seq uint64 `json:"seq"`
		}
		decoded := json.NewDecoder(bytes.NewReader(body)).Decode(&probe) == nil
		if !(decoded && probe.Seq > 0) && rec.Code != http.StatusBadRequest {
			t.Fatalf("%s without a positive seq answered %d: %s", name, rec.Code, rec.Body)
		}
		if rec.Code < 400 {
			return
		}
		after := stateOf(ss)
		carried := decoded && probe.Seq > before.seq
		want := before
		if carried && after.seq == probe.Seq {
			want.seq = probe.Seq
		}
		if after != want {
			t.Fatalf("%s answered %d (%s) and changed the session:\n before %+v\n after  %+v",
				name, rec.Code, bytes.TrimSpace(rec.Body.Bytes()), before, after)
		}
	})
}
