package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/server"
	"repro/internal/wire"
)

// TestCodeTableIsTheContract drives every failure code the server and
// the router can emit through a real handler — a stale Seq, an empty
// undo stack, a closed ID, a full shard, a quarantined catalog, a
// FaultHook stall past the request deadline, a canceled request on
// either hop, a dead member, an empty fleet — and requires each to
// arrive under exactly the status and Retry-After hint of its
// wire.CodeTable row. Every row must be driven at least once, and the
// rows of doc.go's failure table must equal the table's.
func TestCodeTableIsTheContract(t *testing.T) {
	cat, err := datagen.Traffic(300, 7)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Shards: 1,
		Catalogs: []server.CatalogConfig{
			{Name: "ok", Catalog: cat},
			{Name: "bad", Quarantined: errors.New("segment 3: checksum mismatch")},
		},
		DefaultOptions:      fleetGrid,
		MaxSessionsPerShard: 1,
		RequestTimeout:      200 * time.Millisecond,
		FaultHook: func(r *http.Request) *server.Fault {
			if r.Header.Get("X-Stall") != "" {
				return &server.Fault{Delay: time.Minute} // bounded by the request deadline
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	member := httptest.NewServer(srv)
	defer member.Close()
	rt, err := New(Config{Shards: 1, Members: []Member{{Name: "a", URL: member.URL}}, FailAfter: 1})
	if err != nil {
		t.Fatal(err)
	}

	send := func(h http.Handler, method, path string, body any, edit func(*http.Request) *http.Request) *httptest.ResponseRecorder {
		buf, _ := json.Marshal(body)
		req := httptest.NewRequest(method, path, bytes.NewReader(buf))
		if edit != nil {
			req = edit(req)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	ok := func(what string, rec *httptest.ResponseRecorder) {
		t.Helper()
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", what, rec.Code, rec.Body)
		}
	}
	seen := make(map[string]bool)
	// check sends one request to h and holds the answer to code's row.
	check := func(what string, h http.Handler, code, method, path string, body any, edit func(*http.Request) *http.Request) {
		t.Helper()
		rec := send(h, method, path, body, edit)
		var e wire.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s: undecodable error body %q: %v", what, rec.Body, err)
		}
		row := wire.CodeTable[code]
		hint := ""
		if row.RetryAfter > 0 {
			hint = strconv.Itoa(int(row.RetryAfter / time.Second))
		}
		if e.Code != code || rec.Code != row.Status || rec.Header().Get("Retry-After") != hint {
			t.Fatalf("%s: got %d %q Retry-After %q, the table says %d %q Retry-After %q",
				what, rec.Code, e.Code, rec.Header().Get("Retry-After"), row.Status, code, hint)
		}
		seen[code] = true
	}

	create := func(catalog string) wire.CreateSessionRequest {
		return wire.CreateSessionRequest{Catalog: catalog, Query: datagen.TrafficQueries()[0]}
	}
	// A live session, created through the router.
	rec := send(rt, "POST", "/v1/sessions", create("ok"), nil)
	ok("create", rec)
	var info wire.SessionInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	sess := "/v1/sessions/" + info.ID
	canceled := func(r *http.Request) *http.Request {
		ctx, cancel := context.WithCancel(r.Context())
		cancel()
		return r.WithContext(ctx)
	}
	stalled := func(r *http.Request) *http.Request { r.Header.Set("X-Stall", "1"); return r }
	weight := func(seq uint64) wire.WeightRequest { return wire.WeightRequest{Pred: 0, Weight: 2, Seq: seq} }

	check("empty undo stack", rt, wire.CodeNothingToUndo, "POST", sess+"/undo", wire.UndoRequest{Seq: 1}, nil)
	check("stalled past the deadline", srv, wire.CodeDeadline, "POST", sess+"/weight", weight(2), stalled)
	check("canceled at the member", srv, wire.CodeCanceled, "POST", sess+"/weight", weight(2), canceled)
	check("canceled at the router", rt, wire.CodeCanceled, "POST", sess+"/weight", weight(2), canceled)
	// Seq 2 was rolled back twice, never recorded: it still applies.
	ok("seq 2 after its rollbacks", send(rt, "POST", sess+"/weight", weight(2), nil))
	check("stale seq", rt, wire.CodeSeqConflict, "POST", sess+"/weight", weight(1), nil)
	check("full shard", rt, wire.CodeSessionCap, "POST", "/v1/sessions", create("ok"), nil)
	check("quarantined catalog", rt, wire.CodeCatalogQuarantined, "POST", "/v1/sessions", create("bad"), nil)
	ok("close", send(rt, "DELETE", sess, nil, nil))
	check("closed ID", rt, wire.CodeSessionNotFound, "GET", sess+"/results", nil, nil)
	check("closed ID, second close", rt, wire.CodeSessionNotFound, "DELETE", sess, nil, nil)

	// The member dies: two members so one death is node_down, then the
	// other's is an empty fleet.
	other := httptest.NewServer(srv)
	rt2, err := New(Config{Shards: 1, Members: []Member{{Name: "a", URL: member.URL}, {Name: "b", URL: other.URL}}, FailAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	dead := map[string]*httptest.Server{"a": member, "b": other}
	dead[rt2.Placement()[0]].Close()
	check("dead member", rt2, wire.CodeNodeDown, "POST", "/v1/sessions", create("ok"), nil)
	dead[rt2.Placement()[0]].Close() // the new owner: the survivor
	check("last member dies mid-forward", rt2, wire.CodeNodeDown, "POST", "/v1/sessions", create("ok"), nil)
	check("empty fleet", rt2, wire.CodeNoHealthyMembers, "POST", "/v1/sessions", create("ok"), nil)
	check("empty fleet, by ID", rt2, wire.CodeNoHealthyMembers, "GET", sess+"/results", nil, nil)
	check("empty fleet, catalogs", rt2, wire.CodeNoHealthyMembers, "GET", "/v1/catalogs", nil, nil)

	for code := range wire.CodeTable {
		if !seen[code] {
			t.Errorf("no request drove %q: the table has a row nothing emits, or this test lost a case", code)
		}
	}

	// doc.go's failure table, row for row.
	src, err := os.ReadFile("../../doc.go")
	if err != nil {
		t.Fatal(err)
	}
	class := map[wire.RetryClass]string{wire.RetryNever: "never", wire.RetrySame: "resend", wire.RetryRecreate: "recreate"}
	documented := make(map[string]string)
	for _, m := range regexp.MustCompile(`(?m)^//\t([a-z_]+)\s+(\d{3})\s+(-|\d+s)\s+(\w+)$`).FindAllStringSubmatch(string(src), -1) {
		documented[m[1]] = strings.Join(m[2:], " ")
	}
	for code, row := range wire.CodeTable {
		hint := "-"
		if row.RetryAfter > 0 {
			hint = fmt.Sprintf("%ds", int(row.RetryAfter/time.Second))
		}
		if want := fmt.Sprintf("%d %s %s", row.Status, hint, class[row.Class]); documented[code] != want {
			t.Errorf("doc.go documents %s as %q, the table says %q", code, documented[code], want)
		}
	}
	if len(documented) != len(wire.CodeTable) {
		t.Errorf("doc.go's failure table has %d rows, wire.CodeTable %d", len(documented), len(wire.CodeTable))
	}
}
