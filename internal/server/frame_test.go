package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/wire"
	"repro/visdb/client"
)

// rawResults GETs a session's results over plain net/http with the
// given Accept (empty: none) and returns the response and its body.
func rawResults(t *testing.T, base, id, query, accept string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/sessions/"+id+"/results"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET results%s: http %d: %s", query, resp.StatusCode, body)
	}
	return resp, body
}

// sameRows asserts two pictures equal row for row, floats by their
// bits.
func sameRows(t *testing.T, step, what string, got, want wire.ResultsResponse) {
	t.Helper()
	if got.Summary != want.Summary {
		t.Fatalf("%s: %s summary %+v, want %+v", step, what, got.Summary, want.Summary)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %s has %d rows, want %d", step, what, len(got.Rows), len(want.Rows))
	}
	for i, w := range want.Rows {
		g := got.Rows[i]
		if g.Item != w.Item || math.Float64bits(g.Distance) != math.Float64bits(w.Distance) ||
			math.Float64bits(g.Relevance) != math.Float64bits(w.Relevance) {
			t.Fatalf("%s: %s row %d = (%d, %v, %v), want (%d, %v, %v)",
				step, what, i, g.Item, g.Distance, g.Relevance, w.Item, w.Distance, w.Relevance)
		}
	}
}

// comparePictures fetches the session's picture three ways — raw GET
// without Accept (what curl and an old client get), raw GET asking for
// the frame, and the typed client — and asserts them identical, plus
// the HTTP contract of each representation. It returns the row count.
func comparePictures(t *testing.T, ctx context.Context, step, base string, s *client.Session, top int) int {
	t.Helper()
	query := ""
	if top >= 0 {
		query = "?top=" + strconv.Itoa(top)
	}

	resp, jsonBody := rawResults(t, base, s.ID, query, "")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s: no Accept answered Content-Type %q", step, ct)
	}
	var viaJSON wire.ResultsResponse
	if err := json.Unmarshal(jsonBody, &viaJSON); err != nil {
		t.Fatalf("%s: %v", step, err)
	}

	resp, frame := rawResults(t, base, s.ID, query, wire.ResultsFrameType)
	if ct := resp.Header.Get("Content-Type"); ct != wire.ResultsFrameType {
		t.Fatalf("%s: Accept %s answered Content-Type %q", step, wire.ResultsFrameType, ct)
	}
	if v := resp.Header.Get("Vary"); v != "Accept" {
		t.Errorf("%s: frame response has Vary %q, want Accept", step, v)
	}
	if resp.ContentLength != int64(len(frame)) {
		t.Errorf("%s: frame Content-Length %d, body %d bytes", step, resp.ContentLength, len(frame))
	}
	viaFrame, err := wire.DecodeResultsFrame(frame)
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	if max := 16*len(viaFrame.Rows) + 1024; len(frame) > max {
		t.Errorf("%s: frame is %d bytes for %d rows, budget %d", step, len(frame), len(viaFrame.Rows), max)
	}

	viaClient, err := s.Results(ctx, top)
	if err != nil {
		t.Fatalf("%s: client: %v", step, err)
	}

	sameRows(t, step, "frame vs JSON", viaFrame, viaJSON)
	sameRows(t, step, "typed client vs JSON", viaClient, viaJSON)
	// The frame carries everything the JSON does: re-marshalling what it
	// decoded to reproduces the JSON body byte for byte (relevance, which
	// is not on the wire, included).
	if again, _ := json.Marshal(viaFrame); !bytes.Equal(append(again, '\n'), jsonBody) {
		t.Fatalf("%s: JSON body is not the marshalled frame", step)
	}
	want := viaJSON.Summary.Displayed
	if top >= 0 && top < want {
		want = top
	}
	if len(viaJSON.Rows) != want {
		t.Fatalf("%s: top=%d of %d displayed returned %d rows", step, top, viaJSON.Summary.Displayed, len(viaJSON.Rows))
	}
	return want
}

// constantCatalog is one table whose only column is 5 everywhere:
// `x <> 5` makes every item uncolorable, so nothing is displayed.
func constantCatalog(t *testing.T) *dataset.Catalog {
	t.Helper()
	tbl, err := dataset.NewTable("U", dataset.Schema{{Name: "x", Kind: dataset.KindFloat}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := tbl.AppendRow(dataset.Float(5)); err != nil {
			t.Fatal(err)
		}
	}
	cat := dataset.NewCatalog()
	if err := cat.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestResultsFrameMatchesJSON is the differential property of the two
// representations: after every step of a randomized script the frame,
// the JSON and the typed client's view are one picture.
func TestResultsFrameMatchesJSON(t *testing.T) {
	env, _, err := datagen.Environmental(datagen.EnvConfig{Hours: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Shards: 2, DefaultOptions: testGrid, Catalogs: []CatalogConfig{
		trafficConfig(t, "traffic", 1500, 42),
		{Name: "env", Catalog: env},
		{Name: "flat", Catalog: constantCatalog(t)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1994))

	// tops walks the cases of the k cap on a picture of `displayed` rows:
	// absent, zero, below, equal, above.
	tops := func(displayed int) []int { return []int{-1, 0, displayed / 2, displayed, displayed + 100} }

	t.Run("script", func(t *testing.T) {
		s, _, err := c.NewSession(ctx, "traffic", scriptQueries[2], client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close(ctx)
		displayed := comparePictures(t, ctx, "initial", ts.URL, s, -1)
		edits := 0
		for step := 0; step < 60; step++ {
			var label string
			var err error
			switch op := rng.Intn(10); {
			case op < 4:
				attr := []string{"a", "b", "c"}[rng.Intn(3)]
				lo := math.Floor(rng.Float64() * 80)
				hi := lo + math.Floor(rng.Float64()*40)
				if rng.Intn(3) == 0 {
					hi = math.Inf(1)
				}
				label = fmt.Sprintf("step %d: drag %s to [%g,%g]", step, attr, lo, hi)
				_, err = s.SetRange(ctx, attr, lo, hi)
				edits++
			case op < 7:
				pred, w := rng.Intn(2), []float64{0.5, 1, 2, 3}[rng.Intn(4)]
				label = fmt.Sprintf("step %d: weight pred %d = %g", step, pred, w)
				_, err = s.SetWeight(ctx, pred, w)
				edits++
			case op < 9:
				pct := []float64{0, 0.02, 0.3, 1}[rng.Intn(4)]
				label = fmt.Sprintf("step %d: pct %g", step, pct)
				_, err = s.SetPercentDisplayed(ctx, pct)
			default:
				if edits == 0 {
					continue
				}
				label = fmt.Sprintf("step %d: undo", step)
				_, err = s.Undo(ctx)
				edits--
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			cases := tops(displayed)
			comparePictures(t, ctx, label, ts.URL, s, cases[step%len(cases)])
			displayed = comparePictures(t, ctx, label+" (whole)", ts.URL, s, -1)
		}
	})

	t.Run("join", func(t *testing.T) {
		s, sum, err := c.NewSession(ctx, "env",
			`SELECT Temperature, Ozone FROM Weather, Air-Pollution WHERE Temperature > 15 AND CONNECT with-time-diff(120)`,
			client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close(ctx)
		if sum.N != 40*40 {
			t.Fatalf("join N = %d, want the 40×40 cross product", sum.N)
		}
		for _, top := range tops(comparePictures(t, ctx, "join", ts.URL, s, -1)) {
			comparePictures(t, ctx, "join", ts.URL, s, top)
		}
		if _, err := s.SetRange(ctx, "Temperature", 10, 20); err != nil {
			t.Fatal(err)
		}
		comparePictures(t, ctx, "join after drag", ts.URL, s, -1)
	})

	t.Run("empty display", func(t *testing.T) {
		s, sum, err := c.NewSession(ctx, "flat", `SELECT x FROM U WHERE x <> 5`, client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close(ctx)
		if sum.Displayed != 0 {
			t.Fatalf("Displayed = %d, want 0", sum.Displayed)
		}
		for _, top := range []int{-1, 0, 7} {
			if n := comparePictures(t, ctx, "empty", ts.URL, s, top); n != 0 {
				t.Fatalf("empty display returned %d rows", n)
			}
		}
	})

	// ?tuples=1 has no frame: the Accept is ignored and JSON answers.
	t.Run("tuples stay JSON", func(t *testing.T) {
		s, _, err := c.NewSession(ctx, "traffic", scriptQueries[0], client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close(ctx)
		resp, body := rawResults(t, ts.URL, s.ID, "?top=3&tuples=1", wire.ResultsFrameType)
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("tuples=1 with the frame Accept answered Content-Type %q", ct)
		}
		var res wire.ResultsResponse
		if err := json.Unmarshal(body, &res); err != nil || len(res.Rows) != 3 || len(res.Rows[0].Tuple) == 0 {
			t.Fatalf("tuples=1 body: err %v, %d rows", err, len(res.Rows))
		}
	})
}

// TestAcceptNegotiation pins which Accept values select the frame.
func TestAcceptNegotiation(t *testing.T) {
	srv, c := newTestServer(t, 1, trafficConfig(t, "traffic", 300, 1))
	ts := httptest.NewServer(srv)
	defer ts.Close()
	s, _, err := c.NewSession(context.Background(), "traffic", scriptQueries[0], client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for accept, wantFrame := range map[string]bool{
		"":                 false,
		"*/*":              false,
		"application/json": false,
		"application/json, " + wire.ResultsFrameType:    true,
		wire.ResultsFrameType + ";q=0.9, text/plain":    true,
		"Application/VND.visdb.results-frame":           true,
		wire.ResultsFrameType + "-v2, application/json": false,
	} {
		resp, _ := rawResults(t, ts.URL, s.ID, "?top=2", accept)
		if got := resp.Header.Get("Content-Type") == wire.ResultsFrameType; got != wantFrame {
			t.Errorf("Accept %q: frame = %v, want %v", accept, got, wantFrame)
		}
		if v := resp.Header.Get("Vary"); v != "Accept" {
			t.Errorf("Accept %q: Vary = %q; both representations of the tuple-less read-back depend on Accept", accept, v)
		}
	}
}

// TestTypedClientAgainstJSONOnlyServer: a hop that ignores the Accept
// header gets JSON (what the server also answers when the frame cannot
// hold the summary), and the client reads that exactly as it reads a
// frame.
func TestTypedClientAgainstJSONOnlyServer(t *testing.T) {
	srv, _ := newTestServer(t, 2, trafficConfig(t, "traffic", 1500, 42))
	direct := httptest.NewServer(srv)
	defer direct.Close()
	var asked atomic.Int64
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Accept") != "" {
			asked.Add(1)
			r.Header.Del("Accept")
		}
		srv.ServeHTTP(w, r)
	}))
	defer old.Close()
	oldC := client.New(old.URL)
	ctx := context.Background()

	s, _, err := oldC.NewSession(ctx, "traffic", scriptQueries[2], client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetRange(ctx, "a", 20, 60); err != nil {
		t.Fatal(err)
	}
	viaOld, err := s.Results(ctx, -1)
	if err != nil {
		t.Fatal(err)
	}
	if asked.Load() != 1 {
		t.Fatalf("the client sent Accept on %d requests, want 1 (the read-back only)", asked.Load())
	}
	resp, _ := rawResults(t, old.URL, s.ID, "", wire.ResultsFrameType)
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("the Accept-blind front end answered %q; the test would prove nothing", ct)
	}
	// The same session read through the Accept-honouring front end.
	resp, frame := rawResults(t, direct.URL, s.ID, "", wire.ResultsFrameType)
	if ct := resp.Header.Get("Content-Type"); ct != wire.ResultsFrameType {
		t.Fatalf("the direct front end answered %q", ct)
	}
	viaNew, err := wire.DecodeResultsFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(viaOld.Rows) == 0 {
		t.Fatal("empty picture; the comparison would prove nothing")
	}
	sameRows(t, "mixed version", "JSON-only server vs frame server", viaOld, viaNew)
}
