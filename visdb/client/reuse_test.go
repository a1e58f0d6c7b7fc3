package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/server"
)

// TestSessionReusesOneConnection: a 50-step session — edit, read the
// picture back, repeat — runs over the one TCP connection it opened.
// Every response body must therefore be read to EOF before it is
// closed, on the frame path (a Content-Length body) and on the JSON
// path (a chunked body the JSON decoder stops short of ending).
func TestSessionReusesOneConnection(t *testing.T) {
	cat, err := datagen.Traffic(2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Catalogs:       []server.CatalogConfig{{Name: "traffic", Catalog: cat}},
		DefaultOptions: core.Options{GridW: 16, GridH: 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for name, read := range map[string]func(*Session, context.Context, int) (Results, error){
		"frame":       (*Session).Results,
		"tuples JSON": (*Session).ResultsWithTuples,
	} {
		t.Run(name, func(t *testing.T) {
			// A transport of its own: no connection pooled by another test.
			tr := &http.Transport{}
			defer tr.CloseIdleConnections()
			c := New(ts.URL)
			c.HTTP = &http.Client{Transport: tr}
			dials, requests := 0, 0
			ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
				GotConn: func(info httptrace.GotConnInfo) {
					requests++
					if !info.Reused {
						dials++
					}
				},
			})
			s, _, err := c.NewSession(ctx, "traffic", datagen.TrafficQueries()[0], Options{})
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 50; step++ {
				if _, err := s.SetWeight(ctx, step%2, float64(1+step%3)); err != nil {
					t.Fatal(err)
				}
				res, err := read(s, ctx, -1)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rows) < 100 {
					t.Fatalf("step %d: %d rows; too small a body to test anything", step, len(res.Rows))
				}
			}
			if requests != 101 {
				t.Fatalf("%d requests, want 101", requests)
			}
			if dials != 1 {
				t.Errorf("%d requests opened %d connections, want 1", requests, dials)
			}
		})
	}
}
