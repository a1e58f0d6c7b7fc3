package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/wire"
)

// TestSessionCloseIsIdempotent: the server deletes the session but the
// DELETE's response is lost; the retry finds the session gone
// (session_not_found), which is what Close asked for, so Close returns
// nil — and so does a second Close, and a Close of an ID the server never
// issued.
func TestSessionCloseIsIdempotent(t *testing.T) {
	cat, err := datagen.Traffic(500, 7)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Catalogs:       []server.CatalogConfig{{Name: "traffic", Catalog: cat}},
		DefaultOptions: core.Options{GridW: 8, GridH: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Create passes; the first DELETE is handled and its answer dropped.
	tr := faultinject.NewTransport(nil, faultinject.Pass, faultinject.DropAfter)
	clk := &fakeClock{}
	c := New(ts.URL)
	c.HTTP = &http.Client{Transport: tr}
	c.Retry.Sleep = clk.sleep
	ctx := context.Background()
	s, _, err := c.NewSession(ctx, "traffic", datagen.TrafficQueries()[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close after a lost response: %v", err)
	}
	if tr.Calls() != 3 || tr.Drops() != 1 {
		t.Fatalf("%d round trips, %d dropped; want create + lost DELETE + retried DELETE", tr.Calls(), tr.Drops())
	}
	if err := s.Close(ctx); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := (&Session{c: c, ID: "s0.999-000000"}).Close(ctx); err != nil {
		t.Fatalf("Close of an ID the server never issued: %v", err)
	}
	// The session really is gone: an edit on it is session_not_found.
	_, err = s.SetWeight(ctx, 0, 2)
	if ae, ok := err.(*APIError); !ok || ae.Code != wire.CodeSessionNotFound {
		t.Fatalf("edit after Close: %v", err)
	}
}
