package router

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sync"
	"testing"

	"repro/internal/wire"
	"repro/visdb/client"
)

// contentTypes records the method and Content-Type of every response
// a client received.
type contentTypes struct {
	mu   sync.Mutex
	seen []string
}

func (c *contentTypes) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil {
		c.mu.Lock()
		c.seen = append(c.seen, req.Method+" "+resp.Header.Get("Content-Type"))
		c.mu.Unlock()
	}
	return resp, err
}

// TestForwardKeepsResultsFrame: the representation is negotiated end
// to end — the router passes the client's Accept to the member and the
// member's Content-Type (and Vary) back, stamping its placement epoch
// on the frame like on any other response.
func TestForwardKeepsResultsFrame(t *testing.T) {
	env := newFleetEnv(t, 2, 1, 600)
	ctx := context.Background()
	seen := &contentTypes{}
	env.client.HTTP = &http.Client{Transport: seen}
	s, _, err := env.client.NewSession(ctx, "r0", `SELECT a FROM S WHERE a > 50 AND b < 40`, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetRange(ctx, "a", 30, 70); err != nil {
		t.Fatal(err)
	}

	get := func(accept string) (*http.Response, []byte) {
		req, err := http.NewRequest(http.MethodGet, env.url+"/v1/sessions/"+s.ID+"/results", nil)
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
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("routed results: http %d, err %v", resp.StatusCode, err)
		}
		return resp, body
	}

	resp, frame := get(wire.ResultsFrameType)
	if ct := resp.Header.Get("Content-Type"); ct != wire.ResultsFrameType {
		t.Fatalf("routed Content-Type %q, want the frame's: forward dropped Accept or the member's Content-Type", ct)
	}
	if resp.Header.Get("X-Visdb-Placement-Epoch") == "" {
		t.Error("routed frame lost the placement-epoch header")
	}
	if v := resp.Header.Get("Vary"); v != "Accept" {
		t.Errorf("routed frame has Vary %q, want Accept", v)
	}
	viaFrame, err := wire.DecodeResultsFrame(frame)
	if err != nil {
		t.Fatal(err)
	}

	resp, body := get("")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("routed Content-Type without Accept: %q", ct)
	}
	var viaJSON wire.ResultsResponse
	if err := json.Unmarshal(body, &viaJSON); err != nil {
		t.Fatal(err)
	}

	viaClient, err := s.Results(ctx, -1)
	if err != nil {
		t.Fatal(err)
	}
	if last := seen.seen[len(seen.seen)-1]; last != "GET "+wire.ResultsFrameType {
		t.Errorf("typed read-back through the router got %q, want the frame", last)
	}

	if len(viaJSON.Rows) == 0 {
		t.Fatal("empty picture; the comparison would prove nothing")
	}
	for name, got := range map[string]wire.ResultsResponse{"frame": viaFrame, "typed client": viaClient} {
		if got.Summary != viaJSON.Summary || len(got.Rows) != len(viaJSON.Rows) {
			t.Fatalf("%s: summary/rows differ from routed JSON", name)
		}
		for i, w := range viaJSON.Rows {
			g := got.Rows[i]
			if g.Item != w.Item || math.Float64bits(g.Distance) != math.Float64bits(w.Distance) ||
				math.Float64bits(g.Relevance) != math.Float64bits(w.Relevance) {
				t.Fatalf("%s: row %d = %+v, routed JSON has %+v", name, i, g, w)
			}
		}
	}
}
