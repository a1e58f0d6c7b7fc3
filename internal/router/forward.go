package router

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/httpbody"
	"repro/internal/server"
	"repro/internal/wire"
)

// ownerOf resolves shard to its routing target.
func (rt *Router) ownerOf(shard int) (*member, error) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.pl.ownerOf(shard)
}

// setEpochHeader stamps the response with this router's placement
// epoch — clients and harnesses can watch it to observe failovers.
func (rt *Router) setEpochHeader(w http.ResponseWriter) {
	w.Header().Set("X-Visdb-Placement-Epoch", strconv.FormatUint(rt.PlacementEpoch(), 10))
}

// writeUnavailable answers a routing failure with its machine-readable
// code: no_healthy_members when the whole fleet is down, node_down for
// a single dead owner whose shards have already been re-placed.
func (rt *Router) writeUnavailable(w http.ResponseWriter, err error) {
	code := wire.CodeNodeDown
	if errors.Is(err, errNoHealthy) {
		code = wire.CodeNoHealthyMembers
	}
	rt.setEpochHeader(w)
	wire.WriteError(w, code, err)
}

// writeUncoded answers a request the router itself refuses, without a
// code, like a member's own validation failures.
func writeUncoded(w http.ResponseWriter, status int, msg string) {
	httpbody.WriteJSON(w, status, wire.ErrorResponse{Error: msg})
}

// forward proxies the request (with body, already buffered or nil) to
// m and relays the response verbatim. A transport failure marks m
// down, reroutes, and answers node_down — by the time the client sees
// it, the flip has happened.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, m *member, body []byte) {
	u := m.url + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, rd)
	if err != nil {
		writeUncoded(w, http.StatusInternalServerError, err.Error())
		return
	}
	// Accept travels with the request so the member, not the router,
	// picks the representation (the results frame or JSON).
	for _, h := range []string{"Content-Type", "Accept"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	resp, err := rt.http.Do(req)
	if err != nil {
		if r.Context().Err() != nil {
			// The CLIENT went away (or timed out); the member is not to
			// blame, so don't fail it over.
			wire.WriteError(w, wire.CodeCanceled, err)
			return
		}
		rt.mu.Lock()
		rt.pl.markDown(m, time.Now())
		rt.mu.Unlock()
		rt.writeUnavailable(w, fmt.Errorf("forward to %q: node is down; shard is being replaced", m.name))
		return
	}
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After", "Vary"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	rt.setEpochHeader(w)
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// handleCreate peeks the catalog out of the creation body to compute
// its shard — the same server.ShardOf every member applies — then
// forwards the buffered body to the shard's owner.
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeUncoded(w, http.StatusBadRequest, "bad request body")
		return
	}
	var req wire.CreateSessionRequest
	if err := json.Unmarshal(body, &req); err != nil || req.Catalog == "" {
		writeUncoded(w, http.StatusBadRequest, "bad request body: missing catalog")
		return
	}
	m, err := rt.ownerOf(server.ShardOf(req.Catalog, rt.cfg.Shards))
	if err != nil {
		rt.writeUnavailable(w, err)
		return
	}
	rt.forward(w, r, m, body)
}

// handleSession routes a session request by the shard index embedded
// in its ID (server.ShardOfID, exactly as the members parse it).
func (rt *Router) handleSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	shard, err := server.ShardOfID(id)
	if err == nil && shard >= rt.cfg.Shards {
		err = fmt.Errorf("session id %q names no shard", id)
	}
	if err != nil {
		writeUncoded(w, http.StatusNotFound, err.Error())
		return
	}
	m, err := rt.ownerOf(shard)
	if err != nil {
		rt.writeUnavailable(w, err)
		return
	}
	// Buffer the body (a few hundred bytes at most) so a passive
	// failover never replays a half-read stream.
	var body []byte
	if r.Body != nil {
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		if err != nil {
			writeUncoded(w, http.StatusBadRequest, "bad request body")
			return
		}
		if len(body) == 0 {
			body = nil
		}
	}
	rt.forward(w, r, m, body)
}

// handleCatalogs forwards to any healthy member — every member serves
// the same catalog set.
func (rt *Router) handleCatalogs(w http.ResponseWriter, r *http.Request) {
	rt.mu.RLock()
	up := rt.pl.healthy()
	rt.mu.RUnlock()
	if len(up) == 0 {
		rt.writeUnavailable(w, errNoHealthy)
		return
	}
	rt.forward(w, r, up[0], nil)
}
