// Package httpbody holds what every JSON-over-HTTP hop in the fleet
// (typed client, server, router, kv client) shares: the one rule for
// reading a response — decode, then read on to EOF — and the one way to
// write and to fetch a JSON value.
package httpbody

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// drainLimit bounds what DecodeJSON reads past the decoded value. A
// well-formed response has one newline and the chunked terminator left;
// a peer that keeps sending costs at most this much before the caller's
// Close drops the connection instead.
const drainLimit = 64 << 10

// DecodeJSON decodes one JSON value from a response body into v and
// then drains the remainder. json.Decoder stops at the end of the
// value, which on a chunked body (anything net/http did not buffer
// whole, ~2 KB and up) is before the terminating chunk; closing a body
// that never reported EOF makes net/http discard the keep-alive
// connection, so without the drain every large response costs a dial.
func DecodeJSON(body io.Reader, v any) error {
	err := json.NewDecoder(body).Decode(v)
	_, _ = io.CopyN(io.Discard, body, drainLimit) // best effort: only connection reuse rides on it
	return err
}

// WriteJSON encodes v as the response body under status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // a failed write is the peer's disconnect
}

// GetJSON fetches url and decodes a 200's body into v; any other status
// is an error.
func GetJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.CopyN(io.Discard, resp.Body, drainLimit)
		return fmt.Errorf("GET %s: http %d", url, resp.StatusCode)
	}
	return DecodeJSON(resp.Body, v)
}
