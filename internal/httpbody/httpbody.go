// Package httpbody holds the one rule every JSON-over-HTTP caller in
// the fleet (typed client, router, kv client) must follow when it reads
// a response: decode, then read on to EOF.
package httpbody

import (
	"encoding/json"
	"io"
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
