// Package faultinject provides deterministic fault injection for the
// serving stack's failure-semantics tests: a scripted flaky
// http.RoundTripper (dropped requests, dropped responses), and
// corrupting / truncating io.ReaderAt wrappers that plug
// into dataset.OpenOptions.WrapReaderAt.
//
// Everything here is scripted, never probabilistic: a test declares
// the exact fault sequence, so chaos suites replay identically on
// every run and a failure always reproduces. Handler-side latency and
// error injection lives in internal/server's Config.FaultHook, which
// consumes the same Fault vocabulary.
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
)

// Outcome is one scripted transport round trip.
type Outcome int

const (
	// Pass forwards the request unchanged.
	Pass Outcome = iota
	// DropBefore fails the round trip without sending the request —
	// the server never sees it (connection refused, DNS failure).
	DropBefore
	// DropAfter sends the request, lets the server process it fully,
	// then discards the response and fails — the classic "did my
	// write land?" ambiguity that idempotent sequence numbers exist
	// to resolve.
	DropAfter
)

// ErrInjected is wrapped by every transport error this package
// fabricates, so tests can tell injected faults from real ones.
var ErrInjected = errors.New("faultinject: injected transport fault")

// Transport is a scripted flaky http.RoundTripper: each round trip
// consumes the next Outcome of the script; an exhausted script passes
// everything through. Safe for concurrent use.
type Transport struct {
	// Base performs the real round trips (http.DefaultTransport when
	// nil).
	Base http.RoundTripper

	mu     sync.Mutex
	script []Outcome
	next   int
	calls  int
	drops  int
}

// NewTransport returns a Transport over base executing script in
// order.
func NewTransport(base http.RoundTripper, script ...Outcome) *Transport {
	return &Transport{Base: base, script: script}
}

// Calls reports how many round trips were attempted; Drops how many
// the script failed.
func (t *Transport) Calls() int { t.mu.Lock(); defer t.mu.Unlock(); return t.calls }

// Drops reports how many round trips the script failed.
func (t *Transport) Drops() int { t.mu.Lock(); defer t.mu.Unlock(); return t.drops }

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	out := Pass
	if t.next < len(t.script) {
		out = t.script[t.next]
		t.next++
	}
	t.calls++
	if out != Pass {
		t.drops++
	}
	t.mu.Unlock()

	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	switch out {
	case DropBefore:
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("request dropped before send: %w", ErrInjected)
	case DropAfter:
		resp, err := base.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		// The server handled the request; lose its answer.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("response dropped after server handled request: %w", ErrInjected)
	default:
		return base.RoundTrip(req)
	}
}

// --- io.ReaderAt wrappers --------------------------------------------

// TruncateReaderAt returns an io.ReaderAt over r that behaves as if
// the underlying medium ended at limit bytes: reads fully below the
// limit succeed, anything touching bytes at or past it fails with
// io.ErrUnexpectedEOF.
func TruncateReaderAt(r io.ReaderAt, limit int64) io.ReaderAt {
	return &truncateReaderAt{r: r, limit: limit}
}

type truncateReaderAt struct {
	r     io.ReaderAt
	limit int64
}

func (t *truncateReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off >= t.limit {
		return 0, io.ErrUnexpectedEOF
	}
	if off+int64(len(p)) > t.limit {
		n, err := t.r.ReadAt(p[:t.limit-off], off)
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return n, err
	}
	return t.r.ReadAt(p, off)
}

// CorruptReaderAt returns an io.ReaderAt over r that flips the bits
// of mask in the byte at file offset off — a deterministic single-byte
// medium error beneath an otherwise healthy file.
func CorruptReaderAt(r io.ReaderAt, off int64, mask byte) io.ReaderAt {
	return &corruptReaderAt{r: r, off: off, mask: mask}
}

type corruptReaderAt struct {
	r    io.ReaderAt
	off  int64
	mask byte
}

func (c *corruptReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	if c.off >= off && c.off < off+int64(n) {
		p[c.off-off] ^= c.mask
	}
	return n, err
}
