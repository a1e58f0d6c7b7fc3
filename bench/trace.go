package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Tracing from outside: the bench records a span around every call it
// makes into a layer and around every public seam the layers expose
// (http.RoundTripper, http.Handler, core.SharedBackend). Nothing inside
// the program under test is touched. Spans stay in memory until the
// run ends.

// span is one timed interval. Spans of one step share (Client, Step);
// set-up spans carry Step -1. Parent is the ID of the innermost span of
// the same step that contains this one in time (-1 for a root), filled
// in by tracer.link once the run is over.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Client int    `json:"client"`
	Step   int    `json:"step"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	// Req and Resp are the payload bytes the span carried towards the
	// callee and back (HTTP bodies; a kv value counts on the side it
	// travels).
	Req    int64 `json:"req_bytes,omitempty"`
	Resp   int64 `json:"resp_bytes,omitempty"`
	Status int   `json:"status,omitempty"` // HTTP status; -1 for a transport error
	self   int64 // End-Start minus the children's durations
}

// stepHeader carries the step identifier client → router → member →
// kv. The router forwards only Content-Type, so the bench's own
// router-side handler and RoundTripper re-attach it through the
// request context.
const stepHeader = "X-Bench-Step"

type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// cur is each client's traced step in flight, nil between traced
	// steps: the seams that have no request to read a header from (the
	// client-side RoundTripper, the kv backend) look here.
	cur []atomic.Pointer[stepTrace]
}

func newTracer(clients int) *tracer {
	return &tracer{epoch: time.Now(), cur: make([]atomic.Pointer[stepTrace], clients)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// stepTrace identifies one traced step. A nil *stepTrace means "this
// step is not traced" and every method is a no-op, so untraced steps
// of a traced run pay one nil check per seam.
type stepTrace struct {
	t            *tracer
	client, step int
}

// begin marks the current step of client c as traced.
func (t *tracer) begin(c, step int) *stepTrace {
	st := &stepTrace{t: t, client: c, step: step}
	t.cur[c].Store(st)
	return st
}

func (st *stepTrace) finish() {
	if st != nil {
		st.t.cur[st.client].Store(nil)
	}
}

// current returns client c's traced step in flight, or nil.
func (t *tracer) current(c int) *stepTrace {
	if t == nil {
		return nil
	}
	return t.cur[c].Load()
}

func (st *stepTrace) start() int64 {
	if st == nil {
		return 0
	}
	return st.t.now()
}

// end records a span that began at start (from st.start) and ends now.
func (st *stepTrace) end(name string, start int64) { st.endHTTP(name, start, 0, 0, 0) }

// endHTTP is end for spans that moved payload.
func (st *stepTrace) endHTTP(name string, start, req, resp int64, status int) {
	if st == nil {
		return
	}
	end := st.t.now()
	st.t.mu.Lock()
	st.t.spans = append(st.t.spans, span{Client: st.client, Step: st.step, Name: name,
		Start: start, End: end, Req: req, Resp: resp, Status: status})
	st.t.mu.Unlock()
}

func (st *stepTrace) header() string { return fmt.Sprintf("%d.%d", st.client, st.step) }

// fromHeader resolves a request's step header back to a stepTrace.
func (t *tracer) fromHeader(r *http.Request) *stepTrace {
	v := r.Header.Get(stepHeader)
	if v == "" {
		return nil
	}
	st := &stepTrace{t: t}
	if _, err := fmt.Sscanf(v, "%d.%d", &st.client, &st.step); err != nil {
		return nil
	}
	return st
}

// setup runs fn, stores how long it took in *took and, on a traced
// run, records it as a set-up span (Step -1).
func (t *tracer) setup(name string, took *time.Duration, fn func() error) error {
	var st *stepTrace
	if t != nil {
		st = &stepTrace{t: t, step: -1}
	}
	t0 := time.Now()
	sp := st.start()
	err := fn()
	st.end(name, sp)
	*took = time.Since(t0)
	return err
}

// --- seams ------------------------------------------------------------

// tracedTransport is the RoundTripper seam (client.Client.HTTP,
// router.Config.HTTP, kv.Client.HTTP). pick finds the step a request
// belongs to and the step header is attached for the next hop. The
// response body is read to the end inside the span and handed on from
// memory: the span then covers everything the far side and the wire
// did, and whatever the caller does with the payload afterwards (JSON
// decoding, copying it on) is the caller's own time. That buffering is
// part of the tracing overhead the traced run reports.
type tracedTransport struct {
	name string
	next http.RoundTripper
	pick func(*http.Request) *stepTrace
}

// bodyPool recycles the buffers response bodies are read into: the
// payloads are megabytes (a picture, a leaf vector), and allocating one
// per response would charge the traced steps for garbage collection
// work the untraced ones do not cause.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// pooledBody serves a buffered response body and returns the buffer to
// the pool when closed.
type pooledBody struct{ buf *bytes.Buffer }

func (b *pooledBody) Read(p []byte) (int, error) {
	if b.buf == nil {
		return 0, http.ErrBodyReadAfterClose
	}
	return b.buf.Read(p)
}

func (b *pooledBody) Close() error {
	if b.buf != nil {
		b.buf.Reset()
		bodyPool.Put(b.buf)
		b.buf = nil
	}
	return nil
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	st := tt.pick(req)
	if st == nil {
		return tt.next.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(stepHeader, st.header())
	start := st.start()
	sent := max(req.ContentLength, 0)
	resp, err := tt.next.RoundTrip(req)
	if err != nil {
		st.endHTTP(tt.name, start, sent, 0, -1)
		return nil, err
	}
	body := &pooledBody{buf: bodyPool.Get().(*bytes.Buffer)}
	_, err = body.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	st.endHTTP(tt.name, start, sent, int64(body.buf.Len()), resp.StatusCode)
	if err != nil {
		body.Close()
		return nil, err
	}
	resp.Body = body
	return resp, nil
}

type stepCtxKey struct{}

// tracedHandler is the http.Handler seam (server.New, router.New,
// kv.NewServer). name maps a request to its span name. The step is put
// in the request context so that a tracedTransport behind the handler
// (the router's outbound client) can pick it up again.
type tracedHandler struct {
	t    *tracer
	next http.Handler
	name func(*http.Request) string
}

type countingWriter struct {
	http.ResponseWriter
	n      int64
	status int
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	st := h.t.fromHeader(r)
	if st == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
	start := st.start()
	h.next.ServeHTTP(cw, r.WithContext(context.WithValue(r.Context(), stepCtxKey{}, st)))
	st.endHTTP(h.name(r), start, max(r.ContentLength, 0), cw.n, cw.status)
}

func stepFromContext(r *http.Request) *stepTrace {
	st, _ := r.Context().Value(stepCtxKey{}).(*stepTrace)
	return st
}

// serverSpanName classifies a visdbd route.
func serverSpanName(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasSuffix(p, "/results"):
		return "server.results"
	case r.Method == http.MethodPost && p == "/v1/sessions":
		return "server.create"
	case r.Method == http.MethodPost:
		return "server.mutate"
	}
	return "server.other"
}

// tracedBackend is the core.SharedBackend seam: it times the kv client
// of one member catalog. Each client drives its own catalog replica in
// a closed loop, so the step in flight for that client is the caller.
type tracedBackend struct {
	t      *tracer
	client int
	next   core.SharedBackend
}

func (b *tracedBackend) Get(key string) ([]byte, bool) {
	st := b.t.current(b.client)
	start := st.start()
	val, ok := b.next.Get(key)
	st.endHTTP("kv.get", start, 0, int64(len(val)), 0)
	return val, ok
}

func (b *tracedBackend) Put(key string, val []byte) {
	st := b.t.current(b.client)
	start := st.start()
	b.next.Put(key, val)
	st.endHTTP("kv.put", start, int64(len(val)), 0, 0)
}

// BreakerState forwards core.BreakerReporter, so wrapping the kv client
// does not hide its circuit breaker from the shared-cache stats.
func (b *tracedBackend) BreakerState() (string, uint64, uint64) {
	if br, ok := b.next.(core.BreakerReporter); ok {
		return br.BreakerState()
	}
	return "", 0, 0
}

// --- analysis ---------------------------------------------------------

// link assigns IDs, parents and self times: within one step a span's
// parent is the innermost span that contains it, which is unambiguous
// because a closed-loop client does one thing at a time.
func (t *tracer) link() {
	spans := t.spans
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := &spans[i], &spans[j]
		if a.Client != b.Client {
			return a.Client < b.Client
		}
		if a.Step != b.Step {
			return a.Step < b.Step
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.End > b.End
	})
	var stack []int
	for i := range spans {
		s := &spans[i]
		s.ID, s.Parent, s.self = i, -1, s.End-s.Start
		if len(stack) > 0 {
			top := &spans[stack[0]]
			if top.Client != s.Client || top.Step != s.Step {
				stack = stack[:0]
			}
		}
		for len(stack) > 0 && spans[stack[len(stack)-1]].End < s.End {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			p := &spans[stack[len(stack)-1]]
			s.Parent = p.ID
			p.self -= s.End - s.Start
		}
		stack = append(stack, i)
	}
}

// spanTotals sums the step spans (set-up spans excluded) by name.
type spanTotals struct {
	count     map[string]int
	failed    map[string]int   // transport errors and 5xx
	total     map[string]int64 // summed durations
	self      map[string]int64 // summed self times
	req, resp map[string]int64 // summed payload bytes
}

func (t *tracer) totals() spanTotals {
	st := spanTotals{count: map[string]int{}, failed: map[string]int{}, total: map[string]int64{},
		self: map[string]int64{}, req: map[string]int64{}, resp: map[string]int64{}}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Step < 0 {
			continue
		}
		st.count[s.Name]++
		if s.Status < 0 || s.Status >= 500 {
			st.failed[s.Name]++
		}
		st.total[s.Name] += s.End - s.Start
		st.self[s.Name] += s.self
		st.req[s.Name] += s.Req
		st.resp[s.Name] += s.Resp
	}
	return st
}

// writeTo writes the linked spans as JSON lines.
func (t *tracer) writeTo(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
