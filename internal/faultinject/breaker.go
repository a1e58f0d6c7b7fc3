package faultinject

import (
	"net/http"
	"sync/atomic"
)

// Breaker wraps an http.Handler to simulate a node dying (and coming
// back) mid-run: while killed, every request aborts its connection —
// via panic(http.ErrAbortHandler), which net/http treats as a silent
// connection teardown — so callers observe exactly what a crashed
// process produces: a transport error, never an HTTP response. Kill
// and Revive are instant and safe from any goroutine, which is what
// lets the node-kill chaos suite script a death at a precise point in
// a run.
type Breaker struct {
	h    http.Handler
	dead atomic.Bool
}

// NewBreaker wraps h; the breaker starts alive.
func NewBreaker(h http.Handler) *Breaker { return &Breaker{h: h} }

// Kill makes every subsequent request abort its connection.
func (b *Breaker) Kill() { b.dead.Store(true) }

// Revive restores normal serving.
func (b *Breaker) Revive() { b.dead.Store(false) }

// ServeHTTP implements http.Handler.
func (b *Breaker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if b.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	b.h.ServeHTTP(w, r)
}
