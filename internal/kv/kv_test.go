package kv

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestServerGetPutEvict(t *testing.T) {
	s := NewServer(3, 100)
	if _, ok := s.Get("missing"); ok {
		t.Fatal("get of empty store hit")
	}
	if !s.Put("a", bytes.Repeat([]byte{1}, 40)) {
		t.Fatal("put a rejected")
	}
	if !s.Put("b", bytes.Repeat([]byte{2}, 40)) {
		t.Fatal("put b rejected")
	}
	// Immutability: a re-put never replaces the bytes.
	s.Put("a", bytes.Repeat([]byte{9}, 10))
	if v, ok := s.Get("a"); !ok || v[0] != 1 || len(v) != 40 {
		t.Fatalf("re-put replaced value: %v", v)
	}
	// "a" is now most recent; a third put must evict "b" (byte budget).
	if !s.Put("c", bytes.Repeat([]byte{3}, 40)) {
		t.Fatal("put c rejected")
	}
	if _, ok := s.Get("b"); ok {
		t.Fatal("LRU kept the stale key")
	}
	if _, ok := s.Get("a"); !ok {
		t.Fatal("LRU evicted the refreshed key")
	}
	// Oversized value: rejected outright.
	if s.Put("huge", make([]byte, 101)) {
		t.Fatal("oversized value accepted")
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Rejects != 1 || st.Entries != 2 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Bytes != 82 { // two 40-byte values under 1-byte keys
		t.Fatalf("byte accounting: %d", st.Bytes)
	}
}

// TestServerBudgetCountsKeys: the byte budget charges keys, so a flood
// of long keys under empty values cannot outgrow it.
func TestServerBudgetCountsKeys(t *testing.T) {
	const budget = 10 * MaxKeyLen
	s := NewServer(0, budget)
	for i := 0; i < 100; i++ {
		key := strings.Repeat("k", MaxKeyLen-3) + fmt.Sprintf("%03d", i)
		if !s.Put(key, nil) {
			t.Fatalf("put %d rejected", i)
		}
		if st := s.Stats(); st.Bytes > st.MaxBytes {
			t.Fatalf("after %d puts: %d resident bytes over the budget %d", i+1, st.Bytes, st.MaxBytes)
		}
	}
	if st := s.Stats(); st.Entries != 10 || st.Bytes != budget || st.Evictions != 90 {
		t.Fatalf("stats: %+v", st)
	}
	// A key that alone exceeds the budget is rejected like an oversized
	// value.
	if NewServer(0, 8).Put("123456789", nil) {
		t.Fatal("entry larger than the budget accepted")
	}
}

func TestServerEntryCap(t *testing.T) {
	s := NewServer(2, 1<<20)
	s.Put("a", []byte{1})
	s.Put("b", []byte{2})
	s.Put("c", []byte{3})
	if n := s.Stats().Entries; n != 2 {
		t.Fatalf("entry cap: %d resident", n)
	}
	if _, ok := s.Get("a"); ok {
		t.Fatal("oldest survived the cap")
	}
}

func TestClientAgainstServer(t *testing.T) {
	srv := NewServer(0, 0)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := NewClient(ts.URL)

	if _, ok := c.Get("C|nope"); ok {
		t.Fatal("missing key hit")
	}
	c.Put("C|k1", []byte("hello"))
	v, ok := c.Get("C|k1")
	if !ok || string(v) != "hello" {
		t.Fatalf("round trip: %q %v", v, ok)
	}
	// Keys with every character the structural keys use must survive
	// URL escaping.
	awkward := `C|T:S:200:e1f|S.a|a BETWEEN 0x1.8p+4 AND 30 ?&%= |w0.5`
	c.Put(awkward, []byte{0xff, 0x00})
	if v, ok := c.Get(awkward); !ok || !bytes.Equal(v, []byte{0xff, 0x00}) {
		t.Fatalf("awkward key mangled: %v %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Puts != 2 || st.Errors != 0 {
		t.Fatalf("client stats: %+v", st)
	}
	ss, err := c.ServerStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ss.Entries != 2 || ss.Hits != 2 {
		t.Fatalf("server stats over HTTP: %+v", ss)
	}
}

func TestClientSingleflight(t *testing.T) {
	var calls atomic.Int32
	block := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		<-block
		w.Write([]byte("v"))
	}))
	defer ts.Close()
	c := NewClient(ts.URL)

	const n = 8
	var wg sync.WaitGroup
	results := make([][]byte, n)
	get := func(i int) {
		defer wg.Done()
		v, ok := c.Get("same-key")
		if !ok {
			t.Errorf("get %d failed", i)
		}
		results[i] = v
	}
	// Lead with one Get, wait until its request is on the wire, then
	// pile on followers and wait until every one is parked on the
	// leader's call before releasing the response — fully deterministic:
	// all collapse, exactly one request.
	wg.Add(1)
	go get(0)
	for calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	for i := 1; i < n; i++ {
		wg.Add(1)
		go get(i)
	}
	for c.Stats().Shared != n-1 {
		time.Sleep(time.Millisecond)
	}
	close(block)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d requests for one key under concurrency", got)
	}
	for i, v := range results {
		if string(v) != "v" {
			t.Fatalf("follower %d got %q", i, v)
		}
	}
	if st := c.Stats(); st.Shared != n-1 {
		t.Fatalf("shared count: %+v", st)
	}
}

func TestClientDegradesOnDeadServer(t *testing.T) {
	c := NewClient("http://127.0.0.1:1") // nothing listens on port 1
	if _, ok := c.Get("k"); ok {
		t.Fatal("dead server hit")
	}
	c.Put("k", []byte("v"))
	if st := c.Stats(); st.Errors != 2 {
		t.Fatalf("errors not counted: %+v", st)
	}
}

func TestServerRejectsBadKeys(t *testing.T) {
	ts := httptest.NewServer(NewServer(0, 0))
	defer ts.Close()
	for _, u := range []string{
		ts.URL + "/v1/kv",
		fmt.Sprintf("%s/v1/kv?key=%s", ts.URL, string(bytes.Repeat([]byte{'x'}, MaxKeyLen+1))),
	} {
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d", u, resp.StatusCode)
		}
	}
}
