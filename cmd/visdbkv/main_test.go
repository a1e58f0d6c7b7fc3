package main

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/kv"
)

// TestKVDaemonSmoke drives one full lifecycle: start on an ephemeral
// port, put and get through the kv client, fetch server stats over
// HTTP, then cancel the context (the SIGTERM path) and assert a clean
// exit.
func TestKVDaemonSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := config{addr: "127.0.0.1:0", maxEntries: 128, maxBytesMB: 1}
	addrc := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg, func(addr string) { addrc <- addr }) }()

	var addr string
	select {
	case addr = <-addrc:
	case err := <-done:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}

	c := kv.NewClient("http://" + addr)
	c.Put("C|k", []byte{1, 2, 3})
	v, ok := c.Get("C|k")
	if !ok || !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("round trip through daemon: %v %v", v, ok)
	}
	st, err := c.ServerStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 1 || st.Hits != 1 {
		t.Fatalf("daemon stats: %+v", st)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not exit")
	}

	// Degenerate flags fail startup loudly.
	if err := run(context.Background(), config{addr: "127.0.0.1:0", maxEntries: -1}, nil); err == nil {
		t.Fatal("negative entry cap did not fail startup")
	}
}
