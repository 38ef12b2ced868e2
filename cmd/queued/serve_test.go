package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestServeDrainsBeforeClosingState: a stop signal that arrives while a
// request is in flight lets that request finish with its full body, and
// the durable state closes only after the handler returned. main hands
// serve a context that SIGINT/SIGTERM cancels.
func TestServeDrainsBeforeClosingState(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	body := strings.Repeat("queue", 200_000) // 1 MB: a cut response shows
	entered, release := make(chan struct{}), make(chan struct{})
	var handled atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, body)
		handled.Store(true)
	})

	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	closed := make(chan bool, 1) // whether the handler had returned
	served := make(chan error, 1)
	go func() { served <- serve(ctx, ln, mux, func() { closed <- handled.Load() }) }()

	type reply struct {
		status int
		body   string
		err    error
	}
	got := make(chan reply, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			got <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		got <- reply{resp.StatusCode, string(b), err}
	}()

	<-entered
	stop() // the stop signal
	select {
	case <-closed:
		t.Fatal("state closed while a request was in flight")
	case <-time.After(200 * time.Millisecond):
	}
	close(release)

	r := <-got
	if r.err != nil || r.status != http.StatusOK || r.body != body {
		t.Fatalf("in-flight request: status %d, %d of %d body bytes, err %v",
			r.status, len(r.body), len(body), r.err)
	}
	if !<-closed {
		t.Fatal("state closed before the in-flight handler returned")
	}
	if err := <-served; err != nil {
		t.Fatalf("serve after a stop signal: %v", err)
	}
	if _, err := http.Get("http://" + ln.Addr().String() + "/slow"); err == nil {
		t.Fatal("server still accepting after shutdown")
	}
}
