package main

import (
	"context"
	"flag"
	"io"
	"net"
	"net/http"
	"reflect"
	"testing"
	"time"

	"p3/internal/stack"
)

// TestFlagsAreTheStackConfig pins the flag surface: the twenty flags this
// binary has always had, whose defaults are stack.DefaultConfig and whose
// values land in the Config the stack is built from.
func TestFlagsAreTheStackConfig(t *testing.T) {
	fs := flag.NewFlagSet("p3proxy", flag.ContinueOnError)
	cfg := stack.DefaultConfig()
	registerFlags(fs, &cfg)
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 20 {
		t.Errorf("p3proxy registers %d flags, want 20", n)
	}
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, stack.DefaultConfig()) {
		t.Errorf("parsing no flags changed the config:\n got %+v\nwant %+v", cfg, stack.DefaultConfig())
	}
	err := fs.Parse([]string{"-store", "disk:/a,disk:/b", "-replicas", "2", "-similarity", "-max-inflight", "8", "-t", "20"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Store != "disk:/a,disk:/b" || cfg.Replicas != 2 || !cfg.Similarity || cfg.MaxInflight != 8 || cfg.Threshold != 20 {
		t.Errorf("flags did not reach the config: %+v", cfg)
	}
}

// TestServeDrainsInFlightRequestBeforeReturning is the shutdown contract:
// after the stop signal (ctx) a request already inside the handler runs to
// completion and is answered, the listener refuses new connections, and
// serve returns — only then does main close the stack.
func TestServeDrainsInFlightRequestBeforeReturning(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	entered, release := make(chan struct{}), make(chan struct{})
	srv := &http.Server{Addr: addr, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "done")
	})}
	ctx, stop := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serve(ctx, srv) }()

	type reply struct {
		body string
		err  error
	}
	replied := make(chan reply, 1)
	go func() {
		var resp *http.Response
		var err error
		// The listener comes up a moment after serve starts.
		for i := 0; i < 200; i++ {
			if resp, err = http.Get("http://" + addr + "/"); err == nil {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if err != nil {
			replied <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		replied <- reply{string(body), err}
	}()

	<-entered
	stop()
	select {
	case err := <-served:
		t.Fatalf("serve returned (%v) with a request still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if r := <-replied; r.err != nil || r.body != "done" {
		t.Errorf("in-flight request got %q, %v; want it completed", r.body, r.err)
	}
	if err := <-served; err != nil {
		t.Errorf("serve returned %v after a clean drain", err)
	}
	if _, err := http.Get("http://" + addr + "/"); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}

// TestServeReportsListenFailure: a port that cannot be bound is an error
// from serve, not a hang.
func TestServeReportsListenFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := serve(context.Background(), &http.Server{Addr: ln.Addr().String()}); err == nil {
		t.Error("serve on an occupied port returned nil")
	}
}
