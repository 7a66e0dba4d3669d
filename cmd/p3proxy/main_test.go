package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"p3/internal/stack"
)

// TestFlagsAreTheStackConfig pins the flag surface: the nineteen flags of
// this binary, whose defaults are stack.DefaultConfig and whose values
// land in the Config the stack is built from.
func TestFlagsAreTheStackConfig(t *testing.T) {
	fs := flag.NewFlagSet("p3proxy", flag.ContinueOnError)
	cfg := stack.DefaultConfig()
	registerFlags(fs, &cfg)
	n := 0
	fs.VisitAll(func(*flag.Flag) { n++ })
	if n != 19 {
		t.Errorf("p3proxy registers %d flags, want 19", n)
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
	go func() { served <- serve(ctx, stop, srv) }()

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

// TestSecondSignalDuringDrainEndsProcess: the first SIGTERM starts the drain;
// a second one while a request is still in flight must end the process at
// once, not wait out the 30 s drain. The test re-executes itself as the
// process under test: signal.NotifyContext and serve wired as in main,
// around a handler that never returns.
func TestSecondSignalDuringDrainEndsProcess(t *testing.T) {
	if addr := os.Getenv("P3PROXY_TEST_DRAIN_ADDR"); addr != "" {
		drainForever(addr)
		return
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	cmd := exec.Command(os.Args[0], "-test.run=^TestSecondSignalDuringDrainEndsProcess$")
	cmd.Env = append(os.Environ(), "P3PROXY_TEST_DRAIN_ADDR="+addr)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	lines := make(chan string, 16) // the process prints two lines
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
		exited <- cmd.Wait()
	}()
	defer cmd.Process.Kill()
	waitFor := func(want string) {
		t.Helper()
		timeout := time.After(10 * time.Second)
		for {
			select {
			case line, ok := <-lines:
				if !ok {
					t.Fatalf("process exited before printing %q", want)
				}
				if strings.Contains(line, want) {
					return
				}
			case <-timeout:
				t.Fatalf("process never printed %q", want)
			}
		}
	}

	waitFor("request in flight")
	cmd.Process.Signal(syscall.SIGTERM)
	waitFor("shutting down")
	cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-exited:
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.Sys().(syscall.WaitStatus).Signal() != syscall.SIGTERM {
			t.Errorf("process ended with %v, want killed by the second SIGTERM", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("second SIGTERM during the drain did not end the process")
	}
}

// drainForever is the process under test above.
func drainForever(addr string) {
	srv := &http.Server{Addr: addr, Handler: http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		fmt.Println("request in flight")
		select {}
	})}
	go func() {
		for {
			if resp, err := http.Get("http://" + addr + "/"); err == nil {
				resp.Body.Close()
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	serve(ctx, stop, srv)
}

// TestServeReportsListenFailure: a port that cannot be bound is an error
// from serve, not a hang.
func TestServeReportsListenFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := serve(context.Background(), func() {}, &http.Server{Addr: ln.Addr().String()}); err == nil {
		t.Error("serve on an occupied port returned nil")
	}
}
