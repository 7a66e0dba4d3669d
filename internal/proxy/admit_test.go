package proxy

// Admission-integration tests: class determination against the variant
// cache, HTTP 503 + Retry-After mapping for shed requests, and the shared
// Retry-After helper both back-pressure errors flow through.

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"p3/internal/admission"
	"p3/internal/metrics"
)

func newAdmissionBed(t *testing.T, cfg admission.Config) (*servingBed, *admission.Controller) {
	t.Helper()
	reg := metrics.NewRegistry()
	ctrl, err := admission.New(cfg, reg, "test")
	if err != nil {
		t.Fatal(err)
	}
	bed := newServingBed(t, WithMetricsRegistry(reg), WithAdmission(ctrl))
	return bed, ctrl
}

// TestAdmissionClassDetermination: the first download of a variant is
// priced Cold, a repeat of the same variant Cached.
func TestAdmissionClassDetermination(t *testing.T) {
	bed, ctrl := newAdmissionBed(t, admission.Config{MaxInflight: 4})
	jpegBytes, _ := photoJPEG(t, 41, 320, 240)
	id, err := bed.proxy.Upload(ctx, jpegBytes)
	if err != nil {
		t.Fatal(err)
	}
	base := ctrl.Stats()
	if _, err := bed.proxy.Download(ctx, id, nil); err != nil {
		t.Fatal(err)
	}
	s := ctrl.Stats()
	if got := s.Cold.Admitted - base.Cold.Admitted; got != 1 {
		t.Errorf("first download admitted %d cold requests, want 1", got)
	}
	if _, err := bed.proxy.Download(ctx, id, nil); err != nil {
		t.Fatal(err)
	}
	s2 := ctrl.Stats()
	if got := s2.Cached.Admitted - s.Cached.Admitted; got != 1 {
		t.Errorf("repeat download admitted %d cached requests, want 1", got)
	}
	if got := s2.Cold.Admitted - s.Cold.Admitted; got != 0 {
		t.Errorf("repeat download admitted %d cold requests, want 0", got)
	}
}

// TestAdmissionHTTPShed: with the one slot held and the one queue place
// taken, a download is shed over HTTP as 503 with a Retry-After of at
// least one second; once the slot frees, the same download is served.
func TestAdmissionHTTPShed(t *testing.T) {
	bed, ctrl := newAdmissionBed(t, admission.Config{MaxInflight: 1, QueueDepth: 1})
	jpegBytes, _ := photoJPEG(t, 42, 320, 240)
	id, err := bed.proxy.Upload(ctx, jpegBytes)
	if err != nil {
		t.Fatal(err)
	}
	release, err := ctrl.Admit(ctx, admission.Cold, "holder")
	if err != nil {
		t.Fatal(err)
	}
	waiterCtx, cancelWaiter := context.WithCancel(ctx)
	waited := make(chan struct{})
	go func() {
		defer close(waited)
		if rel, err := ctrl.Admit(waiterCtx, admission.Cold, "waiter"); err == nil {
			rel()
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); ctrl.Stats().Cold.QueueDepth != 1; {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}
	get := func() *httptest.ResponseRecorder {
		// Bounded, so a download mispriced into an empty queue fails the
		// test instead of hanging it.
		reqCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		w := httptest.NewRecorder()
		bed.proxy.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/photo/"+id, nil).WithContext(reqCtx))
		return w
	}
	w := get()
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("download past a full queue: status %d, want 503", w.Code)
	}
	secs, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", w.Header().Get("Retry-After"))
	}
	if got := ctrl.Stats().ShedByReason[admission.ReasonQueueFull]; got != 1 {
		t.Fatalf("queue_full sheds = %d, want 1", got)
	}
	cancelWaiter()
	<-waited
	release()
	if w := get(); w.Code != http.StatusOK {
		t.Fatalf("download after release: status %d, body %q", w.Code, w.Body.String())
	}
}

// TestRetryAfterHelperRounding: both back-pressure error types flow
// through one helper that rounds up to whole seconds and never emits "0".
func TestRetryAfterHelperRounding(t *testing.T) {
	tests := []struct {
		name string
		err  error
		want string
	}{
		{"calibration sub-second", &CalibrationInFlightError{RetryAfter: 300 * time.Millisecond}, "1"},
		{"calibration rounds up", &CalibrationInFlightError{RetryAfter: 1200 * time.Millisecond}, "2"},
		{"calibration zero", &CalibrationInFlightError{}, "1"},
		{"shed sub-second", &admission.ShedError{RetryAfter: 10 * time.Millisecond}, "1"},
		{"shed exact", &admission.ShedError{RetryAfter: 3 * time.Second}, "3"},
		{"shed wrapped", &PartialUploadError{ID: "x", Err: &admission.ShedError{RetryAfter: 5 * time.Second}}, "5"},
		{"unrelated error", errors.New("boom"), ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h := make(http.Header)
			setRetryAfter(h, tt.err)
			if got := h.Get("Retry-After"); got != tt.want {
				t.Errorf("Retry-After = %q, want %q", got, tt.want)
			}
		})
	}
}

// TestCalibrateHTTPRetryAfter: the /calibrate 503 carries the unified
// Retry-After header while a pass is in flight (regression for the
// hand-rolled header this path used to build).
func TestCalibrateHTTPRetryAfter(t *testing.T) {
	bed, _ := newAdmissionBed(t, admission.Config{MaxInflight: 4})
	// Occupy the calibration slot directly, as a long pass would.
	bed.proxy.calib.mu.Lock()
	bed.proxy.calib.busy.Store(true)
	bed.proxy.calib.passStart = time.Now()
	bed.proxy.calib.mu.Unlock()
	defer bed.proxy.calib.busy.Store(false)

	req := httptest.NewRequest(http.MethodPost, "/calibrate", nil)
	w := httptest.NewRecorder()
	bed.proxy.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
	secs, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", w.Header().Get("Retry-After"))
	}
}

// TestAdmissionStatsExposed: /stats carries the admission block when a
// controller is wired, and omits it otherwise.
func TestAdmissionStatsExposed(t *testing.T) {
	bed, _ := newAdmissionBed(t, admission.Config{MaxInflight: 4})
	if bed.proxy.Stats().Admission == nil {
		t.Fatal("Stats().Admission nil with a controller wired")
	}
	plain := newServingBed(t, WithMetricsRegistry(metrics.NewRegistry()))
	if plain.proxy.Stats().Admission != nil {
		t.Fatal("Stats().Admission non-nil without a controller")
	}
}
