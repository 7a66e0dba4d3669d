package proxy

// Admission wiring: the proxy itself stays policy-free — all shedding
// decisions live in internal/admission — but each serving operation asks
// the controller for a slot before doing real work, tagged with its cost
// class so a cached-variant hit is never stuck behind a cold
// reconstruction or a calibration sweep. Without WithAdmission every
// admit is a no-op and the proxy behaves exactly as before.

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"p3/internal/admission"
)

// WithAdmission puts an admission controller in front of every serving
// operation (photo and video uploads/downloads, calibration). Requests the
// controller sheds fail with *admission.ShedError, which ServeHTTP maps to
// 503 + Retry-After.
func WithAdmission(ctrl *admission.Controller) ProxyOption {
	return func(c *proxyConfig) { c.admission = ctrl }
}

// admit asks the admission layer for a slot in the given cost class,
// identifying the client from the context (set by ServeHTTP from the
// request, or by in-process callers via admission.WithClient). The
// returned release must be called when the operation finishes; with no
// controller configured both are free no-ops.
func (p *Proxy) admit(ctx context.Context, class admission.Class) (func(), error) {
	if p.admission == nil {
		return func() {}, nil
	}
	return p.admission.Admit(ctx, class, admission.ClientFromContext(ctx))
}

// admitVariant admits a view of one variant-cache key and serves it from
// the cache when it is there (hit). A resident key is a cheap memory read
// (Cached), anything else pays fetch + reconstruct (Cold). Containment can
// go stale between this peek and the lookup — that only mis-prices a
// request, never mis-serves it. On a miss the caller loads the key while
// still admitted; either way it calls release when done.
func (p *Proxy) admitVariant(ctx context.Context, key []byte) (b []byte, hit bool, release func(), err error) {
	class := admission.Cached
	if p.admission != nil && !p.variants.Contains(key) {
		class = admission.Cold
	}
	if release, err = p.admit(ctx, class); err != nil {
		return nil, false, nil, err
	}
	b, hit = p.variants.Get(key)
	p.calib.noteWarmHit(key, hit)
	return b, hit, release, nil
}

// retryAfterSeconds renders a back-off hint as the whole-second value the
// Retry-After header carries, rounding up so a sub-second hint never
// becomes "0" — which clients read as "retry immediately", the opposite of
// back-pressure.
func retryAfterSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// setRetryAfter attaches the Retry-After header for back-pressure errors —
// a calibration already in flight, or a request shed by the admission
// layer. One helper for both, so every 503 the proxy emits carries the
// same, correctly rounded hint. Other errors pass through untouched.
func setRetryAfter(h http.Header, err error) {
	var inFlight *CalibrationInFlightError
	var shed *admission.ShedError
	switch {
	case errors.As(err, &inFlight):
		h.Set("Retry-After", strconv.Itoa(retryAfterSeconds(inFlight.RetryAfter)))
	case errors.As(err, &shed):
		h.Set("Retry-After", strconv.Itoa(retryAfterSeconds(shed.RetryAfter)))
	}
}

// httpError writes one serving error the standard way: Retry-After for
// back-pressure, then the status statusFor assigns.
func httpError(w http.ResponseWriter, err error) {
	setRetryAfter(w.Header(), err)
	http.Error(w, err.Error(), statusFor(err))
}
