package admission

// Request-storm detection, RAID-style: cheap online statistics in the
// request path, no per-request allocation, no background goroutine.
//
// Two estimators cooperate. Globally, arrivals are counted in fixed
// windows and a CUSUM accumulates each window's excess over a slowly
// adapting baseline: S <- max(0, S + count - baseline*(1+slack)). A storm
// is declared when S crosses its trip point and cleared when S drains back
// to zero — the classic change-point shape that reacts in a couple of
// windows to a genuine level shift while riding out ordinary burstiness.
// The baseline only adapts while the CUSUM is at zero, so a surge (or a
// long-running attack) cannot teach the detector that storming is normal.
//
// Per key, an exponentially decayed arrival count (half-life keyHalfLife)
// estimates each client's current request rate for a few words of memory
// per client. Clamping needs both signals: a storm must be active
// (globally, something is wrong) AND the key's rate must exceed
// clampFactor times the current per-client fair share (this client is the
// something). A flash crowd — the same surge spread over many distinct
// clients — trips the CUSUM but leaves every key near 1x fair share, so
// nobody is clamped; that asymmetry is the whole point of the design.

import (
	"math"
	"sync"
	"time"
)

// Detector tuning. Each value is the one every deployment has run with;
// StormClamp is the only knob a workload sets.
const (
	stormWindow    = 250 * time.Millisecond // arrival-count window
	baselineAlpha  = 0.2                    // EWMA weight of the per-window baseline; smaller adapts slower
	cusumSlack     = 0.5                    // windows within (1+slack)x baseline never accumulate
	cusumThreshold = 4                      // CUSUM trip point, in multiples of the per-window baseline
	minExcess      = 50                     // absolute trip-point floor in arrivals, so near-idle traffic cannot trip
	keyHalfLife    = time.Second            // half-life of the per-key decayed rate
	minClampRate   = 5                      // req/s below which a key is never clamped, whatever its fair-share multiple
	clampFor       = 5 * time.Second        // how long a key stays clamped after it last exceeded the limit
	maxStormKeys   = 4096                   // bound on the per-key table, clamped keys included
	maxReplay      = 64                     // windows an arrival replays before a gap counts as idle
)

// keyState is one client's record: its decayed arrival count and, once
// clamped, the clamp's expiry.
type keyState struct {
	weight float64
	last   time.Time
	until  time.Time // clamp expiry; the key is clamped while now is before it
}

// detector is the storm detector. All state lives behind one mutex; the
// per-arrival critical section is a handful of float ops.
type detector struct {
	clampFactor float64

	mu          sync.Mutex
	windowStart time.Time
	windowCount float64
	baseline    float64 // EWMA of per-window arrival counts, frozen mid-storm
	current     float64 // fast EWMA of the same, tracks storms too
	cusum       float64
	active      bool
	keys        map[string]*keyState
}

func newDetector(clampFactor float64) *detector {
	return &detector{clampFactor: clampFactor, keys: make(map[string]*keyState)}
}

// arrival records one request from key at now and decides whether the key
// is (still or newly) clamped. until is the clamp expiry when clamped;
// newClamp reports a key that entered the clamped state on this call
// (feeds p3_admission_clamped_total).
func (d *detector) arrival(key string, now time.Time) (clamped bool, until time.Time, newClamp bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rollWindowsLocked(now)
	d.windowCount++

	ks, ok := d.keys[key]
	if !ok {
		if len(d.keys) >= maxStormKeys {
			d.evictLocked(now)
		}
		ks = &keyState{last: now}
		d.keys[key] = ks
	}
	ks.weight = ks.weight*decay(now.Sub(ks.last)) + 1
	ks.last = now

	wasClamped := now.Before(ks.until)
	if d.active && d.overLimitLocked(ks.weight*math.Ln2/keyHalfLife.Seconds()) {
		// Set or renew: a clamped attacker that never slows down never
		// un-clamps.
		ks.until = now.Add(clampFor)
		return true, ks.until, !wasClamped
	}
	return wasClamped, ks.until, false
}

// overLimitLocked reports whether a per-key rate exceeds clampFactor times
// the current per-client fair share (current global rate over active
// keys), with the absolute minClampRate floor.
func (d *detector) overLimitLocked(keyRatePerSec float64) bool {
	if keyRatePerSec < minClampRate {
		return false
	}
	globalRate := d.current / stormWindow.Seconds()
	fairShare := globalRate / float64(max(len(d.keys), 1))
	return fairShare > 0 && keyRatePerSec > d.clampFactor*fairShare
}

// rollWindowsLocked closes every window boundary between windowStart and
// now, feeding each completed window's count into the CUSUM and the
// baselines. Long idle gaps (no arrivals, so no rolling) reset the CUSUM
// instead of replaying hundreds of empty windows.
func (d *detector) rollWindowsLocked(now time.Time) {
	if d.windowStart.IsZero() {
		d.windowStart = now
		return
	}
	for i := 0; !now.Before(d.windowStart.Add(stormWindow)); i++ {
		if i >= maxReplay {
			// The gap dwarfs the detector's memory: start fresh at now.
			d.windowStart = now
			d.windowCount = 0
			d.cusum = 0
			d.active = false
			return
		}
		x := d.windowCount
		d.windowCount = 0
		d.windowStart = d.windowStart.Add(stormWindow)
		if d.baseline == 0 {
			d.baseline = x
		}
		d.current += 0.5 * (x - d.current)
		d.cusum = math.Max(0, d.cusum+x-d.baseline*(1+cusumSlack))
		if d.cusum == 0 {
			// In control: let the baseline track the level. The moment any
			// excess accumulates the baseline freezes — if it kept adapting
			// it would absorb a surge faster than the CUSUM can accumulate
			// it (the trip point scales with the baseline, so a chasing
			// baseline means the trip chases the CUSUM and never fires).
			d.baseline += baselineAlpha * (x - d.baseline)
			d.active = false
		} else if d.cusum >= math.Max(minExcess, cusumThreshold*d.baseline) {
			d.active = true
		}
	}
}

// evictLocked makes room in the full key table: idle unclamped records
// (decayed weight < 1) go first; if every record is hot or clamped the
// table is genuinely full and arbitrary entries are dropped — their rates
// rebuild within a half-life.
func (d *detector) evictLocked(now time.Time) {
	for k, ks := range d.keys {
		if !now.Before(ks.until) && ks.weight*decay(now.Sub(ks.last)) < 1 {
			delete(d.keys, k)
		}
	}
	for k := range d.keys {
		if len(d.keys) < maxStormKeys {
			break
		}
		delete(d.keys, k)
	}
}

// snapshot reports the number of keys clamped at now and whether a storm
// is active. A storm ends at the idle gap rollWindowsLocked resets on (more
// than maxReplay windows past the open one) whether or not an arrival has
// come to roll the windows.
func (d *detector) snapshot(now time.Time) (clampedKeys int, active bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, ks := range d.keys {
		if now.Before(ks.until) {
			clampedKeys++
		}
	}
	idle := !now.Before(d.windowStart.Add((maxReplay + 1) * stormWindow))
	return clampedKeys, d.active && !idle
}

// decay returns the exponential decay factor 2^(-dt/keyHalfLife).
func decay(dt time.Duration) float64 {
	if dt <= 0 {
		return 1
	}
	return math.Exp2(-dt.Seconds() / keyHalfLife.Seconds())
}
