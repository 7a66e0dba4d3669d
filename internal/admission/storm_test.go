package admission

import (
	"sort"
	"strconv"
	"testing"
	"time"
)

// stormPhase describes one client's arrival schedule: evenly spaced
// requests at rps over [start, end) relative to the test epoch.
type stormPhase struct {
	key        string
	rps        float64
	start, end time.Duration
}

// synthesize merges the phases into one time-ordered arrival stream.
func synthesize(phases []stormPhase) []struct {
	t   time.Duration
	key string
} {
	var events []struct {
		t   time.Duration
		key string
	}
	for _, p := range phases {
		if p.rps <= 0 {
			continue
		}
		step := time.Duration(float64(time.Second) / p.rps)
		for t := p.start; t < p.end; t += step {
			events = append(events, struct {
				t   time.Duration
				key string
			}{t, p.key})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].t < events[j].t })
	return events
}

// runStorm feeds the schedule through a detector and reports which keys
// were ever clamped.
func runStorm(t *testing.T, clampFactor float64, phases []stormPhase) map[string]bool {
	t.Helper()
	d := newDetector(clampFactor)
	epoch := time.Unix(1_700_000_000, 0)
	clampedEver := make(map[string]bool)
	for _, ev := range synthesize(phases) {
		if clamped, _, _ := d.arrival(ev.key, epoch.Add(ev.t)); clamped {
			clampedEver[ev.key] = true
		}
	}
	return clampedEver
}

func victims(n int, rps float64, start, end time.Duration) []stormPhase {
	phases := make([]stormPhase, n)
	for i := range phases {
		phases[i] = stormPhase{key: "victim-" + string(rune('a'+i)), rps: rps, start: start, end: end}
	}
	return phases
}

// TestStormDetector is the table of storm shapes the detector must
// separate: a single client ramping far past fair share (clamp), a
// square-wave attacker (clamp), and a flash crowd of distinct clients
// producing the same aggregate surge (must NOT clamp anyone).
func TestStormDetector(t *testing.T) {
	const clampFactor = 4
	tests := []struct {
		name          string
		phases        []stormPhase
		wantClamped   []string
		wantUnclamped []string
	}{
		{
			name: "ramp attacker clamped victims spared",
			phases: append(victims(8, 10, 0, 5*time.Second),
				// Attacker ramps 100 -> 300 -> 500 rps from t=1s.
				stormPhase{key: "attacker", rps: 100, start: 1 * time.Second, end: 1500 * time.Millisecond},
				stormPhase{key: "attacker", rps: 300, start: 1500 * time.Millisecond, end: 2 * time.Second},
				stormPhase{key: "attacker", rps: 500, start: 2 * time.Second, end: 5 * time.Second},
			),
			wantClamped: []string{"attacker"},
			wantUnclamped: []string{
				"victim-a", "victim-b", "victim-c", "victim-d",
				"victim-e", "victim-f", "victim-g", "victim-h",
			},
		},
		{
			name: "square wave attacker clamped",
			phases: append(victims(8, 10, 0, 6*time.Second),
				stormPhase{key: "attacker", rps: 600, start: 1 * time.Second, end: 2500 * time.Millisecond},
				stormPhase{key: "attacker", rps: 600, start: 4 * time.Second, end: 5500 * time.Millisecond},
			),
			wantClamped:   []string{"attacker"},
			wantUnclamped: []string{"victim-a", "victim-h"},
		},
		{
			name: "flash crowd of distinct clients never clamped",
			phases: append(victims(8, 10, 0, 4*time.Second),
				flashCrowd(100, 15, 1*time.Second, 4*time.Second)...),
			wantClamped:   nil,
			wantUnclamped: []string{"victim-a", "flash-000", "flash-050", "flash-099"},
		},
		{
			name:          "steady load never trips",
			phases:        victims(8, 20, 0, 5*time.Second),
			wantClamped:   nil,
			wantUnclamped: []string{"victim-a", "victim-h"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			clamped := runStorm(t, clampFactor, tt.phases)
			for _, k := range tt.wantClamped {
				if !clamped[k] {
					t.Errorf("key %q was never clamped, want clamped", k)
				}
			}
			for _, k := range tt.wantUnclamped {
				if clamped[k] {
					t.Errorf("key %q was clamped, want spared", k)
				}
			}
			if len(tt.wantClamped) == 0 && len(clamped) > 0 {
				t.Errorf("clamped keys %v, want none", clamped)
			}
		})
	}
}

func flashCrowd(n int, rps float64, start, end time.Duration) []stormPhase {
	phases := make([]stormPhase, n)
	for i := range phases {
		phases[i] = stormPhase{
			key: "flash-" + string([]byte{byte('0' + i/100), byte('0' + i/10%10), byte('0' + i%10)}),
			rps: rps, start: start, end: end,
		}
	}
	return phases
}

// TestStormClampExpires: a clamp outlives the storm by clampFor, then the
// key is served again.
func TestStormClampExpires(t *testing.T) {
	d := newDetector(4)
	epoch := time.Unix(1_700_000_000, 0)
	phases := append(victims(8, 10, 0, 3*time.Second),
		stormPhase{key: "attacker", rps: 500, start: 1 * time.Second, end: 3 * time.Second})
	var clampedAt time.Duration = -1
	for _, ev := range synthesize(phases) {
		if clamped, _, _ := d.arrival(ev.key, epoch.Add(ev.t)); clamped && ev.key == "attacker" && clampedAt < 0 {
			clampedAt = ev.t
		}
	}
	if clampedAt < 0 {
		t.Fatal("attacker never clamped")
	}
	// Long after the attack and the clamp window, the key is clean again.
	later := epoch.Add(3 * time.Minute)
	if clamped, _, _ := d.arrival("attacker", later); clamped {
		t.Fatal("clamp survived far past clampFor")
	}
}

// TestStormIdleGapResets: a long idle gap resets the CUSUM instead of
// replaying hundreds of phantom windows.
func TestStormIdleGapResets(t *testing.T) {
	d := newDetector(4)
	epoch := time.Unix(1_700_000_000, 0)
	for _, ev := range synthesize(append(victims(8, 10, 0, 2*time.Second),
		stormPhase{key: "attacker", rps: 500, start: 500 * time.Millisecond, end: 2 * time.Second})) {
		d.arrival(ev.key, epoch.Add(ev.t))
	}
	if _, active := d.snapshot(epoch.Add(2 * time.Second)); !active {
		t.Fatal("storm not active after attack — test premise broken")
	}
	d.arrival("quiet", epoch.Add(10*time.Minute))
	if _, active := d.snapshot(epoch.Add(10 * time.Minute)); active {
		t.Fatal("storm still active after a 10-minute idle gap")
	}
}

// TestStormSnapshotIdleWithoutArrival: the same attack with no later
// arrival; a snapshot ten minutes on reports no storm, though nothing has
// rolled the windows since.
func TestStormSnapshotIdleWithoutArrival(t *testing.T) {
	d := newDetector(4)
	epoch := time.Unix(1_700_000_000, 0)
	for _, ev := range synthesize(append(victims(8, 10, 0, 2*time.Second),
		stormPhase{key: "attacker", rps: 500, start: 500 * time.Millisecond, end: 2 * time.Second})) {
		d.arrival(ev.key, epoch.Add(ev.t))
	}
	if _, active := d.snapshot(epoch.Add(2 * time.Second)); !active {
		t.Fatal("storm not active after attack — test premise broken")
	}
	if _, active := d.snapshot(epoch.Add(10 * time.Minute)); active {
		t.Fatal("snapshot reports a storm ten minutes after the last arrival")
	}
}

// TestKeyTableBounded: distinct keys cannot grow the rate table past
// maxStormKeys.
func TestKeyTableBounded(t *testing.T) {
	d := newDetector(4)
	now := time.Unix(1_700_000_000, 0)
	for i := 0; i < 5000; i++ {
		d.arrival("client-"+strconv.Itoa(i), now.Add(time.Duration(i)*time.Millisecond))
	}
	d.mu.Lock()
	n := len(d.keys)
	d.mu.Unlock()
	if n > maxStormKeys {
		t.Fatalf("key table holds %d keys, maxStormKeys is %d", n, maxStormKeys)
	}
}

// TestStormSnapshotCountsLiveClamps: an attacker that stops and never
// comes back leaves the clamped count once its clamp expires.
func TestStormSnapshotCountsLiveClamps(t *testing.T) {
	d := newDetector(4)
	epoch := time.Unix(1_700_000_000, 0)
	for _, ev := range synthesize(append(victims(8, 10, 0, 3*time.Second),
		stormPhase{key: "attacker", rps: 500, start: 1 * time.Second, end: 3 * time.Second})) {
		d.arrival(ev.key, epoch.Add(ev.t))
	}
	if n, _ := d.snapshot(epoch.Add(3 * time.Second)); n != 1 {
		t.Fatalf("clamped keys = %d during the attack, want 1 (test premise)", n)
	}
	// The victims keep going for a minute; the attacker is silent.
	for _, ev := range synthesize(victims(8, 10, 3*time.Second, 63*time.Second)) {
		d.arrival(ev.key, epoch.Add(ev.t))
	}
	n, active := d.snapshot(epoch.Add(63 * time.Second))
	if active {
		t.Fatal("storm still active a minute after the attack (test premise)")
	}
	if n != 0 {
		t.Fatalf("clamped keys = %d a minute after the attack stopped, want 0", n)
	}
}

// TestStormClampsBounded: keys that are clamped once and never seen again
// cannot grow the detector past maxStormKeys records, clamps included.
func TestStormClampsBounded(t *testing.T) {
	d := newDetector(4)
	epoch := time.Unix(1_700_000_000, 0)
	for _, ev := range synthesize(victims(8, 10, 0, 2*time.Second)) {
		d.arrival(ev.key, epoch.Add(ev.t))
	}
	// 20,000 rotating keys, each one burst of 10 requests 1 ms apart.
	now := epoch.Add(2 * time.Second)
	newClamps := 0
	for i := 0; i < 20000; i++ {
		key := "rotating-" + strconv.Itoa(i)
		for j := 0; j < 10; j++ {
			now = now.Add(time.Millisecond)
			if _, _, isNew := d.arrival(key, now); isNew {
				newClamps++
			}
		}
	}
	if newClamps <= maxStormKeys {
		t.Fatalf("%d keys clamped, test premise needs more than %d", newClamps, maxStormKeys)
	}
	d.mu.Lock()
	n := len(d.keys)
	d.mu.Unlock()
	if n > maxStormKeys {
		t.Fatalf("key table holds %d records, maxStormKeys is %d", n, maxStormKeys)
	}
	if live, _ := d.snapshot(now); live > maxStormKeys {
		t.Fatalf("snapshot reports %d clamped keys, more than the %d-record table", live, maxStormKeys)
	}
}
