package main

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// scenario is one row of the drill table: the shape of the workload, the
// shape of the stack it runs against, the faults injected while it runs,
// and the gates the result must pass. A handful of flags override single
// fields (see parseFlags); everything else about a drill is this row.
type scenario struct {
	name string

	// Workload shape. driver picks the arrival process: "closed" (workers
	// issue back-to-back requests), "open" (Poisson arrivals at rate,
	// bursting 1x/5x when burst is set) or "storm" (clients victims plus
	// one attacker, each a Poisson dispatcher at an equal share of rate; the
	// attacker ramps to attackerMult times its share during the storm window).
	driver       string
	duration     time.Duration
	workers      int
	rate         float64
	burst        bool
	clients      int
	attackerMult float64
	// photos pre-populated photos are picked zipf(zipf)-popular (0 =
	// uniform); mix weighs the op kinds; dynamic is the fraction of
	// downloads asking for a w/h/crop variant instead of a named size.
	photos  int
	zipf    float64
	mix     [numOps]float64
	dynamic float64
	// clips pre-populated clips have frame counts spread over [clipFramesMin,
	// clipFramesMax]; video downloads seek a zipf(frameZipf) frame (earlier
	// frames hotter), except a fullClip fraction joining the whole clip.
	clips                        int
	clipFramesMin, clipFramesMax int
	frameZipf, fullClip          float64
	// dupUnique > 0 builds the upload pool from that many base images, each
	// also as a near-duplicate re-encode; 0 is the plain three-image pool.
	dupUnique int

	// Stack shape, handed to internal/stack: three disk shards under the
	// striped store keeping replicas copies (the 1-of-replicas scheme), or —
	// erasure — six under its 4-of-6 scheme; either scrubs every
	// scrubInterval (0: only the post-run passes).
	erasure       bool
	replicas      int
	scrubInterval time.Duration
	// coldSecrets turns the proxy's secret-cache retention off, so reads
	// reach the store's degraded-read and repair paths instead of being
	// absorbed by the cache. Every row with a shard outage sets it.
	coldSecrets             bool
	maxInflight, queueDepth int // admission; maxInflight 0 = off
	stormClamp              float64
	dedup                   bool

	// faults is the timeline the scheduler injects, in order; a shard outage
	// takes shards 0..killShards-1 down.
	faults     []fault
	killShards int

	// gates are checked against the result when armed (-gate; smoke and
	// storm arm themselves).
	gates []gate
	armed bool

	// Per-run settings, from flags only: the rng seed and the trace files.
	seed                     int64
	traceRecord, traceReplay string
	traceSpeed               float64
}

// fault is one timeline entry: at is a fraction of the run's duration.
type fault struct {
	at float64
	do faultKind
}

type faultKind int

const (
	killShards   faultKind = iota // take shards 0..killShards-1 down
	reviveShards                  // bring them back; repair heals from here
	recalibrate                   // force a full, epoch-flipping recalibration
	stormOn                       // the storm driver's attacker starts ramping
	stormOff                      // and stops
)

func (k faultKind) String() string {
	return [...]string{"kill-shards", "revive-shards", "recalibrate", "storm-on", "storm-off"}[k]
}

// The outage window every windowed fault shares: shards die, or the
// attacker storms, from 40% to 70% of the run. The attacker takes the
// first fifth of its window to ramp up (a surge, not a step — the detector
// must catch an onset, not a discontinuity).
const (
	windowFrom = 0.4
	windowTo   = 0.7
	stormRamp  = 0.2 * (windowTo - windowFrom)
)

var (
	shardOutage = []fault{{windowFrom, killShards}, {windowTo, reviveShards}}
	stormWindow = []fault{{windowFrom, stormOn}, {windowTo, stormOff}}
	// Two forced passes at thirds of the run, so the download stream sees
	// each full sweep, epoch flip, lazy purge and pre-warm under traffic.
	twoRecalibrations = []fault{{1.0 / 3, recalibrate}, {2.0 / 3, recalibrate}}
)

// count reports how many timeline entries are of kind k.
func (sc *scenario) count(k faultKind) int {
	n := 0
	for _, f := range sc.faults {
		if f.do == k {
			n++
		}
	}
	return n
}

// shardCount is fixed by the store kind: 3 replicated, 6 erasure-coded.
func (sc *scenario) shardCount() int {
	if sc.erasure {
		return 6
	}
	return 3
}

// photoMix is the common photo-only base: closed loop, zipf 1.2, the given
// upload:download weights.
func photoMix(upload, download float64) [numOps]float64 {
	return [numOps]float64{opUpload: upload, opDownload: download}
}

// scenarios is the drill table. EXPERIMENTS.md documents every row
// (TestEveryPresetDocumented keeps it that way).
var scenarios = []scenario{
	// The seconds-long CI gate.
	{name: "smoke", driver: "closed", duration: 2 * time.Second, workers: 4,
		photos: 4, zipf: 1.2, mix: photoMix(1, 20), dynamic: 0.3, replicas: 2,
		gates: servingGates, armed: true},
	// The default mix, with an occasional in-band calibrate.
	{name: "mixed", driver: "closed", duration: 10 * time.Second, workers: 8,
		photos: 16, zipf: 1.2, mix: [numOps]float64{opUpload: 1, opDownload: 40, opCalibrate: 0.2},
		dynamic: 0.4, replicas: 2, gates: servingGates},
	// Open-loop bursts: queueing shows in the tail, which a closed loop hides.
	{name: "burst", driver: "open", duration: 15 * time.Second, rate: 60, burst: true,
		photos: 16, zipf: 1.2, mix: photoMix(1, 40), dynamic: 0.4, replicas: 2,
		gates: servingGates},
	// §4.2 end to end: clips through the frame-parallel split, downloaded
	// mostly as zipf-popular single-frame seeks.
	{name: "video", driver: "closed", duration: 10 * time.Second, workers: 8,
		photos: 1, zipf: 1.2, mix: [numOps]float64{opVideoUpload: 1, opVideoDownload: 30},
		clips: 6, clipFramesMin: 4, clipFramesMax: 12, frameZipf: 1.3, fullClip: 0.1,
		replicas: 2, gates: servingGates},
	// Replication under a one-shard outage: replicas absorb the reads, and
	// the writes the dead shard missed park as hints that the post-run
	// scrub delivers (or read-repair restores) once it revives.
	{name: "shardkill", driver: "closed", duration: 12 * time.Second, workers: 8,
		photos: 16, zipf: 1.2, mix: photoMix(1, 20), dynamic: 0.3,
		replicas: 2, coldSecrets: true, faults: shardOutage, killShards: 1,
		gates: servingGates},
	// The replication side of the durability A/B against shardkill-ec: three
	// full copies survive two shard deaths too, at twice the bytes.
	{name: "shardkill-3x3", driver: "closed", duration: 12 * time.Second, workers: 8,
		photos: 16, zipf: 1.2, mix: photoMix(1, 20), dynamic: 0.3,
		replicas: 3, coldSecrets: true, faults: shardOutage, killShards: 1,
		gates: servingGates},
	// The erasure acceptance drill: 4-of-6 loses TWO shards mid-run and must
	// serve every byte regardless, while the 500 ms scrubber rebuilds the
	// dead shards' shares the moment they revive.
	{name: "shardkill-ec", driver: "closed", duration: 12 * time.Second, workers: 8,
		photos: 16, zipf: 1.2, mix: photoMix(1, 20), dynamic: 0.3,
		erasure: true, scrubInterval: 500 * time.Millisecond, coldSecrets: true,
		faults: shardOutage, killShards: 2, gates: servingGates},
	// The calibration-lifecycle drill: downloads keep serving through two
	// forced epoch flips. Four workers, not eight: the sweep shares CPU with
	// the workload and must land both flips while traffic still flows even
	// on small machines.
	{name: "recalibrate", driver: "closed", duration: 16 * time.Second, workers: 4,
		photos: 16, zipf: 1.2, mix: photoMix(1, 40), dynamic: 0.3, replicas: 2,
		faults: twoRecalibrations, gates: slices.Concat(servingGates, recalGates)},
	// The admission acceptance drill: eight victims and one attacker share
	// 90 req/s fairly until the attacker ramps to 50x its share. Nobody
	// pre-declared the attacker, so the storm detector alone must clamp
	// it.
	{name: "storm", driver: "storm", duration: 12 * time.Second, rate: 90,
		clients: 8, attackerMult: 50,
		photos: 12, zipf: 1.2, mix: photoMix(0, 1), dynamic: 0.15, replicas: 2,
		maxInflight: 8, queueDepth: 256, stormClamp: 4,
		faults: stormWindow, gates: stormGates, armed: true},
	// The duplicate-heavy drill: 6 base images, each also as a near-dup
	// re-encode, uploaded many times over through the dedup layer, with
	// similarity queries in the mix.
	{name: "dup-heavy", driver: "closed", duration: 10 * time.Second, workers: 8,
		photos: 48, zipf: 1.2, mix: [numOps]float64{opUpload: 4, opDownload: 20, opSimilar: 3},
		dynamic: 0.3, replicas: 2, dedup: true, dupUnique: 6,
		gates: slices.Concat(servingGates, dedupGates)},
}

// lookupScenario returns a copy of the named row.
func lookupScenario(name string) (scenario, error) {
	var names []string
	for _, sc := range scenarios {
		if sc.name == name {
			return sc, nil
		}
		names = append(names, sc.name)
	}
	return scenario{}, fmt.Errorf("unknown -preset %q (have: %s)", name, strings.Join(names, ", "))
}

// validate rejects what a flag or a replayed trace's header can break; the
// rows' own consistency is TestScenarioTable's job.
func (sc *scenario) validate() error {
	switch {
	case sc.duration <= 0:
		return fmt.Errorf("bad -duration %v", sc.duration)
	case sc.photos < 1:
		return fmt.Errorf("bad -photos %d (need at least 1 pre-populated photo)", sc.photos)
	case sc.driver == "closed" && sc.workers < 1:
		return fmt.Errorf("bad -workers %d", sc.workers)
	case sc.clips > 0 && sc.clipFramesMax < 1:
		return fmt.Errorf("preset %s has no clip frame spread (replay a video trace with -preset video)", sc.name)
	case sc.count(killShards) > 0 && sc.killShards < 1, sc.killShards >= sc.shardCount():
		return fmt.Errorf("bad -kill-shards %d (an outage takes down at least one and leaves at least one of %d shards up)",
			sc.killShards, sc.shardCount())
	}
	return nil
}
