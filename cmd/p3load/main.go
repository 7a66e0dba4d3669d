// Command p3load is the fault-drill harness: it boots a real serving stack
// in-process, drives workload-shaped traffic at it, injects faults on a
// schedule, and passes or fails the run on gates. It is not the benchmark —
// bench/ (BENCHMARK.json) measures latency and throughput against a
// recorded PSP; p3load's latencies include its in-process PSP simulator and
// are printed for orientation only. What p3load alone does is seeded fault
// timelines, gates, and JSONL trace record/replay.
//
// The stack under test is the one operators run: internal/stack builds it
// from the same Config (and the same -store spec grammar) as cmd/p3proxy —
// a Facebook-like PSP over HTTP, disk shards under a ShardedSecretStore or
// an ErasureSecretStore, each behind a kill switch (Config.WrapShard), and
// the proxy with admission, dedup and similarity where the drill needs them.
//
// A drill is one row of the table in scenario.go — workload shape, stack
// shape, fault timeline, gates (EXPERIMENTS.md describes each):
//
//	go run ./cmd/p3load -preset smoke          # seconds-long CI gate
//	go run ./cmd/p3load -preset mixed          # the default mix
//	go run ./cmd/p3load -preset burst          # open-loop arrival bursts
//	go run ./cmd/p3load -preset video          # MJPEG clips + frame seeks
//	go run ./cmd/p3load -preset shardkill      # kill+revive a shard mid-run
//	go run ./cmd/p3load -preset shardkill-3x3  # same, three full replicas
//	go run ./cmd/p3load -preset shardkill-ec   # erasure store, kill TWO shards
//	go run ./cmd/p3load -preset recalibrate    # forced epoch flips mid-run
//	go run ./cmd/p3load -preset storm          # one client ramps to 50x fair share
//	go run ./cmd/p3load -preset dup-heavy      # duplicate-skewed corpus through dedup
//
// One scheduler goroutine injects the row's timeline; after the run the
// harness verifies what the drill is about (erasure: scrub to convergence,
// then every photo re-downloaded through cold caches; dedup: byte-identity
// within every content group and intact refcounts). -gate arms the row's
// gates (smoke and storm arm themselves); any failing gate fails the run.
//
// A few flags override single fields of a row: -duration, -photos and
// -workers scale it; -store-kind erasure swaps in the 4-of-6 erasure-coded
// store (-scrub-interval sets its repair daemon); -shard-kill adds the shard
// outage to any row, taking down -kill-shards shards with the proxy's
// secret-cache retention off so reads reach the degraded store;
// -max-download-p99 adds a download-tail budget; -seed seeds every draw.
// The dedup-under-partial-outage drill, for one, is
//
//	go run ./cmd/p3load -preset dup-heavy -store-kind erasure -shard-kill -kill-shards 2 -gate
//
// -trace-record FILE logs every dispatched op with its offset, client key
// and target (internal/trace, JSONL). -trace-replay FILE replays a trace
// open-loop against a fresh stack — at recorded speed, time-scaled
// (-trace-speed 2) or unpaced (-trace-speed 0) — rebuilding the corpus from
// the trace header so recorded indices address equivalent photos (replay a
// video trace with -preset video, which sets the clip pool's frame spread).
// Record and replay compose: a replayed run re-records the same sequence.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"p3/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "p3load: %v\n", err)
		os.Exit(1)
	}
}

// parseFlags resolves the preset row and applies the explicit overrides.
// Flags live on a private FlagSet (not flag.CommandLine) so tests can
// invoke whole runs in-process, more than once.
func parseFlags(args []string) (scenario, error) {
	fs := flag.NewFlagSet("p3load", flag.ContinueOnError)
	preset := fs.String("preset", "mixed", "scenario row to run (see the package comment)")
	duration := fs.Duration("duration", 0, "measured run length")
	workers := fs.Int("workers", 0, "closed-loop workers")
	photos := fs.Int("photos", 0, "pre-populated corpus size")
	storeKind := fs.String("store-kind", "", "secret store layout: sharded (replication) or erasure (4-of-6)")
	scrubInterval := fs.Duration("scrub-interval", 0, "erasure store scrub daemon period (0 disables)")
	shardKill := fs.Bool("shard-kill", false, "kill shard(s) at 40% of the run, revive at 70%, secret-cache retention off")
	killN := fs.Int("kill-shards", 0, "shards the outage takes down at once")
	gate := fs.Bool("gate", false, "fail the run on any of the preset's gates")
	seed := fs.Int64("seed", 1, "workload rng seed")
	maxDownP99 := fs.Duration("max-download-p99", 0, "fail the run if download p99 exceeds this (0 disables)")
	traceRecord := fs.String("trace-record", "", "record every dispatched op to this trace file (JSONL)")
	traceReplay := fs.String("trace-replay", "", "replay arrivals from this trace file instead of generating them")
	traceSpeed := fs.Float64("trace-speed", 1, "replay clock scale: 1 recorded speed, 2 twice as fast, 0 unpaced")
	if err := fs.Parse(args); err != nil {
		return scenario{}, err
	}
	sc, err := lookupScenario(*preset)
	if err != nil {
		return sc, err
	}
	sc.seed, sc.traceRecord, sc.traceReplay, sc.traceSpeed = *seed, *traceRecord, *traceReplay, *traceSpeed
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "duration":
			sc.duration = *duration
		case "workers":
			sc.workers = *workers
		case "photos":
			sc.photos = *photos
		case "store-kind":
			if sc.erasure = *storeKind == "erasure"; !sc.erasure && *storeKind != "sharded" {
				err = fmt.Errorf("bad -store-kind %q (want sharded or erasure)", *storeKind)
			}
		case "scrub-interval":
			sc.scrubInterval = *scrubInterval
		case "shard-kill":
			if *shardKill && sc.count(killShards) == 0 {
				sc.faults = slices.Concat(sc.faults, shardOutage)
				sc.killShards = max(sc.killShards, 1)
			}
			sc.coldSecrets = sc.coldSecrets || *shardKill
		case "kill-shards":
			sc.killShards = *killN
		case "gate":
			sc.armed = *gate
		}
	})
	if !sc.armed {
		sc.gates = nil
	}
	if *maxDownP99 > 0 {
		// The tail budget is armed by its flag alone, with or without -gate.
		sc.gates = append(slices.Clip(sc.gates), downloadTailGate(*maxDownP99))
	}
	if err == nil && sc.traceSpeed < 0 {
		err = fmt.Errorf("bad -trace-speed %g", sc.traceSpeed)
	}
	return sc, err
}

// run executes one drill.
func run(args []string) error {
	sc, err := parseFlags(args)
	if err != nil {
		return err
	}
	// A replayed trace dictates corpus shape and seed: recorded events
	// address the corpus positionally, so the replay run must rebuild an
	// equivalent one.
	var replay *trace.Log
	if sc.traceReplay != "" {
		if replay, err = trace.ReadFile(sc.traceReplay); err != nil {
			return err
		}
		hdr := replay.Header
		if hdr.Photos > 0 {
			sc.photos = hdr.Photos
		}
		if hdr.Videos > 0 {
			sc.clips = hdr.Videos
		}
		if hdr.Seed != 0 {
			sc.seed = hdr.Seed
		}
		fmt.Printf("p3load: replaying %d events from %s at %gx\n", len(replay.Events), sc.traceReplay, sc.traceSpeed)
	}
	if err := sc.validate(); err != nil {
		return err
	}
	fmt.Printf("p3load: preset %s (%s driver, %v, %d workers, %d photos, zipf %g, seed %d)\n",
		sc.name, sc.driver, sc.duration, sc.workers, sc.photos, sc.zipf, sc.seed)

	h, err := newHarness(sc)
	if err != nil {
		return err
	}
	defer h.close()
	if err := h.populate(); err != nil {
		return err
	}
	if err := h.drive(replay); err != nil {
		return err
	}
	res, err := h.verify()
	if err != nil {
		return err
	}
	h.report(res)
	return checkGates(sc.gates, res)
}
