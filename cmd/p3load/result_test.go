package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"p3/internal/dedup"
)

// healthy is a result every gate passes: a storm run that clamped the
// attacker and spared the victims, two forced recalibrations that both
// flipped and warmed, a verified corpus, a dedup layer that saved bytes.
func healthy() *result {
	r := &result{
		recalsWanted: 2, recalFlips: 2, warmHits: 5,
		verified: 40,
		storm: &stormResult{
			victimSteady: opReport{Count: 300, P99Ms: 40},
			victimStorm:  opReport{Count: 100, P99Ms: 60},
			attacker:     opReport{Count: 900, Errors: 800},
			attackerShed: 800, stormSheds: 800,
		},
		dedup: &dedupResult{stats: dedup.Stats{Uploads: 100, DupHits: 88, BytesSaved: 1 << 20}},
	}
	r.ops[opDownload] = opReport{Count: 1000, P99Ms: 80}
	return r
}

// TestGates feeds every gate the healthy result, which it must pass, and
// one result broken in exactly the way the gate exists to catch.
func TestGates(t *testing.T) {
	all := map[string]gate{}
	for _, list := range [][]gate{servingGates, stormGates, recalGates, dedupGates, {downloadTailGate(100 * time.Millisecond)}} {
		for _, g := range list {
			all[g.name] = g
		}
	}
	breaks := []struct {
		gate   string
		damage func(*result)
	}{
		{"op-errors", func(r *result) { r.opErrors = 1 }},
		{"data-loss", func(r *result) { r.lost = 1 }},
		{"storm-victim-errors", func(r *result) { r.storm.victimStorm.Errors = 1 }},
		{"storm-victim-errors", func(r *result) { r.storm.victimSteady.Errors = 3 }},
		{"storm-clamped", func(r *result) { r.storm.stormSheds = 0 }},
		{"storm-victim-tail", func(r *result) { r.storm.victimStorm.P99Ms = 2*r.storm.victimSteady.P99Ms + 1 }},
		{"recal-flips", func(r *result) { r.recalFlips = 1 }},
		{"recal-warm-hits", func(r *result) { r.warmHits = 0 }},
		{"dedup-identity", func(r *result) { r.mismatches = 1 }},
		{"dedup-saved", func(r *result) { r.dedup.stats.BytesSaved = 0 }},
		{"dedup-refcounts", func(r *result) { r.dedup.stats.NegativeRefs = 1 }},
		{"dedup-refcounts", func(r *result) { r.dedup.scrub.RefErrors = 2 }},
		{"max-download-p99", func(r *result) { r.ops[opDownload].P99Ms = 100.5 }},
	}
	covered := map[string]bool{}
	for _, b := range breaks {
		g, ok := all[b.gate]
		if !ok {
			t.Fatalf("no gate named %q", b.gate)
		}
		covered[b.gate] = true
		if err := g.check(healthy()); err != nil {
			t.Errorf("gate %s fails a healthy result: %v", b.gate, err)
		}
		r := healthy()
		b.damage(r)
		if err := g.check(r); err == nil {
			t.Errorf("gate %s passes the result it exists to catch", b.gate)
		}
		// The one break trips this gate and no other.
		for name, other := range all {
			if name != b.gate && other.check(r) != nil {
				t.Errorf("breaking %s also tripped %s", b.gate, name)
			}
		}
	}
	for name := range all {
		if !covered[name] {
			t.Errorf("gate %s has no failing case", name)
		}
	}
	// The storm tail gate needs traffic on both sides to compare.
	r := healthy()
	r.storm.victimStorm = opReport{}
	if err := all["storm-victim-tail"].check(r); err != nil {
		t.Errorf("storm-victim-tail with no storm-window victims: %v", err)
	}
	if err := checkGates(servingGates, healthy()); err != nil {
		t.Errorf("checkGates on a healthy result: %v", err)
	}
	r = healthy()
	r.lost = 2
	if err := checkGates(servingGates, r); err == nil || !strings.Contains(err.Error(), "data-loss") {
		t.Errorf("checkGates = %v, want a failure naming the data-loss gate", err)
	}
}

// TestScenarioTable checks the rows' own consistency — what validate no
// longer has to re-check on every run.
func TestScenarioTable(t *testing.T) {
	seen := map[string]bool{}
	for _, sc := range scenarios {
		if seen[sc.name] {
			t.Errorf("duplicate row %q", sc.name)
		}
		seen[sc.name] = true
		if err := sc.validate(); err != nil {
			t.Errorf("%s: %v", sc.name, err)
		}
		var total float64
		for _, w := range sc.mix {
			total += w
		}
		if total <= 0 {
			t.Errorf("%s: empty op mix", sc.name)
		}
		if drivers[sc.driver] == nil {
			t.Errorf("%s: unknown driver %q", sc.name, sc.driver)
		}
		if sc.driver != "closed" && sc.rate <= 0 {
			t.Errorf("%s: %s driver needs an arrival rate", sc.name, sc.driver)
		}
		if storm := sc.driver == "storm"; storm != (sc.count(stormOn) == 1 && sc.count(stormOff) == 1) ||
			storm && (sc.clients < 1 || sc.attackerMult <= 1 || sc.maxInflight < 1) {
			t.Errorf("%s: the storm driver and the storm window (with victims, an attacker and admission) go together", sc.name)
		}
		if (sc.mix[opVideoUpload]+sc.mix[opVideoDownload] > 0) != (sc.clips > 0) {
			t.Errorf("%s: video ops and a clip corpus go together", sc.name)
		}
		if sc.count(killShards) != sc.count(reviveShards) || (sc.count(killShards) > 0) != sc.coldSecrets {
			t.Errorf("%s: every kill needs its revive, and an outage needs secret-cache retention off", sc.name)
		}
		if len(sc.gates) == 0 {
			t.Errorf("%s: no gates", sc.name)
		}
		for i := 1; i < len(sc.faults); i++ {
			if sc.faults[i].at < sc.faults[i-1].at {
				t.Errorf("%s: timeline out of order at entry %d", sc.name, i)
			}
		}
	}
}

// TestEveryPresetDocumented: each row of the table is described in
// EXPERIMENTS.md under its own name.
func TestEveryPresetDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scenarios {
		if !strings.Contains(string(doc), "-preset "+sc.name+"`") {
			t.Errorf("EXPERIMENTS.md never shows `... -preset %s`", sc.name)
		}
	}
}

// TestFlagOverrides: the flag surface stays at 14, each override lands on
// its row field, and -shard-kill implies what the shardkill rows hard-code.
func TestFlagOverrides(t *testing.T) {
	sc, err := parseFlags([]string{"-preset", "dup-heavy", "-duration", "3s", "-photos", "24", "-workers", "2",
		"-store-kind", "erasure", "-shard-kill", "-kill-shards", "2", "-scrub-interval", "250ms", "-seed", "9"})
	if err != nil {
		t.Fatal(err)
	}
	if sc.duration != 3*time.Second || sc.photos != 24 || sc.workers != 2 || sc.seed != 9 ||
		!sc.erasure || sc.scrubInterval != 250*time.Millisecond {
		t.Errorf("overrides did not land: %+v", sc)
	}
	if sc.count(killShards) != 1 || sc.count(reviveShards) != 1 || sc.killShards != 2 || !sc.coldSecrets {
		t.Errorf("-shard-kill did not add the outage with retention off: faults %v, kill %d, cold %v",
			sc.faults, sc.killShards, sc.coldSecrets)
	}
	if len(sc.gates) != 0 {
		t.Errorf("dup-heavy without -gate armed %d gates", len(sc.gates))
	}
	if len(shardOutage) != 2 || len(scenarios[0].faults) != 0 {
		t.Error("-shard-kill wrote through to the shared timeline or the table")
	}
	if err := sc.validate(); err != nil {
		t.Error(err)
	}

	armed, err := parseFlags([]string{"-preset", "recalibrate", "-gate", "-max-download-p99", "1500ms"})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(servingGates) + len(recalGates) + 1; len(armed.gates) != want {
		t.Errorf("recalibrate -gate -max-download-p99 armed %d gates, want %d", len(armed.gates), want)
	}
	tail, _ := parseFlags([]string{"-preset", "recalibrate", "-max-download-p99", "1500ms"})
	if len(tail.gates) != 1 || tail.gates[0].name != "max-download-p99" {
		t.Errorf("-max-download-p99 alone armed %v, want only the tail budget", tail.gates)
	}
	if smoke, _ := parseFlags([]string{"-preset", "smoke"}); len(smoke.gates) == 0 {
		t.Error("smoke did not arm itself")
	}

	for _, bad := range [][]string{
		{"-preset", "zipf-hot"},
		{"-store-kind", "raid5"},
		{"-trace-speed", "-1"},
		{"-out", ""},
	} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
	for _, bad := range [][]string{
		{"-preset", "shardkill", "-kill-shards", "3"},
		{"-preset", "smoke", "-photos", "0"},
		{"-preset", "smoke", "-workers", "0"},
	} {
		sc, err := parseFlags(bad)
		if err == nil {
			err = sc.validate()
		}
		if err == nil {
			t.Errorf("%v accepted", bad)
		}
	}

	// The flag surface, counted the way a user sees it: the -h listing.
	stderr := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	_, err = parseFlags([]string{"-h"})
	os.Stderr = stderr
	w.Close()
	usage, _ := io.ReadAll(r)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v", err)
	}
	if n := strings.Count(string(usage), "\n  -"); n < 10 || n > 14 {
		t.Errorf("p3load lists %d flags, want at most 14 (and not a broken count):\n%s", n, usage)
	}
}
