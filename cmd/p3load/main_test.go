package main

// Record→replay round-trip (the trace contract): a run recorded with
// -trace-record and replayed with -trace-replay must re-dispatch the
// identical event sequence — same op counts, same per-op ordering, same
// targets — with only the timestamps differing. The whole harness runs
// in-process twice, which is what parseFlags' private FlagSet exists for.

import (
	"path/filepath"
	"testing"

	"p3/internal/trace"
)

// stripT drops the dispatch timestamp, the only field allowed to differ
// between a recording and its replayed re-recording.
func stripT(ev trace.Event) trace.Event {
	ev.TMs = 0
	return ev
}

func TestTraceRecordReplayRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("drives two full load runs")
	}
	dir := t.TempDir()
	first := filepath.Join(dir, "first.trace")
	second := filepath.Join(dir, "second.trace")

	// A short but real smoke run, recorded.
	if err := run([]string{
		"-preset", "smoke", "-duration", "1s", "-workers", "2",
		"-seed", "7", "-trace-record", first,
	}); err != nil {
		t.Fatalf("recording run: %v", err)
	}
	l1, err := trace.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	if len(l1.Events) == 0 {
		t.Fatal("recording run produced no events")
	}
	if l1.Header.Seed != 7 || l1.Header.Scenario != "smoke" {
		t.Fatalf("recorded header %+v, want seed 7 scenario smoke", l1.Header)
	}

	// Replay it unpaced against a fresh stack, re-recording the dispatch.
	if err := run([]string{
		"-preset", "smoke",
		"-trace-replay", first, "-trace-speed", "0", "-trace-record", second,
	}); err != nil {
		t.Fatalf("replaying run: %v", err)
	}
	l2, err := trace.ReadFile(second)
	if err != nil {
		t.Fatal(err)
	}

	// The replayed header must carry the recording's corpus shape forward.
	if l2.Header.Seed != l1.Header.Seed || l2.Header.Photos != l1.Header.Photos {
		t.Errorf("replay header %+v does not match recording %+v", l2.Header, l1.Header)
	}
	if len(l2.Events) != len(l1.Events) {
		t.Fatalf("replay dispatched %d events, recording had %d", len(l2.Events), len(l1.Events))
	}
	counts1, counts2 := map[string]int{}, map[string]int{}
	for i := range l1.Events {
		counts1[l1.Events[i].Op]++
		counts2[l2.Events[i].Op]++
		if stripT(l2.Events[i]) != stripT(l1.Events[i]) {
			t.Fatalf("event %d diverged:\n  recorded %+v\n  replayed %+v",
				i, l1.Events[i], l2.Events[i])
		}
	}
	for op, n := range counts1 {
		if counts2[op] != n {
			t.Errorf("op %s: replayed %d, recorded %d", op, counts2[op], n)
		}
	}
}

// TestDupHeavyGatedRun drives the dup-heavy preset in-process with the
// gates armed. The run itself enforces the differential contract — every
// deduplicated photo downloads byte-identical to its group's first copy,
// storage saved is non-zero, and the post-run scrub finds no refcount
// errors — so a nil error here is the whole assertion.
func TestDupHeavyGatedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a full load run")
	}
	if err := run([]string{
		"-preset", "dup-heavy", "-duration", "2s", "-photos", "16",
		"-seed", "11", "-gate",
	}); err != nil {
		t.Fatalf("gated dup-heavy run failed: %v", err)
	}
}

// TestDupHeavyErasureShardKillRun layers the dedup/similarity stack over
// the erasure-coded secret store and kills 2 of 6 shards mid-run: the
// gates require zero reconstruction mismatches and intact refcounts
// after the scrub, i.e. dedup loses nothing when the store degrades.
func TestDupHeavyErasureShardKillRun(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a full load run with shard kills")
	}
	if err := run([]string{
		"-preset", "dup-heavy", "-duration", "3s", "-photos", "16",
		"-seed", "12", "-store-kind", "erasure", "-shard-kill", "-kill-shards", "2",
		"-scrub-interval", "250ms", "-gate",
	}); err != nil {
		t.Fatalf("gated dup-heavy erasure run failed: %v", err)
	}
}
