package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestOpListsDependOnTheSeedAlone(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for client := 0; client < numClients; client++ {
			a, b := genOps(w, 7, client), genOps(w, 7, client)
			if len(a) != w.listLen || !reflect.DeepEqual(a, b) {
				t.Errorf("%s client %d: same seed gave different lists", w.name, client)
			}
			if reflect.DeepEqual(a, genOps(w, 8, client)) {
				t.Errorf("%s client %d: another seed gave the same list", w.name, client)
			}
		}
		if reflect.DeepEqual(genOps(w, 7, 0), genOps(w, 7, 1)) {
			t.Errorf("%s: both clients got the same list", w.name)
		}
	}
}

// A client may delete only what it has uploaded, at every prefix and across
// the wrap-around when a window outlasts the list.
func TestOpListsNeverDeleteWhatIsNotThere(t *testing.T) {
	w := workloadByName("household_mix")
	ops, own := genOps(w, 3, 0), 0
	for pass := 0; pass < 2; pass++ {
		for i, o := range ops {
			switch o.kind {
			case opUpload:
				own++
			case opDelete:
				if own--; own < 0 {
					t.Fatalf("pass %d op %d deletes with nothing uploaded", pass, i)
				}
			}
		}
	}
}

func TestColdViewCyclesCoverEveryKeyOnce(t *testing.T) {
	w := workloadByName("cold_views")
	keys := 24 * numVariants
	ops := genOps(w, 5, 1)
	for cycle := 0; cycle+keys <= len(ops); cycle += keys {
		seen := map[[2]int]bool{}
		for _, o := range ops[cycle : cycle+keys] {
			seen[[2]int{int(o.photo), int(o.variant)}] = true
		}
		if len(seen) != keys {
			t.Fatalf("cycle at %d covers %d of %d keys", cycle, len(seen), keys)
		}
	}
}

func TestSpreadAndPreloadOrderIgnoreTheSeed(t *testing.T) {
	got := spread([numClasses]int{4, 2, 1})
	want := []int{classS, classM, classS, classL, classS, classM, classS}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
	w := workloadByName("cold_views")
	src := preloadSources(w)
	if len(src) != 24 {
		t.Fatalf("%d preloaded photos", len(src))
	}
	uses := map[int]int{}
	for _, s := range src {
		uses[s]++
	}
	for s := 0; s < 12; s++ {
		if uses[s] != 2 {
			t.Errorf("source %d preloaded %d times, want 2", s, uses[s])
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int64
		want float64
	}{{0, 50}, {19, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestLatencies(t *testing.T) {
	var l latencies
	for i := 1; i <= 100; i++ {
		l.add(int64(i) * 1000) // 1..100 µs: counted per nanosecond
	}
	l.add(5_000_000) // 5 ms and 7 ms: kept verbatim
	l.add(7_000_000)
	if l.n != 102 || l.mean() != float64(5050*1000+12_000_000)/102 {
		t.Fatalf("n=%d mean=%g", l.n, l.mean())
	}
	if p := l.percentile(50); p < 52000 || p >= 52001 { // rank 51 of 0..101
		t.Errorf("p50 = %g, want the 52 µs bucket", p)
	}
	if p := l.percentile(99); p != 5_000_000 { // rank 100
		t.Errorf("p99 = %g", p)
	}
	if p := l.percentile(100); p != 7_000_000 {
		t.Errorf("p100 = %g", p)
	}
	var m latencies
	m.merge(&l)
	m.merge(&l)
	if p := m.percentile(50); m.n != 204 || p < 52000 || p >= 52001 {
		t.Errorf("merged: n=%d p50=%g", m.n, p)
	}
	// Two samples in one bucket sit at different places inside it.
	if a, b := m.percentile(0), m.percentile(0.5); a >= b || b >= 1001 {
		t.Errorf("ranks 0 and 1 of a shared bucket read %g and %g", a, b)
	}
	if p := new(latencies).percentile(50); p != 0 {
		t.Errorf("empty p50 = %g", p)
	}
}

func TestBenchmarkJSONIsTheManifest(t *testing.T) {
	b, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, generated any
	if err := json.Unmarshal(b, &onDisk); err != nil {
		t.Fatal(err)
	}
	g, _ := json.Marshal(manifest())
	_ = json.Unmarshal(g, &generated)
	if !reflect.DeepEqual(onDisk, generated) {
		t.Error("BENCHMARK.json differs from `p3bench manifest`; regenerate it")
	}
	seen := map[string]bool{}
	for _, s := range append(append([]spec{}, endToEnd...), perLayer...) {
		if seen[s.Name] {
			t.Errorf("metric %s declared twice", s.Name)
		}
		seen[s.Name] = true
	}
}

// shrunk is the row with a corpus small enough for a smoke run: the same
// stack and op mix over two S sources and one M.
func shrunk(w workload) workload {
	for c, most := range [numClasses]int{2, 1, 0} {
		w.sources[c], w.preload[c] = min(w.sources[c], most), min(w.preload[c], most)
		w.uploadBy[c] = min(w.uploadBy[c], w.sources[c])
	}
	w.clips = min(w.clips, 1)
	w.warm = min(w.warm, 1)
	w.listLen = 256
	return w
}

// Every row, traced, over a tiny corpus and a 0.2 s window: no request may
// fail, no gate but the cache-ratio one (tuned for the full corpus) may
// trip, and every declared metric must be reported — the layer probes, which
// do not depend on the row, by the first run only.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the real stack")
	}
	start := time.Now()
	reported := map[string]string{}
	for i := range workloads {
		w := shrunk(workloads[i])
		cfg := runConfig{seed: 11, seconds: 0.2, traced: true, outDir: t.TempDir()}
		if i == 0 {
			cfg.probes = 1
		}
		res, err := runWorkload(&w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d", w.name, res.Attempted, res.Failed)
		}
		for _, v := range res.Violations {
			if !strings.Contains(v, "hit ratio") {
				t.Errorf("%s: %s", w.name, v)
			}
		}
		for _, s := range endToEnd {
			if m, ok := res.Metrics[s.Name]; !ok || m.Value == 0 {
				t.Errorf("%s: end-to-end metric %s missing or zero", w.name, s.Name)
			}
		}
		for _, name := range []string{"proxy.upload_self_ms", "store.put_ms", "trace.overhead_ratio", "psp.replay_miss_ratio"} {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("%s: traced metric %s missing", w.name, name)
			}
		}
		if res.Metrics["psp.replay_miss_ratio"].Value != 0 {
			t.Errorf("%s: replay misses inside the window", w.name)
		}
		for name, m := range res.Metrics {
			reported[name] = m.Unit
		}
	}
	for _, s := range append(append([]spec{}, endToEnd...), perLayer...) {
		if unit, ok := reported[s.Name]; !ok || unit != s.Unit {
			t.Errorf("metric %s missing or in unit %q, want %q", s.Name, unit, s.Unit)
		}
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Errorf("smoke took %v, want under 20 s", d)
	}
}
