package stack

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"p3"
	"p3/internal/metrics"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.golden from the current code")

// goldenConfig is the stack the exposition golden describes: an erasure
// k=4,n=6 store over six disk shards with no scrub daemon, and every
// optional layer that registers series (dedup, similarity, admission), all
// in a private registry.
func goldenConfig(t *testing.T) Config {
	key, err := p3.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	disks := make([]string, 6)
	for i := range disks {
		disks[i] = "disk:" + filepath.Join(dir, string(rune('a'+i)))
	}
	cfg := DefaultConfig()
	cfg.Key = key
	cfg.PSP = "http://127.0.0.1:1" // never contacted: the test sends no traffic
	cfg.Registry = metrics.NewRegistry()
	cfg.Store = "erasure:k=4,n=6," + strings.Join(disks, ",")
	cfg.ScrubInterval = 0
	cfg.Dedup = true
	cfg.Similarity = true
	cfg.MaxInflight = 4
	return cfg
}

// scrapeStack GETs the stack's /metrics.
func scrapeStack(t *testing.T, st *Stack) string {
	t.Helper()
	rec := httptest.NewRecorder()
	st.Proxy.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	return rec.Body.String()
}

// TestFreshStackMetricsGolden pins a fresh stack's whole exposition — every
// family's name, HELP, TYPE, label set and series order — byte for byte.
// Run with -update to rewrite the golden after a deliberate change.
func TestFreshStackMetricsGolden(t *testing.T) {
	st, err := Build(goldenConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got := scrapeStack(t, st)
	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("exposition differs from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
			}
		}
	}
}

// series parses an exposition into series → value.
func series(t *testing.T, exposition string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil {
			t.Fatalf("unparseable exposition line %q", line)
		}
		out[line[:i]] = v
	}
	return out
}

// families returns the names of the families an exposition declares.
func families(exposition string) []string {
	var out []string
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			out = append(out, strings.Fields(rest)[0])
		}
	}
	return out
}

// TestMetricsErasureStore checks that a stack over a striped store exports
// the p3_shard_* per-shard series and the p3_repair_* self-healing series,
// for the erasure-coded and the replicated scheme alike, and that share
// traffic and a scrub pass move them.
func TestMetricsErasureStore(t *testing.T) {
	for _, tc := range []struct {
		name      string
		scheme    string
		shards    int
		replicas  int
		minPuts   float64 // shares one secret writes
		wantShard []string
	}{
		{"4-of-6", "erasure:k=4,n=6,", 6, 1, 6, []string{
			`p3_shard_reads_total{shard="0"}`, `p3_shard_puts_total{shard="5"}`, `p3_shard_repairs_total{shard="3"}`}},
		{"1-of-2", "", 3, 2, 2, []string{
			`p3_shard_reads_total{shard="0"}`, `p3_shard_puts_total{shard="2"}`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := goldenConfig(t)
			dir := t.TempDir()
			disks := make([]string, tc.shards)
			for i := range disks {
				disks[i] = "disk:" + filepath.Join(dir, strconv.Itoa(i))
			}
			cfg.Store, cfg.Replicas = tc.scheme+strings.Join(disks, ","), tc.replicas
			st, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			es := st.Store.(*p3.ErasureSecretStore)
			ctx := context.Background()
			if err := es.PutSecret(ctx, "photo-1", bytes.Repeat([]byte("sealed"), 100)); err != nil {
				t.Fatal(err)
			}
			if _, err := es.GetSecret(ctx, "photo-1"); err != nil {
				t.Fatal(err)
			}
			if _, err := es.ScrubOnce(ctx); err != nil {
				t.Fatal(err)
			}

			got := series(t, scrapeStack(t, st))
			for _, s := range append(tc.wantShard,
				`p3_repair_scrub_cycles_total`, `p3_repair_objects_scanned_total`,
				`p3_repair_lost_objects_total`, `p3_repair_degraded_reads_total`,
				`p3_repair_hints_parked_total`) {
				if _, ok := got[s]; !ok {
					t.Errorf("exposition missing series %s", s)
				}
			}
			var puts, reads float64
			for i := range tc.shards {
				puts += got[fmt.Sprintf(`p3_shard_puts_total{shard="%d"}`, i)]
				reads += got[fmt.Sprintf(`p3_shard_reads_total{shard="%d"}`, i)]
			}
			if puts < tc.minPuts {
				t.Errorf("total share puts = %v, want >= %v", puts, tc.minPuts)
			}
			if reads == 0 {
				t.Error("a read moved no p3_shard_reads_total series")
			}
			if got := got[`p3_repair_scrub_cycles_total`]; got != 1 {
				t.Errorf("scrub cycles = %v, want 1", got)
			}
			if got := got[`p3_repair_lost_objects_total`]; got != 0 {
				t.Errorf("lost objects = %v, want 0", got)
			}
		})
	}
}

// TestNamingSchemeDocumented holds ARCHITECTURE.md § "The naming scheme" to
// the code: every family a fresh stack exports (the golden) and every
// process-wide codec histogram has a row, and every row names a real
// family.
func TestNamingSchemeDocumented(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "metrics.golden"))
	if err != nil {
		t.Fatal(err)
	}
	real := map[string]bool{}
	for _, f := range families(string(golden)) {
		real[f] = true
	}
	var def strings.Builder
	if err := metrics.Default.WritePrometheus(&def); err != nil {
		t.Fatal(err)
	}
	codec := 0
	for _, f := range families(def.String()) {
		if strings.HasPrefix(f, "p3_codec_") {
			real[f] = true
			codec++
		}
	}
	if codec != 6 {
		t.Errorf("metrics.Default holds %d p3_codec_* families, want 6", codec)
	}

	doc, err := os.ReadFile(filepath.Join("..", "..", "ARCHITECTURE.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(doc), "### The naming scheme\n")
	section, _, _ = strings.Cut(section, "\n## ")
	documented := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if rest, ok := strings.CutPrefix(line, "| `"); ok {
			name, _, _ := strings.Cut(rest, "`")
			documented[name] = true
		}
	}
	for f := range real {
		if !documented[f] {
			t.Errorf("family %s has no row in ARCHITECTURE.md § The naming scheme", f)
		}
	}
	for f := range documented {
		if !real[f] {
			t.Errorf("ARCHITECTURE.md § The naming scheme documents %s, which no stack exports", f)
		}
	}
}
