package proxy

// End-to-end observability tests: the /metrics exposition parses, covers
// every instrumented layer (proxy ops, caches, codec, shards), and its
// cumulative counters only ever increase; /stats agrees with it.

import (
	"fmt"
	"io"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"p3"
	"p3/internal/psp"
)

// expositionLine matches one Prometheus text-format sample:
// name{labels} value.
var expositionLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\+Inf|-?[0-9.e+-]+)$`)

// parseExposition parses Prometheus text exposition into series → value,
// failing the test on any malformed line.
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := expositionLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable exposition line: %q", line)
		}
		if m[3] == "+Inf" {
			continue
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[m[1]+m[2]] = v
	}
	return out
}

// scrape GETs /metrics through the proxy's HTTP surface and parses it.
func scrape(t *testing.T, p *Proxy) map[string]float64 {
	t.Helper()
	srv := httptest.NewServer(p)
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseExposition(t, string(body))
}

// TestMetricsEndToEnd drives a proxy over a 3-shard store and checks the
// full exposition pipeline.
func TestMetricsEndToEnd(t *testing.T) {
	key, err := p3.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	codec, err := p3.New(key)
	if err != nil {
		t.Fatal(err)
	}
	shards := []p3.SecretStore{
		p3.NewMemorySecretStore(), p3.NewMemorySecretStore(), p3.NewMemorySecretStore(),
	}
	store, err := p3.NewShardedSecretStore(shards, p3.WithShardReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	photos := &countingPhotos{s: psp.NewServer(psp.FlickrLike())}
	// The default registry (so the process-wide codec histograms appear in
	// the scrape) with a unique instance name (so this test's cache views
	// don't collide with other tests').
	p := New(codec, photos, store, WithMetricsName("metrics-e2e"))
	publishTruePipeline(p, photos.s.Pipeline)

	jpegBytes, _ := photoJPEG(t, 77, 320, 240)
	id, err := p.Upload(ctx, jpegBytes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // one miss, two hits on the variant cache
		if _, err := p.Download(ctx, id, url.Values{"size": {"small"}}); err != nil {
			t.Fatal(err)
		}
	}
	first := scrape(t, p)

	// Every instrumented layer must be represented.
	wantSeries := []string{
		`p3_proxy_requests_total{proxy="metrics-e2e",op="download"}`,
		`p3_proxy_requests_total{proxy="metrics-e2e",op="upload"}`,
		`p3_proxy_requests_total{proxy="metrics-e2e",op="calibrate"}`,
		`p3_proxy_latency_seconds_count{proxy="metrics-e2e",op="download"}`,
		`p3_cache_hits_total{proxy="metrics-e2e",cache="variants"}`,
		`p3_cache_misses_total{proxy="metrics-e2e",cache="secrets"}`,
		`p3_cache_bytes{proxy="metrics-e2e",cache="variants"}`,
		`p3_codec_split_seconds_count`,
		`p3_codec_join_processed_seconds_count`,
		`p3_shard_reads_total{shard="0"}`,
		`p3_shard_puts_total{shard="2"}`,
	}
	for _, s := range wantSeries {
		if _, ok := first[s]; !ok {
			t.Errorf("exposition missing series %s", s)
		}
	}
	if got := first[`p3_proxy_requests_total{proxy="metrics-e2e",op="download"}`]; got != 3 {
		t.Errorf("download requests = %v, want 3", got)
	}
	if got := first[`p3_cache_hits_total{proxy="metrics-e2e",cache="variants"}`]; got != 2 {
		t.Errorf("variant cache hits = %v, want 2", got)
	}
	// Replication: 2 replicas of the photo's secret part.
	var puts float64
	for i := 0; i < 3; i++ {
		puts += first[fmt.Sprintf(`p3_shard_puts_total{shard="%d"}`, i)]
	}
	if puts < 2 {
		t.Errorf("total shard puts = %v, want >= 2", puts)
	}

	// /stats must agree with the exposition on the op counters.
	st := p.Stats()
	if float64(st.Download.Count) != first[`p3_proxy_requests_total{proxy="metrics-e2e",op="download"}`] {
		t.Errorf("/stats download count %d disagrees with /metrics", st.Download.Count)
	}
	if st.Download.P50Ms <= 0 {
		t.Errorf("download p50 = %v ms, want > 0", st.Download.P50Ms)
	}

	// More traffic, then re-scrape: every *_total and *_count series must
	// be monotone non-decreasing.
	for i := 0; i < 2; i++ {
		if _, err := p.Download(ctx, id, url.Values{"size": {"thumb"}}); err != nil {
			t.Fatal(err)
		}
	}
	second := scrape(t, p)
	for series, v1 := range first {
		if !strings.Contains(series, "_total") && !strings.Contains(series, "_count") &&
			!strings.Contains(series, "_bucket") && !strings.Contains(series, "_sum") {
			continue
		}
		v2, ok := second[series]
		if !ok {
			t.Errorf("series %s disappeared between scrapes", series)
			continue
		}
		if v2 < v1 {
			t.Errorf("series %s went backwards: %v -> %v", series, v1, v2)
		}
	}
	if d1, d2 := first[`p3_proxy_requests_total{proxy="metrics-e2e",op="download"}`],
		second[`p3_proxy_requests_total{proxy="metrics-e2e",op="download"}`]; d2 != d1+2 {
		t.Errorf("download requests %v -> %v, want +2", d1, d2)
	}
}

// TestMetricsErrorsCounted checks the error counter moves on a failing
// download and the request counter moves with it.
func TestMetricsErrorsCounted(t *testing.T) {
	bed := newServingBed(t, WithMetricsName("metrics-errors"))
	before := bed.proxy.Stats().Download
	if _, err := bed.proxy.Download(ctx, "no-such-photo", url.Values{}); err == nil {
		t.Fatal("download of absent photo succeeded")
	}
	after := bed.proxy.Stats().Download
	if after.Count != before.Count+1 {
		t.Errorf("download count %d -> %d, want +1", before.Count, after.Count)
	}
	if after.Errors != before.Errors+1 {
		t.Errorf("download errors %d -> %d, want +1", before.Errors, after.Errors)
	}
}

// TestMetricsErasureStore checks that a proxy over an erasure-coded store
// registers the p3_shard_* per-shard series and the p3_repair_*
// self-healing series, and that share traffic actually moves them.
func TestMetricsErasureStore(t *testing.T) {
	key, err := p3.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	codec, err := p3.New(key)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]p3.SecretStore, 6)
	for i := range shards {
		shards[i] = p3.NewMemorySecretStore()
	}
	store, err := p3.NewErasureSecretStore(shards)
	if err != nil {
		t.Fatal(err)
	}
	photos := &countingPhotos{s: psp.NewServer(psp.FlickrLike())}
	p := New(codec, photos, store, WithMetricsName("metrics-erasure"))
	publishTruePipeline(p, photos.s.Pipeline)
	jpegBytes, _ := photoJPEG(t, 99, 320, 240)
	id, err := p.Upload(ctx, jpegBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Download(ctx, id, url.Values{"size": {"small"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := store.ScrubOnce(ctx); err != nil {
		t.Fatal(err)
	}

	series := scrape(t, p)
	wantSeries := []string{
		`p3_shard_reads_total{shard="0"}`,
		`p3_shard_puts_total{shard="5"}`,
		`p3_shard_repairs_total{shard="3"}`,
		`p3_repair_scrub_cycles_total`,
		`p3_repair_objects_scanned_total`,
		`p3_repair_lost_objects_total`,
		`p3_repair_degraded_reads_total`,
		`p3_repair_hints_parked_total`,
	}
	for _, s := range wantSeries {
		if _, ok := series[s]; !ok {
			t.Errorf("exposition missing series %s", s)
		}
	}
	var puts float64
	for i := 0; i < 6; i++ {
		puts += series[fmt.Sprintf(`p3_shard_puts_total{shard="%d"}`, i)]
	}
	// The uploaded photo's secret part stripes into 6 shares.
	if puts < 6 {
		t.Errorf("total share puts = %v, want >= 6", puts)
	}
	if got := series[`p3_repair_scrub_cycles_total`]; got != 1 {
		t.Errorf("scrub cycles = %v, want 1", got)
	}
	if got := series[`p3_repair_lost_objects_total`]; got != 0 {
		t.Errorf("lost objects = %v, want 0", got)
	}
}
