// Command p3bench is the repository's benchmark: four serving workloads
// driven in-process through Proxy.ServeHTTP against a recorded PSP, the
// end-to-end metrics a user of the proxy would see, and an outside-in trace
// that says which layer a change to them came from. See ../../README.md.
//
//	p3bench -workload W -seed N -seconds S -trace 0|1   one run; last stdout line is the result JSON
//	p3bench suite -seed N -out FILE                      all four workloads, untraced then traced, into one file
//	p3bench probes                                       the layer probes alone, at five times the iterations
//	p3bench agree A.json B.json                          do two suite files agree within the bounds
//	p3bench manifest                                     print BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"strings"
)

const defaultSeconds = 12 // BENCHMARK.json's run_seconds

// spec declares one metric: its unit, which way is better, and for an
// end-to-end metric how far it may worsen before it counts as a regression.
type spec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the proxy sees; measured with tracing off.
var endToEnd = []spec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"upload_mean_ms", "ms", "lower", 0.25},
	{"download_p50_ms", "ms", "lower", 0.25},
	{"download_p95_ms", "ms", "lower", 0.25},
	{"download_mean_ms", "ms", "lower", 0.25},
	{"storage_overhead_ratio", "ratio", "lower", 0.10},
	{"recon_psnr_db", "dB", "higher", 0.01},
}

// perLayer is what the traced run and the layer probes report, layer =
// module name. README.md says which end-to-end metric each should move.
var perLayer = []spec{
	{Name: "proxy.upload_self_ms", Unit: "ms", Better: "lower"},
	{Name: "proxy.download_self_ms", Unit: "ms", Better: "lower"},
	{Name: "proxy.similar_self_ms", Unit: "ms", Better: "lower"},
	{Name: "proxy.video_self_ms", Unit: "ms", Better: "lower"},
	{Name: "proxy.delete_self_ms", Unit: "ms", Better: "lower"},
	{Name: "proxy.upload_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "proxy.upload_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "proxy.download_hot_ns", Unit: "ns", Better: "lower"},
	{Name: "proxy.download_hot_p95_us", Unit: "us", Better: "lower"},
	{Name: "cache.variants_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.secrets_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.dims_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.variants_coalesced", Unit: "count", Better: "lower"},
	{Name: "cache.variants_evictions", Unit: "count", Better: "lower"},
	{Name: "store.put_ms", Unit: "ms", Better: "lower"},
	{Name: "store.get_ms", Unit: "ms", Better: "lower"},
	{Name: "store.delete_ms", Unit: "ms", Better: "lower"},
	{Name: "store.put_self_ms", Unit: "ms", Better: "lower"},
	{Name: "store.get_self_ms", Unit: "ms", Better: "lower"},
	{Name: "store.put_slowest_shard_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.put_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.get_ms", Unit: "ms", Better: "lower"},
	{Name: "store.shard_calls_per_put", Unit: "count", Better: "lower"},
	{Name: "store.shard_calls_per_get", Unit: "count", Better: "lower"},
	{Name: "store.bytes_per_secret_byte", Unit: "ratio", Better: "lower"},
	{Name: "dedup.upload_self_ms", Unit: "ms", Better: "lower"},
	{Name: "dedup.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "dedup.bytes_saved_ratio", Unit: "ratio", Better: "higher"},
	{Name: "admission.admitted", Unit: "count", Better: "higher"},
	{Name: "admission.queued", Unit: "count", Better: "lower"},
	{Name: "admission.shed", Unit: "count", Better: "lower"},
	{Name: "psp.upload_ms", Unit: "ms", Better: "lower"},
	{Name: "psp.fetch_ms", Unit: "ms", Better: "lower"},
	{Name: "psp.replay_miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "harness.self_us_per_op", Unit: "us", Better: "lower"},
	{Name: "harness.prepare_s", Unit: "s", Better: "lower"},
	{Name: "harness.error_rate", Unit: "ratio", Better: "lower"},
	{Name: "proc.alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.gc_cpu_ratio", Unit: "ratio", Better: "lower"},
	{Name: "proc.peak_heap_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "jpegx.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "jpegx.decode_split_ms", Unit: "ms", Better: "lower"},
	{Name: "jpegx.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "core.split_ms", Unit: "ms", Better: "lower"},
	{Name: "core.seal_us", Unit: "us", Better: "lower"},
	{Name: "core.open_us", Unit: "us", Better: "lower"},
	{Name: "codec.split_ms", Unit: "ms", Better: "lower"},
	{Name: "codec.split_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "core.derive_planes_ms", Unit: "ms", Better: "lower"},
	{Name: "core.reconstruct_ms", Unit: "ms", Better: "lower"},
	{Name: "imaging.pipeline_ms", Unit: "ms", Better: "lower"},
	{Name: "codec.join_ms", Unit: "ms", Better: "lower"},
	{Name: "codec.join_processed_ms", Unit: "ms", Better: "lower"},
	{Name: "core.search_params_ms", Unit: "ms", Better: "lower"},
	{Name: "proxy.calibrate_ms", Unit: "ms", Better: "lower"},
	{Name: "proxy.recalibrate_probe_ms", Unit: "ms", Better: "lower"},
	{Name: "cache.hit_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.miss_ns", Unit: "ns", Better: "lower"},
	{Name: "admission.admit_ns", Unit: "ns", Better: "lower"},
	{Name: "erasure.encode_us", Unit: "us", Better: "lower"},
	{Name: "erasure.reconstruct_us", Unit: "us", Better: "lower"},
	{Name: "erasure.reconstruct_degraded_us", Unit: "us", Better: "lower"},
	{Name: "similarity.phash_ms", Unit: "ms", Better: "lower"},
	{Name: "similarity.query_us", Unit: "us", Better: "lower"},
	{Name: "dedup.hash_us", Unit: "us", Better: "lower"},
	{Name: "video.split_ms", Unit: "ms", Better: "lower"},
	{Name: "video.join_frame_ms", Unit: "ms", Better: "lower"},
	{Name: "http.photo_fetch_us", Unit: "us", Better: "lower"},
	{Name: "http.secret_put_us", Unit: "us", Better: "lower"},
	{Name: "http.secret_get_us", Unit: "us", Better: "lower"},
	{Name: "proxy.download_cold_unexplained_ratio", Unit: "ratio", Better: "lower"},
	{Name: "proxy.upload_unexplained_ratio", Unit: "ratio", Better: "lower"},
}

// manifest is BENCHMARK.json, generated so it cannot drift from the code.
func manifest() any {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var rows []named
	for _, w := range workloads {
		rows = append(rows, named{w.name, w.why})
	}
	return map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": defaultSeconds,
		"workloads":   rows,
		"end_to_end":  endToEnd, // every bound is non-zero, so each entry carries one
		"per_layer":   perLayer,
	}
}

// commit is the VCS revision stamped into the binary, when there is one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// finalLine is the contract's result object: every end-to-end metric of an
// untraced run, every per-layer metric of a traced one.
func finalLine(res *result) ([]byte, error) {
	specs := endToEnd
	if res.Traced {
		specs = perLayer
	}
	out := map[string]metric{}
	for _, s := range specs {
		m, ok := res.Metrics[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		out[s.Name] = m
	}
	return json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": out,
	})
}

// report prints every metric of the run by name with its unit.
func report(res *result) {
	fmt.Printf("workload=%s seed=%d seconds=%g traced=%v clients=%d num_cpu=%d gomaxprocs=%d go=%s commit=%s\n",
		res.Workload, res.Seed, res.Seconds, res.Traced, res.Clients, res.NumCPU, res.GOMAXPROCS, res.GoVersion, res.Commit)
	var ops []string
	for k, n := range res.OpCounts {
		if n > 0 {
			ops = append(ops, fmt.Sprintf("%s=%d", k, n))
		}
	}
	sort.Strings(ops)
	fmt.Printf("attempted=%d failed=%d window ops: %s\n", res.Attempted, res.Failed, strings.Join(ops, " "))
	for _, k := range []string{"upload", "download"} {
		n := res.Samples[k]
		fmt.Printf("%s latency: %d samples, highest percentile with ten beyond it: p%g\n", k, n, tailPercentile(n))
	}
	fmt.Printf("psnr pairs=%d traced requests=%d spans=%d\n", res.Samples["recon_psnr"], res.Samples["traced_requests"], res.Samples["spans"])
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-40s %14.6g %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	for _, v := range res.Violations {
		fmt.Println("VIOLATION:", v)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "p3bench:", err)
	os.Exit(1)
}

func main() {
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("p3bench "+cmd, flag.ExitOnError)
	name := fs.String("workload", "", "workload to run: upload_sync, cold_views, hot_feed or household_mix")
	seed := fs.Int64("seed", 1, "the only input to corpus, key and op-list generation")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the measured window")
	traced := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	outDir := fs.String("outdir", "bench/out", "where span files, suite results and disk shards go")
	out := fs.String("out", "", "suite: result file (default <outdir>/suite-seed<N>.json)")
	_ = fs.Parse(args)
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *traced != 0, probes: 1, outDir: *outDir}

	switch cmd {
	case "manifest":
		b, err := json.MarshalIndent(manifest(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
	case "agree":
		if fs.NArg() != 2 {
			fatal(fmt.Errorf("usage: p3bench agree A.json B.json"))
		}
		if err := agree(fs.Arg(0), fs.Arg(1)); err != nil {
			fatal(err)
		}
	case "suite":
		if *out == "" {
			*out = fmt.Sprintf("%s/suite-seed%d.json", *outDir, *seed)
		}
		if err := suite(cfg, *out); err != nil {
			fatal(err)
		}
	case "probes":
		res, err := probesOnly(cfg)
		if err != nil {
			fatal(err)
		}
		report(res)
		if len(res.Violations) > 0 {
			os.Exit(1)
		}
	case "run":
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		res, err := runWorkload(w, cfg)
		if err != nil {
			fatal(err)
		}
		report(res)
		line, err := finalLine(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	default:
		fatal(fmt.Errorf("unknown command %q", cmd))
	}
}

// suite runs every workload untraced and then traced and writes all the
// results to one file for agree.
func suite(cfg runConfig, path string) error {
	var results []*result
	failed := false
	for _, traced := range []bool{false, true} {
		for i := range workloads {
			cfg.traced = traced
			res, err := runWorkload(&workloads[i], cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", workloads[i].name, err)
			}
			report(res)
			failed = failed || !res.Correct
			results = append(results, res)
		}
	}
	b, err := json.MarshalIndent(results, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	if failed {
		return fmt.Errorf("a gate was violated; see VIOLATION lines")
	}
	return nil
}

// probesOnly sets up upload_sync's stack once, skips the window and runs
// the layer probes at five times their in-run iteration counts.
func probesOnly(cfg runConfig) (*result, error) {
	w := workloadByName("upload_sync")
	res := &result{Workload: "probes", Seed: cfg.seed, Metrics: map[string]metric{}, Samples: map[string]int64{}}
	r := &runner{w: w, cfg: cfg, res: res}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := r.prepare(); err != nil {
		return nil, err
	}
	cal, err := r.setUp(0)
	if r.st != nil {
		defer r.st.close()
	}
	if err != nil {
		return nil, err
	}
	res.set("proxy.calibrate_ms", float64(cal)/1e6, "ms")
	if err := r.roundTrips(); err != nil {
		res.violate("%v", err)
	}
	if err := r.probes(5); err != nil {
		res.violate("probes: %v", err)
	}
	return res, nil
}
