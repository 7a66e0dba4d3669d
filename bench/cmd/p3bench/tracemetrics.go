package main

import (
	"fmt"
	"os"
	"path/filepath"

	"p3/bench/trace"
)

// traceMetrics turns the traced requests into the per-layer timings, checks
// that every request's spans add up, and writes the span file.
func (r *runner) traceMetrics(clients []*client) error {
	res := r.res
	dur, self := map[string][]float64{}, map[string][]float64{} // span name → ms per span
	var hot []float64                                           // ns, views that touched no layer below the handler
	var slowestShard, callsPerPut, callsPerGet []float64
	var all []trace.Span
	var ns, ops [2][numStrata]float64 // by mode (untraced, traced) and stratum
	for _, c := range clients {
		for mode := range ns {
			for st := range ns[mode] {
				ns[mode][st] += float64(c.modeNs[mode][st])
				ops[mode][st] += float64(c.modeOps[mode][st])
			}
		}
		for _, tr := range c.reqs {
			spans := tr.Spans()
			for i := range spans {
				// A read fan-out's cancelled stragglers may close late or never.
				spans[i].End = max(spans[i].End, spans[i].Start)
			}
			selfs := trace.Self(spans)
			kids := map[uint32][]trace.Span{}
			for i, s := range spans {
				dur[s.Name] = append(dur[s.Name], float64(s.Dur())/1e6)
				self[s.Name] = append(self[s.Name], float64(selfs[i])/1e6)
				kids[s.Parent] = append(kids[s.Parent], s)
				if selfs[i] < 0 || selfs[i] > s.Dur() {
					res.violate("span %s of request %d: self %d ns outside its %d ns", s.Name, s.Req, selfs[i], s.Dur())
				}
			}
			if root := spans[0]; root.Name == "proxy.download" && len(spans) == 1 {
				hot = append(hot, float64(root.Dur()))
			}
			for _, s := range spans {
				switch s.Name {
				case "store.put":
					var slowest int64
					for _, k := range kids[s.ID] {
						slowest = max(slowest, k.Dur())
					}
					slowestShard = append(slowestShard, float64(slowest)/1e6)
					callsPerPut = append(callsPerPut, float64(len(kids[s.ID])))
				case "store.get":
					callsPerGet = append(callsPerGet, float64(len(kids[s.ID])))
				}
			}
			all = append(all, spans...)
		}
	}
	for _, k := range opNames {
		res.set("proxy."+k+"_self_ms", median(self["proxy."+k]), "ms")
	}
	res.set("proxy.download_hot_ns", median(hot), "ns")
	res.set("proxy.download_hot_p95_us", quantile(hot, 0.95)/1e3, "us")
	for _, k := range []string{"put", "get", "delete"} {
		res.set("store."+k+"_ms", median(dur["store."+k]), "ms")
	}
	res.set("store.put_self_ms", median(self["store.put"]), "ms")
	res.set("store.get_self_ms", median(self["store.get"]), "ms")
	res.set("store.put_slowest_shard_ms", median(slowestShard), "ms")
	res.set("shard.put_ms", median(dur["shard.put"]), "ms")
	res.set("shard.get_ms", median(dur["shard.get"]), "ms")
	res.set("store.shard_calls_per_put", mean(callsPerPut), "count")
	res.set("store.shard_calls_per_get", mean(callsPerGet), "count")
	res.set("dedup.upload_self_ms", median(self["dedup.upload"]), "ms")
	res.set("psp.upload_ms", median(dur["psp.upload"]), "ms")
	res.set("psp.fetch_ms", median(dur["psp.fetch"]), "ms")
	res.Samples["spans"] = int64(len(all))

	// Tracing overhead: 1 − traced ops/s ÷ untraced ops/s, with both rates
	// standardised to the same mix of strata so that which requests fell to
	// which side does not pass for overhead.
	var onTime, offTime float64
	for st := range ns[0] {
		if ops[modeTraced][st] > 0 && ops[modeUntraced][st] > 0 {
			weight := ops[modeTraced][st] + ops[modeUntraced][st]
			onTime += weight * ns[modeTraced][st] / ops[modeTraced][st]
			offTime += weight * ns[modeUntraced][st] / ops[modeUntraced][st]
		}
		res.Samples["traced_requests"] += int64(ops[modeTraced][st])
	}
	overhead := 0.0
	if onTime > 0 {
		overhead = 1 - offTime/onTime
	}
	res.set("trace.overhead_ratio", overhead, "ratio")

	f, err := os.Create(filepath.Join(r.cfg.outDir, fmt.Sprintf("trace-%s.jsonl", r.w.name)))
	if err != nil {
		return err
	}
	if err := trace.WriteJSONL(f, all); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
