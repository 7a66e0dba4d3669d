package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"p3"
	"p3/internal/dedup"
	"p3/internal/metrics"
)

// opRecorder aggregates one operation type's client-observed results.
type opRecorder struct {
	hist     metrics.Histogram
	errs     atomic.Uint64
	maxNs    atomic.Int64
	firstErr atomic.Pointer[string] // for the report
}

func (r *opRecorder) record(d time.Duration, err error) {
	r.hist.Observe(d)
	for {
		old := r.maxNs.Load()
		if int64(d) <= old || r.maxNs.CompareAndSwap(old, int64(d)) {
			break
		}
	}
	if err != nil {
		r.errs.Add(1)
		msg := err.Error()
		r.firstErr.CompareAndSwap(nil, &msg)
	}
}

// opReport is one recorder's summary: what the table prints and the gates
// judge. The latencies include the in-process PSP simulator; measuring the
// proxy's own cost is bench/'s job.
type opReport struct {
	Count, Errors       uint64
	P50Ms, P95Ms, P99Ms float64
	MaxMs               float64
	SampleError         string
}

func (r *opRecorder) report() opReport {
	s := r.hist.Snapshot()
	maxMs := float64(r.maxNs.Load()) / 1e6
	// The log-scale buckets put a percentile estimate anywhere inside a
	// factor-of-2 bucket; the true value can never exceed the observed max,
	// so clamp to keep the report self-consistent.
	pct := func(d time.Duration) float64 { return min(float64(d)/float64(time.Millisecond), maxMs) }
	rep := opReport{
		Count:  s.Count,
		Errors: r.errs.Load(),
		P50Ms:  pct(s.P50),
		P95Ms:  pct(s.P95),
		P99Ms:  pct(s.P99),
		MaxMs:  maxMs,
	}
	if e := r.firstErr.Load(); e != nil {
		rep.SampleError = *e
	}
	return rep
}

// result is what one run measured, in the terms the gates judge.
type result struct {
	// ops are the per-op recorders' reports; opErrors sums their errors plus
	// failed forced recalibrations.
	ops      [numOps]opReport
	opErrors uint64

	// Forced recalibrations: how many the timeline asked for, how many
	// landed an epoch flip, how many downloads the post-flip pre-warm absorbed.
	recalsWanted int
	recalFlips   uint64
	warmHits     uint64

	// The post-run corpus walk through cold caches (multi-shard and dedup
	// runs): photos re-downloaded, photos gone, and photos whose bytes
	// differ from the first copy of their content group.
	verified, lost, mismatches int
	// scrubPending: the post-run scrub loop's last pass still found work,
	// so repair had not converged after maxScrubPasses passes.
	scrubPending bool

	storm *stormResult // storm driver only
	dedup *dedupResult // dedup stacks only
}

// stormResult is the per-client view of a storm run: victims split by
// whether the op was dispatched inside the storm window, and the attacker.
type stormResult struct {
	victimSteady, victimStorm, attacker opReport
	// attackerShed counts attacker requests the admission layer answered 503,
	// for any reason; stormSheds is the controller's storm-reason total —
	// the detector actually clamping someone.
	attackerShed, stormSheds uint64
}

// dedupResult is the dedup layer's counters and its post-run scrub audit.
type dedupResult struct {
	stats dedup.Stats
	scrub dedup.ScrubReport
}

// gate is one pass/fail contract on a run's result.
type gate struct {
	name  string
	check func(*result) error
}

// failIf is the body of most gates: an error built from format when broken.
func failIf(broken bool, format string, args ...any) error {
	if broken {
		return fmt.Errorf(format, args...)
	}
	return nil
}

// maxScrubPasses bounds the post-run scrub loop.
const maxScrubPasses = 100

// servingGates hold for every drill but storm: no op may fail, no object
// may be lost — the store's contract is byte-perfect survival of the
// configured fault (vacuous unless the run verified its corpus) — and the
// post-run scrub must have healed everything the faults left behind.
var servingGates = []gate{
	{"op-errors", func(r *result) error {
		return failIf(r.opErrors > 0, "saw %d op errors", r.opErrors)
	}},
	{"data-loss", func(r *result) error {
		return failIf(r.lost > 0, "lost %d/%d corpus objects", r.lost, r.verified)
	}},
	{"scrub-converged", func(r *result) error {
		return failIf(r.scrubPending, "post-run scrub still repairing after %d passes", maxScrubPasses)
	}},
}

// stormGates are the admission contract: victims never fail, the detector
// actually clamps someone, and the victims' download tail during the storm
// stays within 2x of their steady-state tail. Shedding the attacker is the
// desired outcome, so its 503s are nobody's error.
var stormGates = []gate{
	{"storm-victim-errors", func(r *result) error {
		n := r.storm.victimSteady.Errors + r.storm.victimStorm.Errors
		return failIf(n > 0, "saw %d victim errors, want 0", n)
	}},
	{"storm-clamped", func(r *result) error {
		return failIf(r.storm.stormSheds == 0,
			"never clamped the attacker (0 storm-reason sheds; attacker shed %d total)", r.storm.attackerShed)
	}},
	{"storm-victim-tail", func(r *result) error {
		steady, storm := r.storm.victimSteady, r.storm.victimStorm
		return failIf(steady.Count > 0 && storm.Count > 0 && storm.P99Ms > 2*steady.P99Ms,
			"victim p99 %.2fms during the storm exceeds 2x steady-state %.2fms", storm.P99Ms, steady.P99Ms)
	}},
}

// recalGates are the recalibration contract: every forced pass lands its
// epoch flip, and the pre-warmed hot set actually absorbs post-flip traffic.
var recalGates = []gate{
	{"recal-flips", func(r *result) error {
		return failIf(r.recalFlips < uint64(r.recalsWanted),
			"flipped %d/%d forced recalibrations", r.recalFlips, r.recalsWanted)
	}},
	{"recal-warm-hits", func(r *result) error {
		return failIf(r.warmHits == 0, "saw no warm hits after %d pre-warming epoch flips", r.recalFlips)
	}},
}

// dedupGates are the dedup contract: every content group byte-identical,
// real storage savings, and the refcount invariants intact after scrub.
var dedupGates = []gate{
	{"dedup-identity", func(r *result) error {
		return failIf(r.mismatches > 0,
			"saw %d byte-identity mismatches over %d verified ids", r.mismatches, r.verified)
	}},
	{"dedup-saved", func(r *result) error {
		return failIf(r.dedup.stats.BytesSaved == 0,
			"saved no public-part bytes (%d uploads, %d dup hits)", r.dedup.stats.Uploads, r.dedup.stats.DupHits)
	}},
	{"dedup-refcounts", func(r *result) error {
		return failIf(r.dedup.stats.NegativeRefs > 0 || r.dedup.scrub.RefErrors > 0,
			"broke refcount invariants (%d negative refs, %d scrub ref errors)",
			r.dedup.stats.NegativeRefs, r.dedup.scrub.RefErrors)
	}},
}

// downloadTailGate is the -max-download-p99 budget: recalibration (or
// anything else) must not blow the download tail past it.
func downloadTailGate(budget time.Duration) gate {
	ms := float64(budget) / float64(time.Millisecond)
	return gate{"max-download-p99", func(r *result) error {
		down := r.ops[opDownload]
		return failIf(down.Count > 0 && down.P99Ms > ms,
			"download p99 %.2fms exceeds the %.2fms budget", down.P99Ms, ms)
	}}
}

// checkGates runs every gate and reports the first failure.
func checkGates(gates []gate, r *result) error {
	for _, g := range gates {
		if err := g.check(r); err != nil {
			return fmt.Errorf("gate %s: %w", g.name, err)
		}
	}
	return nil
}

// printRow prints one line of the latency table, skipping empty recorders.
func printRow(name string, rep opReport) {
	if rep.Count == 0 {
		return
	}
	fmt.Printf("%-14s %9d %7d %8.2fms %8.2fms %8.2fms %8.2fms\n",
		name, rep.Count, rep.Errors, rep.P50Ms, rep.P95Ms, rep.P99Ms, rep.MaxMs)
	if rep.SampleError != "" {
		fmt.Printf("           first error: %s\n", rep.SampleError)
	}
}

// report prints the run: the latency table, then the counters of every
// layer that was on, as the stack's own stats structs (the field names are
// the ones /stats and /metrics use; see ARCHITECTURE.md).
func (h *harness) report(res *result) {
	fmt.Printf("\n%-14s %9s %7s %9s %9s %9s %9s\n", "op", "count", "errors", "p50", "p95", "p99", "max")
	for k := opKind(0); k < numOps; k++ {
		printRow(k.String(), res.ops[k])
	}
	st := h.px.Stats()
	if res.recalsWanted > 0 {
		printRow("recalibration", h.recalRec.report())
		fmt.Printf("calibration: %d/%d forced passes flipped; %+v\n", res.recalFlips, res.recalsWanted, st.Calibration)
	}
	if sr := res.storm; sr != nil {
		printRow("victim steady", sr.victimSteady)
		printRow("victim storm", sr.victimStorm)
		printRow("attacker", sr.attacker)
		fmt.Printf("storm: attacker shed %d/%d requests (%d by storm clamp)\n",
			sr.attackerShed, sr.attacker.Count, sr.stormSheds)
	}
	if st.Admission != nil {
		fmt.Printf("admission: %+v\n", *st.Admission)
	}
	if d := res.dedup; d != nil {
		fmt.Printf("dedup: %+v; scrub %+v\n", d.stats, d.scrub)
	}
	if st.Similarity != nil {
		fmt.Printf("similarity: %+v\n", *st.Similarity)
	}
	fmt.Printf("caches: variants %+v\n        secrets %+v\n", st.Variants, st.Secrets)
	if store, ok := h.st.Store.(*p3.ErasureSecretStore); ok {
		for i, sh := range store.ShardStats() {
			fmt.Printf("shard %d: %+v\n", i, sh)
		}
		fmt.Printf("repair: %+v\n", store.RepairStats())
	}
}
