package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// exact lists the count-type metrics: two runs of one commit and seed must
// report them identically whenever both windows did the same ops.
var exact = []string{"storage_overhead_ratio", "dedup.hit_ratio", "store.bytes_per_secret_byte"}

func loadSuite(path string) (map[string]*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var results []*result
	if err := json.Unmarshal(b, &results); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]*result{}
	for _, r := range results {
		out[fmt.Sprintf("%s/traced=%v", r.Workload, r.Traced)] = r
	}
	return out, nil
}

// agree compares two suite files run by run: every end-to-end metric of
// the untraced runs must sit within its bound of the other file's (in the
// direction that counts as worse, both ways round), and the count-type
// metrics must be identical when the two windows executed the same ops.
func agree(pathA, pathB string) error {
	a, err := loadSuite(pathA)
	if err != nil {
		return err
	}
	b, err := loadSuite(pathB)
	if err != nil {
		return err
	}
	bad := 0
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			key := fmt.Sprintf("%s/traced=%v", w.name, traced)
			ra, rb := a[key], b[key]
			if ra == nil || rb == nil {
				fmt.Printf("%-36s MISSING in one file\n", key)
				bad++
				continue
			}
			if !ra.Correct || !rb.Correct {
				fmt.Printf("%-36s a gate was violated (correct: %v, %v)\n", key, ra.Correct, rb.Correct)
				bad++
			}
			if !traced {
				for _, s := range endToEnd {
					va, vb := ra.Metrics[s.Name].Value, rb.Metrics[s.Name].Value
					rel := math.Abs(va-vb) / math.Min(math.Abs(va), math.Abs(vb))
					verdict := "ok"
					if !(rel <= s.Bound) {
						verdict = "OUTSIDE BOUND"
						bad++
					}
					fmt.Printf("%-16s %-24s %12.5g %12.5g  diff %6.2f%%  bound %5.1f%%  %s\n",
						w.name, s.Name, va, vb, 100*rel, 100*s.Bound, verdict)
				}
			}
			sameOps := fmt.Sprint(ra.OpCounts) == fmt.Sprint(rb.OpCounts)
			for _, name := range exact {
				ma, ok := ra.Metrics[name]
				if !ok {
					continue
				}
				mb := rb.Metrics[name]
				switch {
				case ma.Value == mb.Value:
					fmt.Printf("%-16s %-24s %12.5g identical (traced=%v)\n", w.name, name, ma.Value, traced)
				case sameOps:
					fmt.Printf("%-16s %-24s %12.5g %12.5g  DIFFER on identical op counts (traced=%v)\n", w.name, name, ma.Value, mb.Value, traced)
					bad++
				default:
					fmt.Printf("%-16s %-24s %12.5g %12.5g  windows did different ops; not comparable exactly (traced=%v)\n", w.name, name, ma.Value, mb.Value, traced)
				}
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d disagreements", bad)
	}
	fmt.Println("the two files agree")
	return nil
}
