package metrics

import (
	"strings"
	"testing"
)

// exportStats exercises every tag shape Export accepts.
type exportStats struct {
	Hits    uint64  `json:"hits" metric:"counter" help:"Lookups served."`
	Size    int     `json:"size" metric:"gauge,index_size" help:"Entries held."`
	Ratio   float64 `json:"ratio" metric:"gauge" help:"Fill ratio."`
	Busy    bool    `json:"busy" metric:"gauge" help:"1 while busy."`
	Name    string  `json:"name"`
	Skipped uint64  `json:"skipped"`
}

func exposition(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestExport checks counter vs gauge, a json-derived vs overridden name,
// labels, a bool gauge, skipped untagged fields, and that each scrape
// reads the snapshot afresh.
func TestExport(t *testing.T) {
	r := NewRegistry()
	s := exportStats{Hits: 3, Size: 42, Ratio: 0.25, Busy: true, Name: "x", Skipped: 9}
	Export(r, "p3_test", func() exportStats { return s }, Label{"proxy", "a"})
	want := strings.Join([]string{
		"# HELP p3_test_busy 1 while busy.",
		"# TYPE p3_test_busy gauge",
		`p3_test_busy{proxy="a"} 1`,
		"# HELP p3_test_hits_total Lookups served.",
		"# TYPE p3_test_hits_total counter",
		`p3_test_hits_total{proxy="a"} 3`,
		"# HELP p3_test_index_size Entries held.",
		"# TYPE p3_test_index_size gauge",
		`p3_test_index_size{proxy="a"} 42`,
		"# HELP p3_test_ratio Fill ratio.",
		"# TYPE p3_test_ratio gauge",
		`p3_test_ratio{proxy="a"} 0.25`,
		"",
	}, "\n")
	if got := exposition(t, r); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}

	s.Hits, s.Busy = 4, false
	got := exposition(t, r)
	for _, line := range []string{`p3_test_hits_total{proxy="a"} 4`, `p3_test_busy{proxy="a"} 0`} {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("scrape did not re-read the snapshot: missing %q in\n%s", line, got)
		}
	}
}

// TestExportReplaces checks that exporting the same series again swaps the
// reader instead of adding a second series, while another label set adds
// one.
func TestExportReplaces(t *testing.T) {
	r := NewRegistry()
	Export(r, "p3_test", func() exportStats { return exportStats{Hits: 1} }, Label{"cache", "a"})
	Export(r, "p3_test", func() exportStats { return exportStats{Hits: 2} }, Label{"cache", "b"})
	Export(r, "p3_test", func() exportStats { return exportStats{Hits: 7} }, Label{"cache", "a"})
	got := exposition(t, r)
	if n := strings.Count(got, "p3_test_hits_total{"); n != 2 {
		t.Errorf("%d hits series, want 2:\n%s", n, got)
	}
	if !strings.Contains(got, `p3_test_hits_total{cache="a"} 7`+"\n"+`p3_test_hits_total{cache="b"} 2`) {
		t.Errorf("re-export did not replace in place:\n%s", got)
	}
}

// TestExportPanicsOnBadTags pins the fail-fast behavior: every mistake in
// a tag is caught at registration, not at scrape time.
func TestExportPanicsOnBadTags(t *testing.T) {
	mustPanic := func(name string, export func(r *Registry)) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Export did not panic", name)
			}
		}()
		export(NewRegistry())
	}
	type str struct {
		Name string `json:"name" metric:"gauge" help:"h"`
	}
	type nested struct {
		Inner struct{ N int } `json:"inner" metric:"gauge" help:"h"`
	}
	type signedCounter struct {
		N int `json:"n" metric:"counter" help:"h"`
	}
	type noHelp struct {
		N uint64 `json:"n" metric:"counter"`
	}
	type noName struct {
		N uint64 `metric:"counter" help:"h"`
	}
	type badKind struct {
		N uint64 `json:"n" metric:"histogram" help:"h"`
	}
	mustPanic("string field", func(r *Registry) { Export(r, "p3", func() str { return str{} }) })
	mustPanic("nested struct", func(r *Registry) { Export(r, "p3", func() nested { return nested{} }) })
	mustPanic("signed counter", func(r *Registry) { Export(r, "p3", func() signedCounter { return signedCounter{} }) })
	mustPanic("missing help", func(r *Registry) { Export(r, "p3", func() noHelp { return noHelp{} }) })
	mustPanic("missing name", func(r *Registry) { Export(r, "p3", func() noName { return noName{} }) })
	mustPanic("unknown kind", func(r *Registry) { Export(r, "p3", func() badKind { return badKind{} }) })
	mustPanic("not a struct", func(r *Registry) { Export(r, "p3", func() int { return 0 }) })
	mustPanic("type clash", func(r *Registry) {
		r.Counter("p3_test_index_size", "a counter")
		Export(r, "p3_test", func() exportStats { return exportStats{} })
	})
}
