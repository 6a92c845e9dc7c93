package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestParseLine(t *testing.T) {
	b, ok := parseLine("BenchmarkTDCCostKernel-8   \t 2977206\t       399.1 ns/op\t       0 B/op\t       0 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if b.Name != "BenchmarkTDCCostKernel" {
		t.Errorf("name = %q, want GOMAXPROCS suffix stripped", b.Name)
	}
	if b.Iterations != 2977206 || b.NsPerOp != 399.1 || b.BytesPerOp != 0 || b.AllocsPerOp != 0 {
		t.Errorf("parsed %+v", b)
	}

	// Custom ReportMetric units land in Metrics.
	b, ok = parseLine("BenchmarkTab3WithWithoutTDC-8   1  123456789 ns/op  42.5 cycles-ratio")
	if !ok {
		t.Fatal("metric line not parsed")
	}
	if b.Metrics["cycles-ratio"] != 42.5 {
		t.Errorf("metrics = %v", b.Metrics)
	}

	// The streaming benches report their heap high-water mark as
	// peak-bytes; it is a first-class field, not a generic metric.
	b, ok = parseLine("BenchmarkStreamGiant-8   1  9e9 ns/op  123456 peak-bytes  8.5 cubes/s")
	if !ok {
		t.Fatal("peak-bytes line not parsed")
	}
	if b.PeakBytes != 123456 {
		t.Errorf("PeakBytes = %d, want 123456", b.PeakBytes)
	}
	if _, generic := b.Metrics["peak-bytes"]; generic {
		t.Error("peak-bytes leaked into Metrics")
	}
	if b.Metrics["cubes/s"] != 8.5 {
		t.Errorf("metrics = %v", b.Metrics)
	}

	for _, bad := range []string{
		"goos: linux",
		"PASS",
		"BenchmarkBroken-8 notanumber 1 ns/op",
		"BenchmarkShort-8 5",
	} {
		if _, ok := parseLine(bad); ok {
			t.Errorf("parseLine(%q) accepted, want skip", bad)
		}
	}
}

// TestQualifyProcs: a benchmark measured at GOMAXPROCS 1 and 2 in one
// run keeps one name per value (go test prints no suffix at 1), and one
// measured at a single value keeps its bare name, in either package.
func TestQualifyProcs(t *testing.T) {
	var bs []Benchmark
	for _, line := range []string{
		"BenchmarkVerifyPlan/d695     \t 200\t 5000000 ns/op",
		"BenchmarkVerifyPlan/d695-2   \t 300\t 3000000 ns/op",
		"BenchmarkVerifyPlan/d2758    \t 200\t 6000000 ns/op",
		"BenchmarkVerifyPlan/d2758-2  \t 300\t 3500000 ns/op",
		"BenchmarkOptimizeSearch-2    \t 500\t 250000 ns/op",
		"BenchmarkGreedySchedule      \t 900\t 1000 ns/op",
	} {
		b, ok := parseLine(line)
		if !ok {
			t.Fatalf("line %q not parsed", line)
		}
		b.Pkg = "soctap"
		bs = append(bs, b)
	}
	other, _ := parseLine("BenchmarkVerifyPlan/d695-2 \t 1\t 1 ns/op")
	other.Pkg = "soctap/other"
	bs = append(bs, other)
	qualifyProcs(bs)
	var names []string
	for _, b := range bs {
		names = append(names, b.Name)
	}
	want := []string{
		"BenchmarkVerifyPlan/d695-1", "BenchmarkVerifyPlan/d695-2",
		"BenchmarkVerifyPlan/d2758-1", "BenchmarkVerifyPlan/d2758-2",
		"BenchmarkOptimizeSearch", "BenchmarkGreedySchedule",
		"BenchmarkVerifyPlan/d695",
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("names %v, want %v", names, want)
	}
}

// TestMergeExisting: re-run results replace their prior entry, prior
// results not re-run survive ahead of the new ones, and a missing
// merge target degenerates to a plain write.
func TestMergeExisting(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH.json")
	old := Report{
		Date: "2026-08-01", GoOS: "linux", GoArch: "amd64",
		Benchmarks: []Benchmark{
			{Name: "BenchmarkA", Pkg: "p1", Iterations: 10, NsPerOp: 1},
			{Name: "BenchmarkB", Pkg: "p1", Iterations: 20, NsPerOp: 2},
		},
	}
	data, err := json.Marshal(&old)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rep := Report{
		Date: "2026-08-08",
		Benchmarks: []Benchmark{
			{Name: "BenchmarkB", Pkg: "p1", Iterations: 99, NsPerOp: 3}, // re-run
			{Name: "BenchmarkC", Pkg: "p2", Iterations: 1, NsPerOp: 4},  // new
		},
	}
	if err := mergeExisting(path, &rep); err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"BenchmarkA", "BenchmarkB", "BenchmarkC"}
	var names []string
	for _, b := range rep.Benchmarks {
		names = append(names, b.Name)
	}
	if !reflect.DeepEqual(names, wantNames) {
		t.Fatalf("merged order %v, want %v", names, wantNames)
	}
	if rep.Benchmarks[1].Iterations != 99 {
		t.Error("re-run result did not replace the prior entry")
	}

	fresh := Report{Benchmarks: []Benchmark{{Name: "BenchmarkA"}}}
	if err := mergeExisting(filepath.Join(dir, "absent.json"), &fresh); err != nil {
		t.Fatalf("missing merge target: %v", err)
	}
	if len(fresh.Benchmarks) != 1 {
		t.Error("missing merge target disturbed the report")
	}
}

// parseAll parses bench output lines as the main loop does, stamping
// pkg on each result.
func parseAll(t *testing.T, pkg string, lines ...string) []Benchmark {
	t.Helper()
	var bs []Benchmark
	for _, line := range lines {
		b, ok := parseLine(line)
		if !ok {
			t.Fatalf("line %q not parsed", line)
		}
		b.Pkg = pkg
		bs = append(bs, b)
	}
	return bs
}

// TestSummarizeMedian: five samples of one benchmark become one entry
// holding the median of every field and metric, the sample count and
// the quartiles of ns/op; an even count takes the mean of the middle
// two; a single sample is stored as it was measured.
func TestSummarizeMedian(t *testing.T) {
	bs := summarize(parseAll(t, "soctap",
		"BenchmarkTab3-2  1  900 ns/op  50 B/op  7 allocs/op  11 time-reduction-x",
		"BenchmarkTab3-2  1  100 ns/op  10 B/op  3 allocs/op  11 time-reduction-x",
		"BenchmarkTab3-2  1  300 ns/op  30 B/op  5 allocs/op  13 time-reduction-x",
		"BenchmarkTab3-2  1  200 ns/op  20 B/op  4 allocs/op  12 time-reduction-x",
		"BenchmarkTab3-2  1  400 ns/op  40 B/op  6 allocs/op  12 time-reduction-x",
		"BenchmarkEven-2  1  100 ns/op  10 B/op",
		"BenchmarkEven-2  3  400 ns/op  21 B/op",
		"BenchmarkEven-2  1  200 ns/op  20 B/op",
		"BenchmarkEven-2  1  300 ns/op  30 B/op",
		"BenchmarkOnce-2  7  500 ns/op",
	))
	if len(bs) != 3 {
		t.Fatalf("%d entries, want 3: %+v", len(bs), bs)
	}
	tab3, even, once := bs[0], bs[1], bs[2]
	if tab3.Name != "BenchmarkTab3" || tab3.Samples != 5 || tab3.NsPerOp != 300 ||
		tab3.NsPerOpQ1 != 200 || tab3.NsPerOpQ3 != 400 || tab3.BytesPerOp != 30 || tab3.AllocsPerOp != 5 ||
		tab3.Metrics["time-reduction-x"] != 12 {
		t.Errorf("five samples summarized as %+v", tab3)
	}
	if even.Samples != 4 || even.NsPerOp != 250 || even.NsPerOpQ1 != 175 || even.NsPerOpQ3 != 325 ||
		even.BytesPerOp != 21 || even.Iterations != 1 {
		t.Errorf("four samples summarized as %+v", even)
	}
	if once.Samples != 1 || once.NsPerOp != 500 || once.Iterations != 7 || once.NsPerOpQ1 != 0 || once.NsPerOpQ3 != 0 {
		t.Errorf("one sample summarized as %+v", once)
	}
}

// TestSummarizeProcsAndSamples: `-cpu 1,2 -count 2` output summarizes
// to one entry per GOMAXPROCS value, each named by qualifyProcs and
// holding its own two samples.
func TestSummarizeProcsAndSamples(t *testing.T) {
	bs := summarize(parseAll(t, "soctap",
		"BenchmarkVerifyPlan/d695     \t 200\t 5000000 ns/op",
		"BenchmarkVerifyPlan/d695     \t 200\t 7000000 ns/op",
		"BenchmarkVerifyPlan/d695-2   \t 300\t 3000000 ns/op",
		"BenchmarkVerifyPlan/d695-2   \t 300\t 4000000 ns/op",
		"BenchmarkOptimizeSearch-2    \t 500\t 250000 ns/op",
		"BenchmarkOptimizeSearch-2    \t 500\t 260000 ns/op",
	))
	qualifyProcs(bs)
	type entry struct {
		name    string
		samples int
		ns      float64
	}
	var got []entry
	for _, b := range bs {
		got = append(got, entry{b.Name, b.Samples, b.NsPerOp})
	}
	want := []entry{
		{"BenchmarkVerifyPlan/d695-1", 2, 6000000},
		{"BenchmarkVerifyPlan/d695-2", 2, 3500000},
		{"BenchmarkOptimizeSearch", 2, 255000},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("entries %v, want %v", got, want)
	}
}

// TestMergeKeepsSummaries: a merge replaces a benchmark's summarized
// entry whole and keeps the prior summaries of benchmarks not re-run.
func TestMergeKeepsSummaries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	old := Report{Benchmarks: summarize(parseAll(t, "soctap",
		"BenchmarkA  1  100 ns/op", "BenchmarkA  1  300 ns/op", "BenchmarkA  1  200 ns/op",
		"BenchmarkB  1  10 ns/op", "BenchmarkB  1  30 ns/op",
	))}
	data, err := json.Marshal(&old)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep := Report{Benchmarks: summarize(parseAll(t, "soctap", "BenchmarkB  1  50 ns/op"))}
	if err := mergeExisting(path, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("merged %+v", rep.Benchmarks)
	}
	a, b := rep.Benchmarks[0], rep.Benchmarks[1]
	if a.Name != "BenchmarkA" || a.Samples != 3 || a.NsPerOp != 200 || a.NsPerOpQ1 != 150 || a.NsPerOpQ3 != 250 {
		t.Errorf("kept entry %+v, want A's three-sample summary", a)
	}
	if b.Name != "BenchmarkB" || b.Samples != 1 || b.NsPerOp != 50 || b.NsPerOpQ1 != 0 {
		t.Errorf("re-run entry %+v, want B's new single sample", b)
	}
}
