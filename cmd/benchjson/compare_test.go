package main

import (
	"fmt"
	"strings"
	"testing"
)

func mkReport(ns float64, metrics map[string]float64) Report {
	return Report{
		Date: "2026-08-08",
		Benchmarks: []Benchmark{{
			Name: "BenchmarkOptimizeSearch", Pkg: "soctap",
			Iterations: 10, NsPerOp: ns,
			BytesPerOp: 2048, AllocsPerOp: 12,
			Metrics: metrics,
		}},
	}
}

// TestCompareIdentical: a report diffed against itself is clean.
func TestCompareIdentical(t *testing.T) {
	rep := mkReport(1000, map[string]float64{"cores/s": 50, "makespan-cycles": 9000, "spread-%": 3})
	var out strings.Builder
	if n := runCompare(rep, rep, 0.10, &out); n != 0 {
		t.Fatalf("identical reports regressed %d metric(s):\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "ok:") {
		t.Fatalf("clean compare output missing ok line:\n%s", out.String())
	}
}

// TestCompareRegressionDirections: lower-is-better metrics fail when
// they rise past the threshold, higher-is-better when they fall, and
// movement inside the threshold passes.
func TestCompareRegressionDirections(t *testing.T) {
	old := mkReport(1000, map[string]float64{"cores/s": 50, "makespan-cycles": 9000, "volume-reduction-x": 2.0})

	// +20% ns/op: a regression at a 10% threshold.
	slower := mkReport(1200, map[string]float64{"cores/s": 50, "makespan-cycles": 9000, "volume-reduction-x": 2.0})
	var out strings.Builder
	if n := runCompare(old, slower, 0.10, &out); n != 1 {
		t.Fatalf("injected +20%% ns/op regressed %d metric(s), want 1:\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("regression not flagged:\n%s", out.String())
	}

	// Throughput dropping 20% is a regression too (higher is better).
	slowTput := mkReport(1000, map[string]float64{"cores/s": 40, "makespan-cycles": 9000, "volume-reduction-x": 2.0})
	if n := runCompare(old, slowTput, 0.10, &strings.Builder{}); n != 1 {
		t.Fatalf("throughput drop regressed %d metric(s), want 1", n)
	}

	// A reduction factor falling is a regression (higher is better).
	worseX := mkReport(1000, map[string]float64{"cores/s": 50, "makespan-cycles": 9000, "volume-reduction-x": 1.5})
	if n := runCompare(old, worseX, 0.10, &strings.Builder{}); n != 1 {
		t.Fatalf("reduction-factor drop regressed %d metric(s), want 1", n)
	}

	// -cycles rising is a regression (cost).
	moreCycles := mkReport(1000, map[string]float64{"cores/s": 50, "makespan-cycles": 12000, "volume-reduction-x": 2.0})
	if n := runCompare(old, moreCycles, 0.10, &strings.Builder{}); n != 1 {
		t.Fatalf("cycle increase regressed %d metric(s), want 1", n)
	}

	// +5% ns/op stays under a 10% threshold.
	wobble := mkReport(1050, map[string]float64{"cores/s": 50, "makespan-cycles": 9000, "volume-reduction-x": 2.0})
	if n := runCompare(old, wobble, 0.10, &strings.Builder{}); n != 0 {
		t.Fatalf("+5%% wobble regressed %d metric(s), want 0", n)
	}

	// Improvements never fail: faster, higher throughput.
	better := mkReport(500, map[string]float64{"cores/s": 90, "makespan-cycles": 8000, "volume-reduction-x": 2.5})
	if n := runCompare(old, better, 0.10, &strings.Builder{}); n != 0 {
		t.Fatalf("improvement regressed %d metric(s), want 0", n)
	}
}

// TestCompareInfoMetricsNeverFail: directionless metrics (spread-%) are
// reported but cannot regress, whatever they do.
func TestCompareInfoMetricsNeverFail(t *testing.T) {
	old := mkReport(1000, map[string]float64{"spread-%": 1})
	new := mkReport(1000, map[string]float64{"spread-%": 40})
	var out strings.Builder
	if n := runCompare(old, new, 0.10, &out); n != 0 {
		t.Fatalf("info metric regressed %d metric(s), want 0:\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "(info)") {
		t.Fatalf("info metric not marked:\n%s", out.String())
	}
}

// TestCompareBenchSetChanges: benchmarks appearing or disappearing are
// noted, never failed — renames should not break the gate.
func TestCompareBenchSetChanges(t *testing.T) {
	old := mkReport(1000, nil)
	renamed := Report{Benchmarks: []Benchmark{{Name: "BenchmarkRenamed", Pkg: "soctap", NsPerOp: 1}}}
	var out strings.Builder
	if n := runCompare(old, renamed, 0.10, &out); n != 0 {
		t.Fatalf("bench-set change regressed %d metric(s), want 0:\n%s", n, out.String())
	}
	for _, want := range []string{"new benchmark", "disappeared"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("compare output missing %q:\n%s", want, out.String())
		}
	}
}

// TestCompareZeroBaseline: a zero old value yields n/a, not a
// divide-by-zero regression.
func TestCompareZeroBaseline(t *testing.T) {
	old := mkReport(1000, nil)
	old.Benchmarks[0].AllocsPerOp = 0
	new := mkReport(1000, nil)
	new.Benchmarks[0].AllocsPerOp = 5
	var out strings.Builder
	if n := runCompare(old, new, 0.10, &out); n != 0 {
		t.Fatalf("zero baseline regressed %d metric(s), want 0:\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "n/a") {
		t.Fatalf("zero baseline not rendered as n/a:\n%s", out.String())
	}
}

// TestDirection pins the unit heuristics the gate rests on.
func TestDirection(t *testing.T) {
	cases := map[string]metricDir{
		"ns/op":              dirLower,
		"B/op":               dirLower,
		"allocs/op":          dirLower,
		"peak-bytes":         dirLower,
		"entry-bytes":        dirLower,
		"makespan-cycles":    dirLower,
		"cores/s":            dirHigher,
		"cubes/s":            dirHigher,
		"time-reduction-x":   dirHigher,
		"volume-reduction-x": dirHigher,
		// the fused-sweep amortization factor from bench-big: a drop
		// means table builds re-traverse the cube source more often
		"window-load-amortization-x": dirHigher,
		"spread-%":                   dirInfo,
		// fraction of a source pass each fused point costs; tracked but
		// not gated (it moves with batch size, not with regressions)
		"passes-per-point": dirInfo,
	}
	for unit, want := range cases {
		if got := direction(unit); got != want {
			t.Errorf("direction(%q) = %v, want %v", unit, got, want)
		}
	}
}

// TestCompareMedians: compare judges the median of each side's
// samples, so one slow sample among five does not regress, a slower
// median does, and an archive entry without a sample count compares as
// one sample.
func TestCompareMedians(t *testing.T) {
	samples := func(ns ...int) Report {
		var lines []string
		for _, n := range ns {
			lines = append(lines, fmt.Sprintf("BenchmarkTab3 1 %d ns/op", n))
		}
		return Report{Benchmarks: summarize(parseAll(t, "soctap", lines...))}
	}
	old := samples(1000, 1010, 990, 1005, 995)
	var out strings.Builder
	if n := runCompare(old, samples(1000, 3000, 990, 1005, 995), 0.10, &out); n != 0 {
		t.Fatalf("one slow sample regressed %d metric(s):\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "n=5->5") {
		t.Errorf("ns/op row does not name the sample counts:\n%s", out.String())
	}
	if n := runCompare(old, samples(1200, 1300, 1250, 990, 1210), 0.10, &strings.Builder{}); n != 1 {
		t.Fatalf("median +20%% regressed %d metric(s), want 1", n)
	}
	archived := Report{Benchmarks: []Benchmark{{Name: "BenchmarkTab3", Pkg: "soctap", Iterations: 1, NsPerOp: 1000}}}
	out.Reset()
	if n := runCompare(archived, old, 0.10, &out); n != 0 || !strings.Contains(out.String(), "n=1->5") {
		t.Errorf("single-sample archive: %d regression(s):\n%s", n, out.String())
	}
}
