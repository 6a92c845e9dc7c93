package main

// Bench-regression diffing: `benchjson -compare old.json new.json`
// loads two archived reports and diffs them metric by metric. Metrics
// whose unit implies a direction (ns/op is lower-is-better, cores/s is
// higher-is-better) regress when they move the wrong way by more than
// -threshold; directionless metrics are reported but never fail the
// comparison. The exit code is the contract `make bench-compare` keys
// on: 0 clean, 1 when any metric regressed. A benchmark measured over
// several samples is compared on its medians; an archive entry without
// a sample count is one sample.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// metricDir is a metric's improvement direction.
type metricDir int

const (
	dirLower  metricDir = iota // lower is better (times, bytes, allocs)
	dirHigher                  // higher is better (throughputs, reduction factors)
	dirInfo                    // no inherent direction; never a regression
)

// direction classifies a metric unit. The suffixes mirror the units the
// repository's benchmarks actually report: "-bytes"/"-cycles" costs,
// "/s" throughputs and "-x" reduction factors. Anything else (e.g.
// "spread-%") is informational.
func direction(unit string) metricDir {
	switch unit {
	case "ns/op", "B/op", "allocs/op", "peak-bytes":
		return dirLower
	}
	switch {
	case strings.HasSuffix(unit, "-bytes"), strings.HasSuffix(unit, "-cycles"):
		return dirLower
	case strings.HasSuffix(unit, "/s"), strings.HasSuffix(unit, "-x"):
		return dirHigher
	}
	return dirInfo
}

// metricRow is one compared metric of one benchmark.
type metricRow struct {
	bench    string
	unit     string
	old, new float64
	dir      metricDir
	note     string
}

// delta is the relative change from old to new; +0.25 means new is 25%
// larger. NaN when old is zero (printed as "n/a", never a regression —
// a zero baseline carries no scale to regress against).
func (r metricRow) delta() float64 {
	if r.old == 0 {
		return math.NaN()
	}
	return (r.new - r.old) / r.old
}

// regressed reports whether the metric moved in its losing direction by
// more than threshold.
func (r metricRow) regressed(threshold float64) bool {
	d := r.delta()
	if math.IsNaN(d) {
		return false
	}
	switch r.dir {
	case dirLower:
		return d > threshold
	case dirHigher:
		return d < -threshold
	}
	return false
}

// benchKey identifies a benchmark across reports.
func benchKey(b Benchmark) string { return b.Pkg + " " + b.Name }

// benchRows flattens one old/new benchmark pair into comparable metric
// rows. Fields that are zero on both sides are skipped (the benchmark
// does not report them); a metric present on only one side is skipped
// too — compare judges movement, not coverage.
func benchRows(old, new Benchmark) []metricRow {
	name := new.Name
	if new.Pkg != "" {
		name = new.Pkg + "." + new.Name
	}
	var rows []metricRow
	add := func(unit string, o, n float64) {
		if o == 0 && n == 0 {
			return
		}
		rows = append(rows, metricRow{bench: name, unit: unit, old: o, new: n, dir: direction(unit)})
	}
	add("ns/op", old.NsPerOp, new.NsPerOp)
	if len(rows) == 1 {
		rows[0].note = fmt.Sprintf("  n=%d->%d", max(old.Samples, 1), max(new.Samples, 1))
	}
	add("B/op", float64(old.BytesPerOp), float64(new.BytesPerOp))
	add("allocs/op", float64(old.AllocsPerOp), float64(new.AllocsPerOp))
	add("peak-bytes", float64(old.PeakBytes), float64(new.PeakBytes))
	for unit, n := range new.Metrics {
		if o, ok := old.Metrics[unit]; ok {
			add(unit, o, n)
		}
	}
	return rows
}

// runCompare diffs two reports, writing the per-metric table to w, and
// returns the number of regressed metrics. Benchmarks present in only
// one report are noted but not failed.
func runCompare(old, new Report, threshold float64, w io.Writer) int {
	oldBy := make(map[string]Benchmark, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		oldBy[benchKey(b)] = b
	}
	fmt.Fprintf(w, "comparing %s (%s) -> %s (%s), threshold %.0f%%\n",
		old.Date, revOr(old.VCSRevision, "unknown rev"),
		new.Date, revOr(new.VCSRevision, "unknown rev"), threshold*100)

	regressions := 0
	matched := make(map[string]bool, len(new.Benchmarks))
	for _, nb := range new.Benchmarks {
		ob, ok := oldBy[benchKey(nb)]
		if !ok {
			fmt.Fprintf(w, "  new benchmark (no baseline): %s\n", nb.Name)
			continue
		}
		matched[benchKey(nb)] = true
		for _, r := range benchRows(ob, nb) {
			verdict := ""
			switch {
			case r.regressed(threshold):
				verdict = "  REGRESSION"
				regressions++
			case r.dir == dirInfo:
				verdict = "  (info)"
			}
			fmt.Fprintf(w, "  %-52s %-16s %14.4g -> %-14.4g %s%s%s\n",
				r.bench, r.unit, r.old, r.new, fmtDelta(r.delta()), r.note, verdict)
		}
	}
	for _, ob := range old.Benchmarks {
		if !matched[benchKey(ob)] {
			fmt.Fprintf(w, "  benchmark disappeared: %s\n", ob.Name)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(w, "FAIL: %d metric(s) regressed beyond %.0f%%\n", regressions, threshold*100)
	} else {
		fmt.Fprintf(w, "ok: no metric regressed beyond %.0f%%\n", threshold*100)
	}
	return regressions
}

func fmtDelta(d float64) string {
	if math.IsNaN(d) {
		return "   n/a"
	}
	return fmt.Sprintf("%+5.1f%%", d*100)
}

func revOr(rev, fallback string) string {
	if rev == "" {
		return fallback
	}
	return rev
}

// loadReport reads one archived BENCH_*.json.
func loadReport(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// compareMain is the -compare entry point: load both archives, diff,
// and exit 1 on any regression.
func compareMain(oldPath, newPath string, threshold float64) {
	old, err := loadReport(oldPath)
	if err != nil {
		fatal(err)
	}
	new, err := loadReport(newPath)
	if err != nil {
		fatal(err)
	}
	if runCompare(old, new, threshold, os.Stdout) > 0 {
		os.Exit(1)
	}
}
