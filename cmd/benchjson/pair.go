package main

// Paired benchmark runs: `benchjson -pair old.txt new.txt` reads two
// files of plain `go test -bench` output written by running an old and
// a new test binary alternately, one run of each per pair (`make
// bench-pair` builds and runs them). The i-th result of a benchmark in
// one file pairs with its i-th result in the other, so both samples of
// a pair were taken minutes apart at most, and a VM whose speed drifts
// between hours moves both alike. Per benchmark it prints the median
// ns/op of each side and how many pairs the new binary won.

import (
	"context"
	"fmt"
	"io"
	"os"
)

// pairRow is one benchmark's paired samples, summarized.
type pairRow struct {
	bench    string
	old, new float64 // median ns/op of each side's samples
	pairs    int     // samples paired in order
	wins     int     // pairs whose new sample took fewer ns/op
	oldOnly  bool    // measured by the old binary alone
	newOnly  bool    // measured by the new binary alone
}

// pairBenchmarks pairs each benchmark's results in order of appearance,
// the i-th old sample with the i-th new one, and summarizes every
// benchmark of either side: new ones in their order, then those only the
// old side measured. Samples beyond the shorter side's count are left
// out of both medians, so each median covers the same pairs.
func pairBenchmarks(old, new []Benchmark) []pairRow {
	qualifyProcs(old)
	qualifyProcs(new)
	group := func(bs []Benchmark) (map[string][]float64, []string) {
		by := make(map[string][]float64)
		var order []string
		for _, b := range bs {
			k := benchKey(b)
			if by[k] == nil {
				order = append(order, k)
			}
			by[k] = append(by[k], b.NsPerOp)
		}
		return by, order
	}
	oldBy, oldOrder := group(old)
	newBy, newOrder := group(new)
	var rows []pairRow
	for _, k := range newOrder {
		o, n := oldBy[k], newBy[k]
		if len(o) == 0 {
			rows = append(rows, pairRow{bench: k, new: quantile(n, 0.5), newOnly: true})
			continue
		}
		p := min(len(o), len(n))
		r := pairRow{bench: k, pairs: p}
		for i := 0; i < p; i++ {
			if n[i] < o[i] {
				r.wins++
			}
		}
		r.old, r.new = quantile(o[:p], 0.5), quantile(n[:p], 0.5)
		rows = append(rows, r)
	}
	for _, k := range oldOrder {
		if newBy[k] == nil {
			rows = append(rows, pairRow{bench: k, old: quantile(oldBy[k], 0.5), oldOnly: true})
		}
	}
	return rows
}

// writePairs prints the rows, one benchmark a line.
func writePairs(w io.Writer, rows []pairRow) {
	fmt.Fprintf(w, "  %-64s %14s    %-14s %7s  %s\n", "benchmark", "old ns/op", "new ns/op", "delta", "new won")
	for _, r := range rows {
		switch {
		case r.newOnly:
			fmt.Fprintf(w, "  %-64s %14s -> %-14.0f          (new only)\n", r.bench, "-", r.new)
		case r.oldOnly:
			fmt.Fprintf(w, "  %-64s %14.0f -> %-14s          (old only)\n", r.bench, r.old, "-")
		default:
			d := metricRow{old: r.old, new: r.new}.delta()
			fmt.Fprintf(w, "  %-64s %14.0f -> %-14.0f %7s  %d/%d\n", r.bench, r.old, r.new, fmtDelta(d), r.wins, r.pairs)
		}
	}
}

// pairMain is the -pair entry point.
func pairMain(oldPath, newPath string) {
	read := func(path string) []Benchmark {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		var rep Report
		if err := readBench(context.Background(), f, &rep); err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		if len(rep.Benchmarks) == 0 {
			fatal(fmt.Errorf("%s: no benchmark lines", path))
		}
		return rep.Benchmarks
	}
	old, new := read(oldPath), read(newPath)
	writePairs(os.Stdout, pairBenchmarks(old, new))
}
