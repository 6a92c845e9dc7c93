package main

// Paired benchmark runs: `benchjson -pair old.txt new.txt` reads two
// files of plain `go test -bench` output written by running an old and
// a new test binary alternately, one run of each per pair (`make
// bench-pair` builds and runs them). The i-th result of a benchmark in
// one file pairs with its i-th result in the other, so both samples of
// a pair were taken minutes apart at most, and a VM whose speed drifts
// between hours moves both alike. Per benchmark it prints the median
// ns/op of each side, how many pairs the new binary won, and the median
// B/op of each side (0 without -benchmem).

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
	oldB     float64 // median B/op of the old side's samples
	newB     float64 // median B/op of the new side's samples
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
	group := func(bs []Benchmark) (map[string][]Benchmark, []string) {
		by := make(map[string][]Benchmark)
		var order []string
		for _, b := range bs {
			k := benchKey(b)
			if by[k] == nil {
				order = append(order, k)
			}
			by[k] = append(by[k], b)
		}
		return by, order
	}
	median := func(bs []Benchmark, field func(Benchmark) float64) float64 {
		vs := make([]float64, len(bs))
		for i, b := range bs {
			vs[i] = field(b)
		}
		return quantile(vs, 0.5)
	}
	ns := func(b Benchmark) float64 { return b.NsPerOp }
	bytes := func(b Benchmark) float64 { return float64(b.BytesPerOp) }
	oldBy, oldOrder := group(old)
	newBy, newOrder := group(new)
	var rows []pairRow
	for _, k := range newOrder {
		o, n := oldBy[k], newBy[k]
		if len(o) == 0 {
			rows = append(rows, pairRow{bench: k, new: median(n, ns), newB: median(n, bytes), newOnly: true})
			continue
		}
		p := min(len(o), len(n))
		r := pairRow{bench: k, pairs: p}
		for i := 0; i < p; i++ {
			if n[i].NsPerOp < o[i].NsPerOp {
				r.wins++
			}
		}
		r.old, r.new = median(o[:p], ns), median(n[:p], ns)
		r.oldB, r.newB = median(o[:p], bytes), median(n[:p], bytes)
		rows = append(rows, r)
	}
	for _, k := range oldOrder {
		if o := oldBy[k]; newBy[k] == nil {
			rows = append(rows, pairRow{bench: k, old: median(o, ns), oldB: median(o, bytes), oldOnly: true})
		}
	}
	return rows
}

// writePairs prints the rows, one benchmark a line.
func writePairs(w io.Writer, rows []pairRow) {
	fmt.Fprintf(w, "  %-64s %14s    %-14s %7s  %-10s %12s    %s\n", "benchmark", "old ns/op", "new ns/op", "delta", "new won", "old B/op", "new B/op")
	for _, r := range rows {
		switch {
		case r.newOnly:
			fmt.Fprintf(w, "  %-64s %14s -> %-14.0f %-19s %12s -> %.0f\n", r.bench, "-", r.new, "        (new only)", "-", r.newB)
		case r.oldOnly:
			fmt.Fprintf(w, "  %-64s %14.0f -> %-14s %-19s %12.0f -> -\n", r.bench, r.old, "-", "        (old only)", r.oldB)
		default:
			d := metricRow{old: r.old, new: r.new}.delta()
			won := fmt.Sprintf("%d/%d", r.wins, r.pairs)
			fmt.Fprintf(w, "  %-64s %14.0f -> %-14.0f %7s  %-10s %12.0f -> %.0f\n", r.bench, r.old, r.new, fmtDelta(d), won, r.oldB, r.newB)
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
