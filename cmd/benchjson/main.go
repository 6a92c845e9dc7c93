// Command benchjson converts the plain-text output of `go test -bench`
// (read from stdin) into a machine-readable JSON report, so benchmark
// runs can be archived and diffed across commits:
//
//	go test -run '^$' -bench BenchmarkOptimizeSearch -benchmem . | \
//	    go run ./cmd/benchjson -o BENCH_2026-08-05.json
//
// `make bench-json` wires the headline benchmarks through this tool
// into a dated BENCH_<date>.json at the repository root. Repeated
// results of one benchmark (go test -count N) are stored as one entry:
// the median of every field, the sample count and the quartiles of
// ns/op.
//
// Archived reports diff with -compare (see compare.go):
//
//	benchjson -compare BENCH_old.json BENCH_new.json -threshold 0.10
//
// which exits 1 when any directional metric regressed past the
// threshold; `make bench-compare` runs it over the two most recent
// archives. Two builds run alternately pair with -pair (see pair.go):
//
//	benchjson -pair old.txt new.txt
//
// prints each benchmark's median ns/op on both sides and how many
// pairs the new build won; `make bench-pair` builds and runs them.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"soctap/internal/telemetry"
)

// Benchmark is one parsed result line, or the summary of a benchmark's
// repeated lines. Standard -benchmem columns map to the named fields;
// any extra ReportMetric columns (e.g. the "cycles" a paper-artifact
// bench reports) land in Metrics. In a summary every field is the
// median over Samples lines, and NsPerOpQ1/NsPerOpQ3 are the quartiles
// of ns/op.
type Benchmark struct {
	Name        string             `json:"name"`
	Pkg         string             `json:"pkg,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	PeakBytes   int64              `json:"peak_bytes,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	Samples     int                `json:"samples,omitempty"`
	NsPerOpQ1   float64            `json:"ns_per_op_q1,omitempty"`
	NsPerOpQ3   float64            `json:"ns_per_op_q3,omitempty"`
	// procs is the GOMAXPROCS the result was measured at: its name's
	// -N suffix, or 1 when go test printed none.
	procs int
}

// Report is the file layout: run metadata plus results in input order.
// GoVersion and VCSRevision carry the same attribution that telemetry
// snapshots carry in their meta block, so an archive is traceable to
// the commit that produced it.
type Report struct {
	Date        string      `json:"date"`
	GoOS        string      `json:"goos"`
	GoArch      string      `json:"goarch"`
	CPU         string      `json:"cpu,omitempty"`
	GoVersion   string      `json:"go_version,omitempty"`
	VCSRevision string      `json:"vcs_revision,omitempty"`
	Benchmarks  []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	merge := flag.Bool("merge", false,
		"merge into an existing -o report: same (pkg, name) results are replaced, new ones appended")
	compare := flag.Bool("compare", false,
		"compare two archived reports (old.json new.json) instead of reading bench output; exit 1 on regression")
	pair := flag.Bool("pair", false,
		"pair two files of alternated bench output (old.txt new.txt): per benchmark both medians and the pairs new won")
	threshold := flag.Float64("threshold", 0.10,
		"relative regression threshold for -compare (0.10 = 10%)")
	flag.Parse()

	if *compare {
		// Flags may trail the two file arguments (the repo's usual
		// "verb then options" shape); re-parse the remainder.
		args := flag.Args()
		if len(args) > 2 {
			if err := flag.CommandLine.Parse(args[2:]); err != nil {
				os.Exit(2)
			}
			args = args[:2]
		}
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -compare old.json new.json [-threshold 0.10]")
			os.Exit(2)
		}
		compareMain(args[0], args[1], *threshold)
		return
	}
	if *pair {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -pair old.txt new.txt")
			os.Exit(2)
		}
		pairMain(flag.Arg(0), flag.Arg(1))
		return
	}

	// benchjson usually sits at the end of a pipe from a long `go test
	// -bench` run; SIGINT/SIGTERM abort the scan between lines instead
	// of leaving a truncated report behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep := Report{Date: time.Now().UTC().Format("2006-01-02")}
	rep.GoVersion, rep.VCSRevision = telemetry.BuildInfo()
	if err := readBench(ctx, os.Stdin, &rep); err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "benchjson: interrupted:", ctx.Err())
			os.Exit(130)
		}
		fatal(err)
	}
	if len(rep.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines on stdin"))
	}
	rep.Benchmarks = summarize(rep.Benchmarks)
	qualifyProcs(rep.Benchmarks)
	if *merge && *out != "" {
		if err := mergeExisting(*out, &rep); err != nil {
			fatal(err)
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		fatal(err)
	}
}

// readBench reads plain `go test -bench` output from r into rep: the
// goos, goarch and cpu header lines, and every result line stamped with
// the package of the pkg line before it. It stops between lines once
// ctx is done.
func readBench(ctx context.Context, r io.Reader, rep *Report) error {
	var pkg string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if err := ctx.Err(); err != nil {
			return err
		}
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.GoOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.GoArch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			// One bench-json pipe spans several packages; the pkg line
			// precedes that package's benchmark lines, so track it and
			// stamp each result.
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseLine(line)
			if ok {
				b.Pkg = pkg
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	return sc.Err()
}

// parseLine parses one result line of the form
//
//	BenchmarkName-8   100   12345 ns/op   67 B/op   8 allocs/op   9.0 unit
//
// Unparseable lines are skipped rather than fatal, so compiler noise in
// the stream is harmless.
func parseLine(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: f[0], Iterations: iters, procs: 1}
	// Strip the -GOMAXPROCS suffix from the name (qualifyProcs puts it
	// back where it is needed).
	if i := strings.LastIndexByte(b.Name, '-'); i > 0 {
		if n, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name, b.procs = b.Name[:i], n
		}
	}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = int64(v)
		case "allocs/op":
			b.AllocsPerOp = int64(v)
		case "peak-bytes":
			// High-water heap mark reported by the streaming-evaluator
			// benches; a first-class field so memory trajectories diff
			// cleanly across commits.
			b.PeakBytes = int64(v)
		default:
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[unit] = v
		}
	}
	return b, true
}

// summarize folds the repeated results of each (pkg, name, GOMAXPROCS)
// into one entry, in order of first appearance: the median of every
// field and metric, the sample count, and for several samples the
// quartiles of ns/op.
func summarize(bs []Benchmark) []Benchmark {
	type key struct {
		pkg, name string
		procs     int
	}
	groups := make(map[key][]Benchmark)
	var order []key
	for _, b := range bs {
		k := key{b.Pkg, b.Name, b.procs}
		if groups[k] == nil {
			order = append(order, k)
		}
		groups[k] = append(groups[k], b)
	}
	out := make([]Benchmark, 0, len(order))
	for _, k := range order {
		g := groups[k]
		b := g[0]
		b.Samples = len(g)
		if len(g) > 1 {
			values := func(field func(Benchmark) float64) []float64 {
				vs := make([]float64, len(g))
				for i, s := range g {
					vs[i] = field(s)
				}
				return vs
			}
			median := func(field func(Benchmark) int64) int64 {
				return int64(math.Round(quantile(values(func(s Benchmark) float64 { return float64(field(s)) }), 0.5)))
			}
			ns := values(func(s Benchmark) float64 { return s.NsPerOp })
			b.NsPerOp, b.NsPerOpQ1, b.NsPerOpQ3 = quantile(ns, 0.5), quantile(ns, 0.25), quantile(ns, 0.75)
			b.Iterations = median(func(s Benchmark) int64 { return s.Iterations })
			b.BytesPerOp = median(func(s Benchmark) int64 { return s.BytesPerOp })
			b.AllocsPerOp = median(func(s Benchmark) int64 { return s.AllocsPerOp })
			b.PeakBytes = median(func(s Benchmark) int64 { return s.PeakBytes })
			if b.Metrics != nil {
				b.Metrics = make(map[string]float64, len(g[0].Metrics))
				for unit := range g[0].Metrics {
					b.Metrics[unit] = quantile(values(func(s Benchmark) float64 { return s.Metrics[unit] }), 0.5)
				}
			}
		}
		out = append(out, b)
	}
	return out
}

// quantile returns the p-quantile of vs, interpolating linearly between
// the two nearest ranks (so the median of an even count is the mean of
// the middle two). It sorts vs in place.
func quantile(vs []float64, p float64) float64 {
	sort.Float64s(vs)
	h := p * float64(len(vs)-1)
	lo := int(h)
	if lo+1 >= len(vs) {
		return vs[lo]
	}
	return vs[lo] + (h-float64(lo))*(vs[lo+1]-vs[lo])
}

// qualifyProcs names each result of a benchmark that one run measured
// at several GOMAXPROCS values (go test -cpu 1,2) with its -N suffix, so
// each value keeps a name of its own and -compare pairs like with like.
// A benchmark measured at one value keeps its bare name, so archives
// written before any -cpu rung still line up.
func qualifyProcs(bs []Benchmark) {
	procs := make(map[string]map[int]bool)
	for _, b := range bs {
		k := b.Pkg + " " + b.Name
		if procs[k] == nil {
			procs[k] = make(map[int]bool)
		}
		procs[k][b.procs] = true
	}
	for i, b := range bs {
		if len(procs[b.Pkg+" "+b.Name]) > 1 {
			bs[i].Name = fmt.Sprintf("%s-%d", b.Name, b.procs)
		}
	}
}

// mergeExisting folds a prior report at path into rep: prior results
// whose (pkg, name) was not re-run this time are kept, in their
// original order, ahead of the new results. A missing file is not an
// error — the merge degenerates to a plain write.
func mergeExisting(path string, rep *Report) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var old Report
	if err := json.Unmarshal(data, &old); err != nil {
		return fmt.Errorf("merge target %s: %w", path, err)
	}
	rerun := make(map[string]bool, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		rerun[b.Pkg+" "+b.Name] = true
	}
	kept := old.Benchmarks[:0]
	for _, b := range old.Benchmarks {
		if !rerun[b.Pkg+" "+b.Name] {
			kept = append(kept, b)
		}
	}
	rep.Benchmarks = append(kept, rep.Benchmarks...)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
