// Command benchjson converts the plain-text output of `go test -bench`
// (read from stdin) into a machine-readable JSON report, so benchmark
// runs can be archived and diffed across commits:
//
//	go test -run '^$' -bench BenchmarkOptimizeSearch -benchmem . | \
//	    go run ./cmd/benchjson -o BENCH_2026-08-05.json
//
// `make bench-json` wires the four headline benchmarks through this
// tool into a dated BENCH_<date>.json at the repository root.
//
// Archived reports diff with -compare (see compare.go):
//
//	benchjson -compare BENCH_old.json BENCH_new.json -threshold 0.10
//
// which exits 1 when any directional metric regressed past the
// threshold; `make bench-compare` runs it over the two most recent
// archives.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"soctap/internal/telemetry"
)

// Benchmark is one parsed result line. Standard -benchmem columns map
// to the named fields; any extra ReportMetric columns (e.g. the
// "cycles" a paper-artifact bench reports) land in Metrics.
type Benchmark struct {
	Name        string             `json:"name"`
	Pkg         string             `json:"pkg,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	PeakBytes   int64              `json:"peak_bytes,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
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

	// benchjson usually sits at the end of a pipe from a long `go test
	// -bench` run; SIGINT/SIGTERM abort the scan between lines instead
	// of leaving a truncated report behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep := Report{Date: time.Now().UTC().Format("2006-01-02")}
	rep.GoVersion, rep.VCSRevision = telemetry.BuildInfo()
	var pkg string
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "benchjson: interrupted:", ctx.Err())
			os.Exit(130)
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
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if len(rep.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines on stdin"))
	}
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
