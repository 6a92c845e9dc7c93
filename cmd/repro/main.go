// Command repro regenerates the tables and figures of the paper's
// evaluation section (DATE 2008). Each experiment prints its artifact in
// the paper's layout together with the shape claims being reproduced.
//
// Usage:
//
//	repro [-o output.txt] [-workers N] {fig2|fig3|fig4|tab1|tab2|tab3|all}
//	repro tab3 -telemetry t.json -table-cache .tables
//	repro all -cpuprofile cpu.out -quiet
//
// Flags may also follow the experiment name (the usual
// "verb then options" CLI shape); they are re-parsed after the verb.
//
// Expect `all` to take a few minutes on one CPU: the industrial-core
// lookup tables dominate, and are shared across experiments. The (w, m)
// evaluations fan out over one worker per CPU by default; -workers
// bounds the pool (results are bit-identical for every setting).
//
// Unless -quiet is given, per-phase progress lines go to stderr as each
// artifact, optimizer phase, and per-core table build completes.
// -telemetry writes the full machine-readable run report (phase spans,
// subsystem counters, worker timings) as deterministic JSON;
// -telemetry-text renders the same snapshot as tables on stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"soctap/internal/core"
	"soctap/internal/experiments"
	"soctap/internal/telemetry"
	"soctap/internal/units"
)

func main() {
	out := flag.String("o", "", "write output to this file instead of stdout")
	workers := flag.Int("workers", 0, "evaluation-engine worker goroutines (0 = one per CPU, 1 = sequential; results are identical)")
	evalWindow := flag.Int("eval-window", 0, "evaluator streaming window in cubes (0 = automatic by core size, -1 = stream the whole set as one window; results are identical)")
	tableCache := flag.String("table-cache", "", "directory for the persistent lookup-table cache (reused across runs)")
	tableCacheMem := flag.String("table-cache-mem", "", "in-memory table cache budget, e.g. 64M or 2GiB (empty = unbounded)")
	tableCacheSize := flag.String("table-cache-size", "", "on-disk table cache budget under -table-cache, e.g. 512M (empty = unbounded)")
	telemetryOut := flag.String("telemetry", "", "write the telemetry snapshot (phase spans + counters) as JSON to this file ('-' for stdout)")
	telemetryText := flag.Bool("telemetry-text", false, "render the telemetry snapshot as text on stderr after the run")
	metricsAddr := flag.String("metrics-addr", "", "serve live /metrics, /events, /healthz and /debug/pprof on this address (e.g. :9090) while the run is in flight")
	quiet := flag.Bool("quiet", false, "suppress per-phase progress lines on stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file (taken at exit)")
	traceOut := flag.String("trace", "", "write a runtime execution trace to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: repro [flags] {fig2|fig3|fig4|tab1|tab2|tab3|ablations|techsel|seeds|verify|all} [flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	// Accept flags after the experiment name too: take the verb, then
	// re-parse the remainder (flag parsing stops at the first
	// positional argument).
	name := flag.Arg(0)
	if flag.NArg() > 1 {
		if err := flag.CommandLine.Parse(flag.Args()[1:]); err != nil {
			os.Exit(2)
		}
		if flag.NArg() != 0 {
			flag.Usage()
			os.Exit(2)
		}
	}
	experiments.SetWorkers(*workers)
	experiments.SetEvalWindow(*evalWindow)
	memBytes, err := units.ParseBytes(*tableCacheMem)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro: -table-cache-mem:", err)
		os.Exit(2)
	}
	diskBytes, err := units.ParseBytes(*tableCacheSize)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro: -table-cache-size:", err)
		os.Exit(2)
	}
	cache, err := core.NewCache(*tableCache, memBytes, diskBytes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro: -table-cache-size:", err)
		os.Exit(2)
	}
	cache.SetWarn(func(msg string) { fmt.Fprintln(os.Stderr, "repro:", msg) })
	experiments.SetTableCache(cache)

	// SIGINT/SIGTERM cancel the experiment run cooperatively: in-flight
	// Optimize/BuildTable calls unwind with ctx.Err(), the telemetry
	// snapshot gathered so far is still flushed (with a run.cancelled
	// marker), and the exit code is non-zero. A second signal kills the
	// process immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	experiments.SetContext(ctx)

	stopProfiles, err := telemetry.StartProfiles(*cpuProfile, *memProfile, *traceOut)
	if err != nil {
		fatal(err)
	}

	// The sink is on whenever any consumer wants it: progress lines
	// (default), the JSON report, the text report, or the live metrics
	// endpoint. A fully quiet run with no report keeps it nil —
	// instrumentation then costs nothing.
	var sink *telemetry.Sink
	if *telemetryOut != "" || *telemetryText || *metricsAddr != "" || !*quiet {
		sink = telemetry.New()
		experiments.SetTelemetry(sink)
	}
	var server *telemetry.Server
	if *metricsAddr != "" {
		server, err = telemetry.StartServer(*metricsAddr, sink)
		if err != nil {
			fatal(err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "repro: serving metrics on http://%s/metrics\n", server.Addr())
		}
	}
	if sink != nil && !*quiet {
		start := time.Now()
		sink.SetSpanHook(func(path string, d time.Duration) {
			// Per-artifact and per-phase lines plus per-core table
			// builds; deeper search internals (refine/k-sweep cycles)
			// stay out of the progress stream.
			last := path[strings.LastIndexByte(path, '/')+1:]
			if strings.Count(path, "/") <= 1 || strings.HasPrefix(last, "core:") {
				fmt.Fprintf(os.Stderr, "repro: [%7.1fs] %-44s %8.3fs\n",
					time.Since(start).Seconds(), path, d.Seconds())
			}
		})
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	sink.PublishRun("repro", "start")
	err = runExperiments(w, name)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	cancelled := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	if cancelled {
		sink.Counter("run.cancelled").Inc()
		sink.PublishRun("repro", "cancelled")
	} else if err == nil {
		sink.PublishRun("repro", "done")
	}
	// Drain the async progress hook before writing final reports, so
	// every span line lands on stderr ahead of the summary (and the
	// single-worker progress stream stays byte-identical to the old
	// synchronous hook).
	sink.Flush()

	// Flush the snapshot before judging err: an interrupted run still
	// produces its (marked) report of the work completed so far.
	if sink != nil && (err == nil || cancelled) {
		sn := sink.Snapshot()
		if *telemetryOut != "" {
			tw := os.Stdout
			if *telemetryOut != "-" {
				f, err := os.Create(*telemetryOut)
				if err != nil {
					fatal(err)
				}
				defer f.Close()
				tw = f
			}
			if err := sn.WriteJSON(tw); err != nil {
				fatal(err)
			}
		}
		if *telemetryText {
			if err := sn.Render(os.Stderr); err != nil {
				fatal(err)
			}
		}
	}
	// Give the live endpoint a moment to serve final scrapes, then stop
	// it on every exit path (streamed /events clients are cut off).
	if serr := server.ShutdownTimeout(2 * time.Second); serr != nil && !*quiet {
		fmt.Fprintln(os.Stderr, "repro: metrics server:", serr)
	}
	if cancelled {
		fmt.Fprintln(os.Stderr, "repro: interrupted:", err)
		os.Exit(130)
	}
	if err != nil {
		fatal(err)
	}
}

// runExperiments runs one named experiment, or all of them in sequence.
func runExperiments(w io.Writer, name string) error {
	if name != "all" {
		return run(w, name)
	}
	for _, n := range []string{"fig2", "fig3", "fig4", "tab1", "tab2", "tab3", "ablations", "techsel", "seeds", "verify"} {
		if err := run(w, n); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repro:", err)
	os.Exit(1)
}
