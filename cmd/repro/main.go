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
// subsystem counters, latency histograms) as deterministic JSON;
// -telemetry-text renders the same snapshot as tables on stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"soctap/internal/cli"
	"soctap/internal/experiments"
	"soctap/internal/telemetry"
)

func main() {
	out := flag.String("o", "", "write output to this file instead of stdout")
	quiet := flag.Bool("quiet", false, "suppress per-phase progress lines on stderr")
	shared := cli.Register(flag.CommandLine)
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

	// SIGINT/SIGTERM cancel the experiment run cooperatively: in-flight
	// Optimize/BuildTable calls unwind with ctx.Err(), and End still
	// flushes the telemetry gathered so far (with a run.cancelled
	// marker) before exiting 130. The sink is on for the progress lines
	// too, so only a quiet run with no report or endpoint runs without
	// instrumentation.
	ctx, run := shared.Start("repro", !*quiet, *quiet)
	if !*quiet {
		progress(run.Sink)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			run.End(err)
		}
		defer f.Close()
		w = f
	}
	e := &experiments.Engine{Cache: run.Cache, Workers: shared.Workers, Telemetry: run.Sink}
	run.End(runExperiments(ctx, e, w, name))
}

// progress prints a stderr line per artifact, per optimizer phase and
// per-core table build as each span ends; deeper search internals
// (refine/k-sweep cycles) stay out of the progress stream.
func progress(sink *telemetry.Sink) {
	start := time.Now()
	sink.SetSpanHook(func(path string, d time.Duration) {
		last := path[strings.LastIndexByte(path, '/')+1:]
		if strings.Count(path, "/") <= 1 || strings.HasPrefix(last, "core:") {
			fmt.Fprintf(os.Stderr, "repro: [%7.1fs] %-44s %8.3fs\n",
				time.Since(start).Seconds(), path, d.Seconds())
		}
	})
}

// runExperiments runs one named experiment, or all of them in sequence.
func runExperiments(ctx context.Context, e *experiments.Engine, w io.Writer, name string) error {
	if name != "all" {
		return runOne(ctx, e, w, name)
	}
	for _, n := range []string{"fig2", "fig3", "fig4", "tab1", "tab2", "tab3", "ablations", "techsel", "seeds", "verify"} {
		if err := runOne(ctx, e, w, n); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
