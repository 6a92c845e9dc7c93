// Command socopt optimizes the test architecture and schedule of a
// core-based SOC under a TAM-width budget, using co-optimized core-level
// test data compression (the DATE'08 method this library reproduces).
//
// Usage:
//
//	socopt -design d695 -width 32                         # built-in benchmark
//	socopt -design my.soc -width 24 -style tdc-per-core   # design file
//	socopt -design System2 -width 48 -verify              # plus bit-level simulation
//
// Styles: no-tdc (direct access), tdc-per-tam (decompressor per TAM),
// tdc-per-core (the proposed scheme; default).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"soctap/internal/ate"
	"soctap/internal/core"
	"soctap/internal/report"
	"soctap/internal/sim"
	"soctap/internal/soc"
	"soctap/internal/telemetry"
	"soctap/internal/units"
)

func main() {
	design := flag.String("design", "", "built-in design name (d695, d2758, System1..System4) or path to a .soc file")
	width := flag.Int("width", 32, "total TAM width W_TAM in wires")
	styleName := flag.String("style", "tdc-per-core", "architecture style: no-tdc, tdc-per-tam, tdc-per-core")
	verify := flag.Bool("verify", false, "verify the plan by cycle-accurate simulation, replaying its cores on every CPU (GOMAXPROCS)")
	maxTAMs := flag.Int("max-tams", 0, "cap on the number of TAM buses (0 = number of cores)")
	bandSamples := flag.Int("band-samples", 0, "m values sampled per codeword-width band (0 = default 48, -1 = exhaustive)")
	workers := flag.Int("workers", 0, "evaluation-engine worker goroutines (0 = one per CPU, 1 = sequential; results are identical)")
	evalWindow := flag.Int("eval-window", 0, "evaluator streaming window in cubes (0 = automatic by core size, -1 = stream the whole set as one window; results are identical)")
	ateDepth := flag.Int64("ate-depth", 0, "ATE vector memory depth per channel in bits (0 = unlimited)")
	ateFreq := flag.Float64("ate-mhz", 50, "ATE frequency in MHz for wall-clock reporting")
	gantt := flag.Bool("gantt", false, "draw the schedule as an ASCII Gantt chart")
	techsel := flag.Bool("techsel", false, "extend per-core choices with dictionary coding (technique selection)")
	tableCacheDir := flag.String("table-cache", "", "directory for the persistent lookup-table cache (reused across runs)")
	tableCacheMem := flag.String("table-cache-mem", "", "in-memory table cache budget, e.g. 64M or 2GiB (empty = unbounded)")
	tableCacheSize := flag.String("table-cache-size", "", "on-disk table cache budget under -table-cache, e.g. 512M (empty = unbounded)")
	jsonOut := flag.String("json", "", "also write the plan as JSON to this file ('-' for stdout)")
	telemetryOut := flag.String("telemetry", "", "write the telemetry snapshot (phase spans + counters) as JSON to this file ('-' for stdout)")
	telemetryText := flag.Bool("telemetry-text", false, "render the telemetry snapshot as text on stderr after the run")
	metricsAddr := flag.String("metrics-addr", "", "serve live /metrics, /events, /healthz and /debug/pprof on this address (e.g. :9090) while the run is in flight")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file (taken at exit)")
	traceOut := flag.String("trace", "", "write a runtime execution trace to this file")
	flag.Parse()

	if *design == "" {
		flag.Usage()
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel the run cooperatively: the search unwinds
	// with ctx.Err(), the telemetry snapshot is still flushed (with a
	// run.cancelled marker), and the exit code is non-zero. A second
	// signal kills the process immediately (stop() restores the default
	// handlers once the first one lands).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	stopProfiles, err := telemetry.StartProfiles(*cpuProfile, *memProfile, *traceOut)
	if err != nil {
		fatal(err)
	}
	var sink *telemetry.Sink
	if *telemetryOut != "" || *telemetryText || *metricsAddr != "" {
		sink = telemetry.New()
	}
	var server *telemetry.Server
	if *metricsAddr != "" {
		server, err = telemetry.StartServer(*metricsAddr, sink)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "socopt: serving metrics on http://%s/metrics\n", server.Addr())
	}
	// fail is fatal plus the interrupted-run epilogue: cancelled runs
	// mark and flush the telemetry snapshot before exiting 130.
	fail := func(err error) {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			sink.Counter("run.cancelled").Inc()
			sink.PublishRun("socopt", "cancelled")
			sink.Flush()
			writeTelemetry(sink, *telemetryOut, *telemetryText)
			server.ShutdownTimeout(2 * time.Second)
			fmt.Fprintln(os.Stderr, "socopt: interrupted:", err)
			os.Exit(130)
		}
		fatal(err)
	}
	sink.PublishRun("socopt", "start")

	pt := sink.Span("parse").Begin()
	s, err := loadDesign(*design)
	pt.End()
	if err != nil {
		fatal(err)
	}
	style, err := parseStyle(*styleName)
	if err != nil {
		fatal(err)
	}
	cache, err := tableCache(*tableCacheDir, *tableCacheMem, *tableCacheSize)
	if err != nil {
		fmt.Fprintln(os.Stderr, "socopt:", err)
		os.Exit(2)
	}

	res, err := core.OptimizeContext(ctx, s, *width, core.Options{
		Style:      style,
		MaxTAMs:    *maxTAMs,
		Tables:     core.TableOptions{BandSamples: *bandSamples, EvalWindow: *evalWindow},
		EnableDict: *techsel,
		Workers:    *workers,
		Cache:      cache,
		Telemetry:  sink.Root(),
	})
	if err != nil {
		fail(err)
	}
	printResult(res, ate.Tester{Channels: *width, MemoryDepth: *ateDepth, FreqMHz: *ateFreq})

	if *gantt {
		items := make([]report.GanttItem, 0, len(res.Choices))
		for _, ch := range res.Choices {
			items = append(items, report.GanttItem{
				Label: ch.Core, Lane: ch.Bus,
				Start: ch.Start, End: ch.Start + ch.Config.Time,
			})
		}
		fmt.Println()
		if err := report.Gantt(os.Stdout, "schedule", res.Partition, items, 72); err != nil {
			fatal(err)
		}
	}

	if *jsonOut != "" {
		w := os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := res.WritePlan(w); err != nil {
			fatal(err)
		}
	}

	if *verify {
		fmt.Print("verifying plan by cycle-accurate simulation... ")
		vt := sink.Span("verify").Begin()
		err := sim.VerifyPlan(res)
		vt.End()
		if err != nil {
			fatal(err)
		}
		fmt.Println("ok: all stimuli delivered bit-exactly, volumes and test times match")
	}

	if err := stopProfiles(); err != nil {
		fatal(err)
	}
	sink.PublishRun("socopt", "done")
	sink.Flush()
	writeTelemetry(sink, *telemetryOut, *telemetryText)
	// Allow a final scrape, then stop the live endpoint.
	if serr := server.ShutdownTimeout(2 * time.Second); serr != nil {
		fmt.Fprintln(os.Stderr, "socopt: metrics server:", serr)
	}
}

// writeTelemetry flushes the telemetry snapshot to the -telemetry file
// and/or as -telemetry-text on stderr. A nil sink is a no-op. It is
// called on the success path and on interruption, so a cancelled run
// still produces its (marked) run report.
func writeTelemetry(sink *telemetry.Sink, out string, text bool) {
	if sink == nil {
		return
	}
	sn := sink.Snapshot()
	if out != "" {
		w := os.Stdout
		if out != "-" {
			f, err := os.Create(out)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := sn.WriteJSON(w); err != nil {
			fatal(err)
		}
	}
	if text {
		if err := sn.Render(os.Stderr); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "socopt:", err)
	os.Exit(1)
}

// tableCache builds the run's table cache from the -table-cache,
// -table-cache-mem and -table-cache-size flags; with none of them set
// the run has no cache (nil). Corrupt entries and failed write-backs
// are reported on stderr.
func tableCache(dir, mem, size string) (*core.Cache, error) {
	memBytes, err := units.ParseBytes(mem)
	if err != nil {
		return nil, fmt.Errorf("-table-cache-mem: %w", err)
	}
	diskBytes, err := units.ParseBytes(size)
	if err != nil {
		return nil, fmt.Errorf("-table-cache-size: %w", err)
	}
	if dir == "" && memBytes == 0 && diskBytes == 0 {
		return nil, nil
	}
	cache, err := core.NewCache(dir, memBytes, diskBytes)
	if err != nil {
		return nil, fmt.Errorf("-table-cache-size: %w", err)
	}
	cache.SetWarn(func(msg string) { fmt.Fprintln(os.Stderr, "socopt:", msg) })
	return cache, nil
}

func loadDesign(name string) (*soc.SOC, error) {
	if s, ok := soc.Benchmark(name); ok {
		return s, nil
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, fmt.Errorf("%q is not a built-in design and cannot be opened: %w", name, err)
	}
	defer f.Close()
	return soc.Parse(f)
}

func parseStyle(name string) (core.Style, error) {
	for _, s := range []core.Style{core.StyleNoTDC, core.StyleTDCPerTAM, core.StyleTDCPerCore} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown style %q", name)
}

func printResult(res *core.Result, tester ate.Tester) {
	fmt.Printf("design %s: %d cores, style %s, W_TAM = %d\n",
		res.SOC.Name, len(res.SOC.Cores), res.Style, res.WTAM)
	fmt.Printf("TAM partition: %v\n", res.Partition)
	fmt.Printf("test time: %d cycles", res.TestTime)
	if sec := tester.Seconds(res.TestTime); sec > 0 {
		fmt.Printf(" (%.3f ms at %.0f MHz)", sec*1e3, tester.FreqMHz)
	}
	fmt.Println()
	fmt.Printf("ATE stimulus volume: %s Mbit (%d bits), %d bits per channel\n",
		report.Mbits(res.Volume), res.Volume, tester.DepthPerChannel(res.Volume))
	if tester.MemoryDepth > 0 {
		if tester.Fits(res.Volume) {
			fmt.Println("fits ATE vector memory without reload")
		} else {
			fmt.Printf("requires %d ATE memory reloads\n", tester.Reloads(res.Volume))
		}
	}
	if res.Decompressors > 0 {
		fmt.Printf("decompressors: %d (%d flip-flops, %d gates total)\n",
			res.Decompressors, res.DecompFFs, res.DecompGates)
	}
	fmt.Printf("CPU: %.3fs tables + %.3fs architecture search\n", res.TableSeconds, res.CPUSeconds)

	tab := report.NewTable("\nper-core plan (sorted by start time)",
		"core", "bus", "start", "cycles", "mode", "w", "m", "volume (bits)")
	for _, ch := range res.Choices {
		mode := "direct"
		if ch.Config.UseTDC {
			mode = ch.Config.Codec
		}
		tab.Add(ch.Core, fmt.Sprint(ch.Bus), fmt.Sprint(ch.Start),
			fmt.Sprint(ch.Config.Time), mode,
			fmt.Sprint(ch.Config.Width), fmt.Sprint(ch.Config.M),
			fmt.Sprint(ch.Config.Volume))
	}
	if err := tab.Render(os.Stdout); err != nil {
		fatal(err)
	}
}
