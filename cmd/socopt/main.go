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
	"flag"
	"fmt"
	"os"

	"soctap/internal/ate"
	"soctap/internal/cli"
	"soctap/internal/core"
	"soctap/internal/report"
	"soctap/internal/sim"
	"soctap/internal/soc"
)

func main() {
	design := flag.String("design", "", "built-in design name (d695, d2758, System1..System4) or path to a .soc file")
	width := flag.Int("width", 32, "total TAM width W_TAM in wires")
	styleName := flag.String("style", "tdc-per-core", "architecture style: no-tdc, tdc-per-tam, tdc-per-core")
	verify := flag.Bool("verify", false, "verify the plan by cycle-accurate simulation, replaying its cores on every CPU (GOMAXPROCS)")
	maxTAMs := flag.Int("max-tams", 0, "cap on the number of TAM buses (0 = number of cores)")
	bandSamples := flag.Int("band-samples", 0, "m values sampled per codeword-width band (0 = default 48, -1 = exhaustive)")
	ateDepth := flag.Int64("ate-depth", 0, "ATE vector memory depth per channel in bits (0 = unlimited)")
	ateFreq := flag.Float64("ate-mhz", 50, "ATE frequency in MHz for wall-clock reporting")
	gantt := flag.Bool("gantt", false, "draw the schedule as an ASCII Gantt chart")
	techsel := flag.Bool("techsel", false, "extend per-core choices with dictionary coding (technique selection)")
	jsonOut := flag.String("json", "", "also write the plan as JSON to this file ('-' for stdout)")
	shared := cli.Register(flag.CommandLine)
	flag.Parse()

	if *design == "" {
		flag.Usage()
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel the run cooperatively: the search unwinds
	// with ctx.Err(), and End still flushes the telemetry snapshot (with
	// a run.cancelled marker) before exiting 130.
	ctx, run := shared.Start("socopt", nil, false)

	pt := run.Sink.Span("parse").Begin()
	s, err := loadDesign(*design)
	pt.End()
	if err != nil {
		run.End(err)
	}
	style, err := parseStyle(*styleName)
	if err != nil {
		run.End(err)
	}

	res, err := core.OptimizeContext(ctx, s, *width, core.Options{
		Style:      style,
		MaxTAMs:    *maxTAMs,
		Tables:     core.TableOptions{BandSamples: *bandSamples, Workers: shared.Workers},
		EnableDict: *techsel,
		Cache:      run.Cache,
		Telemetry:  run.Sink.Root(),
	})
	if err != nil {
		run.End(err)
	}
	if err := printResult(res, ate.Tester{Channels: *width, MemoryDepth: *ateDepth, FreqMHz: *ateFreq}); err != nil {
		run.End(err)
	}

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
			run.End(err)
		}
	}

	if *jsonOut != "" {
		w := os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				run.End(err)
			}
			defer f.Close()
			w = f
		}
		if err := res.WritePlan(w); err != nil {
			run.End(err)
		}
	}

	if *verify {
		fmt.Print("verifying plan by cycle-accurate simulation... ")
		vt := run.Sink.Span("verify").Begin()
		err := sim.VerifyPlan(res)
		vt.End()
		if err != nil {
			run.End(err)
		}
		fmt.Println("ok: all stimuli delivered bit-exactly, volumes and test times match")
	}
	run.End(nil)
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

func printResult(res *core.Result, tester ate.Tester) error {
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
	return tab.Render(os.Stdout)
}
