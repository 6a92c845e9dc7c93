// Trade-off explorer: the per-core analysis of Section 2 of the paper.
// For one industrial core it sweeps the decompressor output width m,
// showing that test time is NOT monotonic in the number of wrapper
// chains — the observation motivating the co-optimization — and
// quantifies what the group-copy mode of the codec contributes.
//
// Run with: go run ./examples/tradeoff_explorer
package main

import (
	"fmt"
	"log"
	"os"

	"soctap"
	"soctap/internal/core"
	"soctap/internal/report"
	"soctap/internal/selenc"
)

func main() {
	ckt, err := soctap.IndustrialCore("ckt-9")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("core %s: %d scan cells in %d chains, %d patterns, %.1f%% care density\n\n",
		ckt.Name, ckt.ScanCells(), len(ckt.ScanChains), ckt.Patterns, 100*ckt.CareDensity)

	// Sweep the full w=10 band (m in [128, 255]): every m shares the
	// same 10-wire TAM interface, yet test time varies substantially.
	lo, hi, err := selenc.MBand(10)
	if err != nil {
		log.Fatal(err)
	}
	cfgs, err := soctap.SweepTDC(ckt, lo, hi)
	if err != nil {
		log.Fatal(err)
	}
	ms := make([]int, len(cfgs))
	times := make([]int64, len(cfgs))
	best, worst := 0, 0
	for i, cfg := range cfgs {
		ms[i], times[i] = lo+i, cfg.Time
		if cfg.Time < cfgs[best].Time {
			best = i
		}
		if cfg.Time > cfgs[worst].Time {
			worst = i
		}
	}
	if err := report.Series(os.Stdout,
		fmt.Sprintf("test time vs wrapper chains (w = 10, m in [%d,%d])", lo, hi),
		ms, times, 64, 10); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("best m = %d (%d cycles); worst m = %d (%d cycles); spread %.1f%%\n",
		ms[best], cfgs[best].Time, ms[worst], cfgs[worst].Time,
		100*float64(cfgs[worst].Time-cfgs[best].Time)/float64(cfgs[worst].Time))
	fmt.Println("=> test time is not monotonic in the wrapper-chain count: a naive")
	fmt.Println("   mid-band choice can be ~30% worse than the sweet spot, so the")
	fmt.Println("   SOC-level optimizer explores this trade-off per core.")

	// Build the full lookup table the optimizer uses: best configuration
	// per TAM width, direct vs compressed. The compressed side is the best
	// decompressor of at most u TAM wires, which the per-core style picks
	// from a table with no direct configuration.
	tab, err := soctap.BuildTable(ckt, soctap.TableOptions{MaxWidth: 16})
	if err != nil {
		log.Fatal(err)
	}
	tdcOnly := &soctap.Table{Opts: tab.Opts, NoTDC: make([]soctap.Config, len(tab.NoTDC)), TDCExact: tab.TDCExact}
	t := report.NewTable("\nbest configuration per TAM width",
		"width", "direct time", "TDC time", "TDC m", "speedup")
	for u := 4; u <= 16; u += 2 {
		tdc := tdcOnly.Choose(soctap.StyleTDCPerCore, u)
		t.Add(fmt.Sprint(u),
			fmt.Sprint(tab.NoTDC[u].Time),
			fmt.Sprint(tdc.Time),
			fmt.Sprint(tdc.M),
			report.Ratio(tab.NoTDC[u].Time, tdc.Time))
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Codec ablation: how much of the compression comes from group-copy
	// mode versus single-bit mode alone?
	m := ms[best]
	with, err := soctap.EvalTDC(ckt, m)
	if err != nil {
		log.Fatal(err)
	}
	without, err := core.EvalTDCNoGroupCopy(ckt, m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ngroup-copy ablation at m = %d:\n", m)
	fmt.Printf("  two-mode codec:      %8d cycles, %9d bits\n", with.Time, with.Volume)
	fmt.Printf("  single-bit only:     %8d cycles, %9d bits\n", without.Time, without.Volume)
	fmt.Printf("  group-copy saves %.1f%% time and %.1f%% volume on clustered slices\n",
		100*(1-float64(with.Time)/float64(without.Time)),
		100*(1-float64(with.Volume)/float64(without.Volume)))
}
