// Industrial flow: the scenario the paper's introduction motivates — an
// SOC built from large compression-ready industrial cores whose raw test
// data (tens of Mbit here, tens of Gbit in production) blows past tester
// memory and test-time budgets.
//
// The example compares the three architecture styles of the paper's
// Figure 4 on System2, sizes the decompressor hardware, and checks the
// plan against an ATE memory budget.
//
// Run with: go run ./examples/industrial_flow   (takes ~1 minute)
package main

import (
	"fmt"
	"log"
	"os"

	"soctap"
	"soctap/internal/ate"
	"soctap/internal/report"
)

func main() {
	design, err := soctap.System("System2")
	if err != nil {
		log.Fatal(err)
	}
	vi := design.InitialVolume()
	fmt.Printf("design %s: %d industrial cores, %d scan cells, %s Mbit raw stimulus\n\n",
		design.Name, len(design.Cores), design.TotalScanCells(), report.Mbits(vi))

	const wtam = 32
	var cache soctap.Cache
	styles := []soctap.Style{soctap.StyleNoTDC, soctap.StyleTDCPerTAM, soctap.StyleTDCPerCore}

	tab := report.NewTable(fmt.Sprintf("architecture styles at W_TAM = %d", wtam),
		"style", "partition", "test time", "volume (Mbit)", "routed wires", "decompressors", "FFs", "gates")
	var results []*soctap.Result
	for _, style := range styles {
		res, err := soctap.Optimize(design, wtam, soctap.Options{Style: style, Cache: &cache})
		if err != nil {
			log.Fatal(err)
		}
		results = append(results, res)
		routed := res.Partition.TotalWidth()
		if style == soctap.StyleTDCPerTAM {
			routed = res.InternalWires // expanded buses cross the chip
		}
		tab.Add(style.String(), fmt.Sprint(res.Partition),
			fmt.Sprint(res.TestTime), report.Mbits(res.Volume),
			fmt.Sprint(routed), fmt.Sprint(res.Decompressors),
			fmt.Sprint(res.DecompFFs), fmt.Sprint(res.DecompGates))
	}
	if err := tab.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	noTDC, perCore := results[0], results[2]
	fmt.Printf("\ncompression reduces test time %s and ATE data %s\n",
		report.Ratio(noTDC.TestTime, perCore.TestTime),
		report.Ratio(noTDC.Volume, perCore.Volume))
	frac := float64(perCore.DecompGates+6*perCore.DecompFFs) / float64(design.TotalGates())
	fmt.Printf("decompressor hardware: %.2f%% of the design's %s gates (paper: ~1%%)\n",
		100*frac, report.Eng(int64(design.TotalGates())))

	// ATE sizing: a modest 8 Mbit/channel tester.
	tester := ate.Tester{Channels: wtam, MemoryDepth: 8 << 20, FreqMHz: 50}
	for _, res := range []*soctap.Result{noTDC, perCore} {
		status := "fits tester memory"
		if !tester.Fits(res.Volume) {
			status = fmt.Sprintf("needs %d memory reloads", tester.Reloads(res.Volume))
		}
		fmt.Printf("%-13s %8.3f ms on the tester, %10d bits/channel  -> %s\n",
			res.Style.String()+":", tester.Seconds(res.TestTime)*1e3,
			tester.DepthPerChannel(res.Volume), status)
	}

	// Compose the actual ATE vector image for the winning plan.
	img, err := soctap.BuildVectorImage(perCore)
	if err != nil {
		log.Fatal(err)
	}
	st := img.ComputeStats()
	fmt.Printf("\nATE vector image: depth %d vectors, %s Mbit stored across %d segments (%.1f%% channel utilization)\n",
		st.Depth, report.Mbits(st.StoredBits), st.Segments, 100*st.Utilization)

	// Confidence: simulate the winning plan bit-for-bit.
	fmt.Print("verifying the per-core plan in simulation... ")
	if err := soctap.VerifyPlan(perCore); err != nil {
		log.Fatal(err)
	}
	fmt.Println("ok")
}
