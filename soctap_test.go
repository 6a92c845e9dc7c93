package soctap_test

import (
	"bytes"
	"strings"
	"testing"

	"soctap"
)

// TestPublicAPIFlow exercises the documented public flow end to end:
// load, optimize, inspect, verify, round-trip to the text format.
func TestPublicAPIFlow(t *testing.T) {
	design := soctap.D695()
	if len(design.Cores) != 10 {
		t.Fatalf("d695 has %d cores", len(design.Cores))
	}

	res, err := soctap.Optimize(design, 24, soctap.Options{Style: soctap.StyleTDCPerCore})
	if err != nil {
		t.Fatal(err)
	}
	if res.TestTime <= 0 || res.Volume <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.Partition.TotalWidth() > 24 {
		t.Errorf("partition %v over budget", res.Partition)
	}
	if err := soctap.VerifyPlan(res); err != nil {
		t.Errorf("verification failed: %v", err)
	}

	var buf bytes.Buffer
	if err := soctap.WriteSOC(&buf, design); err != nil {
		t.Fatal(err)
	}
	back, err := soctap.ParseSOC(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != design.Name {
		t.Errorf("round trip changed name to %q", back.Name)
	}
}

func TestPublicBenchmarks(t *testing.T) {
	m := soctap.AllBenchmarks()
	if len(m) != 6 {
		t.Errorf("%d benchmarks, want 6", len(m))
	}
	if _, err := soctap.System("System1"); err != nil {
		t.Error(err)
	}
	if _, err := soctap.System("bogus"); err == nil {
		t.Error("bogus system accepted")
	}
	if _, err := soctap.IndustrialCore("ckt-3"); err != nil {
		t.Error(err)
	}
	d := soctap.D2758()
	if !strings.HasPrefix(d.Name, "d2758") {
		t.Errorf("d2758 name %q", d.Name)
	}
}

func TestPublicPerCoreAnalysis(t *testing.T) {
	c, err := soctap.IndustrialCore("ckt-6")
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := soctap.SweepTDC(c, 32, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 9 {
		t.Fatalf("%d configs", len(cfgs))
	}
	tdc, err := soctap.EvalTDC(c, 63)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := soctap.EvalNoTDC(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Same 8 TAM wires; the sparse industrial core must compress well.
	if tdc.Time >= direct.Time {
		t.Errorf("TDC %d not faster than direct %d on ckt-6", tdc.Time, direct.Time)
	}
	tab, err := soctap.BuildTable(c, soctap.TableOptions{MaxWidth: 12})
	if err != nil {
		t.Fatal(err)
	}
	if !tab.Choose(soctap.StyleTDCPerCore, 12).Feasible {
		t.Error("table's per-core choice at width 12 infeasible")
	}
}

func TestPublicBaselines(t *testing.T) {
	s := soctap.D695()
	b18, err := soctap.VirtualTAM18(s, 16)
	if err != nil {
		t.Fatal(err)
	}
	b13, err := soctap.LFSRReseeding13(s, 16)
	if err != nil {
		t.Fatal(err)
	}
	b11, err := soctap.FixedWidth11(s, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []soctap.BaselineResult{b18, b13, b11} {
		if r.TestTime <= 0 || r.Volume <= 0 || r.Name == "" {
			t.Errorf("degenerate baseline result %+v", r)
		}
	}
}

func TestPublicTester(t *testing.T) {
	tester := soctap.Tester{Channels: 16, MemoryDepth: 1 << 20, FreqMHz: 50}
	if err := tester.Validate(); err != nil {
		t.Fatal(err)
	}
	if !tester.Fits(16 << 20) {
		t.Error("exact fit rejected")
	}
}

func TestPublicTechniqueSelection(t *testing.T) {
	c, err := soctap.IndustrialCore("ckt-6")
	if err != nil {
		t.Fatal(err)
	}
	sel, err := soctap.SelectTechniques(c, soctap.TableOptions{MaxWidth: 10}, []int{16})
	if err != nil {
		t.Fatal(err)
	}
	if !sel.PerWidth[10].Feasible {
		t.Error("no winner at width 10")
	}
	cfg, err := soctap.EvalDict(c, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Codec != soctap.CodecDict {
		t.Errorf("codec %q", cfg.Codec)
	}
}

func TestPublicCompaction(t *testing.T) {
	c := &soctap.Core{
		Name: "sparsecompact", Inputs: 10, ScanChains: []int{500},
		Patterns: 40, CareDensity: 0.005, Seed: 77,
	}
	ts, err := c.TestSet()
	if err != nil {
		t.Fatal(err)
	}
	out := soctap.CompactTestSet(ts)
	if out.Len() >= ts.Len() {
		t.Errorf("compaction did not shrink: %d -> %d", ts.Len(), out.Len())
	}
}
