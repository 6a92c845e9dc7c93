package core

import (
	"reflect"
	"slices"
	"testing"

	"soctap/internal/soc"
)

// testSOC builds a small SOC with compression-friendly sparse cores and
// one dense core, mimicking the mixed benchmark structure.
func testSOC() *soc.SOC {
	mk := func(name string, nChains, chainLen, pat int, density float64, seed int64) *soc.Core {
		chains := make([]int, nChains)
		for i := range chains {
			chains[i] = chainLen
		}
		return &soc.Core{
			Name: name, Inputs: 16, Outputs: 12,
			ScanChains: chains, Patterns: pat,
			CareDensity: density, Clustering: 0.8, DensityDecay: 0.5,
			Gates: 50000, Seed: seed,
		}
	}
	return &soc.SOC{
		Name: "tsoc",
		Cores: []*soc.Core{
			mk("a", 24, 30, 30, 0.03, 11),
			mk("b", 16, 25, 20, 0.05, 12),
			mk("c", 32, 20, 40, 0.02, 13),
			{Name: "d", Inputs: 30, Outputs: 20, ScanChains: []int{40, 40},
				Patterns: 25, CareDensity: 0.55, Clustering: 0.3, Gates: 9000, Seed: 14},
		},
	}
}

func TestOptimizeBasic(t *testing.T) {
	s := testSOC()
	res, err := Optimize(s, 16, Options{Style: StyleTDCPerCore, Tables: TableOptions{MaxWidth: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
	if res.TestTime != res.Schedule.Makespan {
		t.Error("TestTime != makespan")
	}
	if res.Partition.TotalWidth() > 16 {
		t.Errorf("partition %v exceeds W_TAM", res.Partition)
	}
	if len(res.Choices) != len(s.Cores) {
		t.Fatalf("%d choices for %d cores", len(res.Choices), len(s.Cores))
	}
	var vol int64
	for _, ch := range res.Choices {
		if !ch.Config.Feasible {
			t.Errorf("core %s got infeasible config", ch.Core)
		}
		vol += ch.Config.Volume
	}
	if vol != res.Volume {
		t.Errorf("volume %d != summed %d", res.Volume, vol)
	}
	if res.CPUSeconds < 0 || res.TableSeconds < 0 {
		t.Error("negative timings")
	}
}

func TestOptimizeStylesOrdering(t *testing.T) {
	s := testSOC()
	var cache Cache
	topts := TableOptions{MaxWidth: 16}
	run := func(style Style) *Result {
		res, err := Optimize(s, 16, Options{Style: style, Tables: topts, Cache: &cache})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	noTDC := run(StyleNoTDC)
	perCore := run(StyleTDCPerCore)
	perTAM := run(StyleTDCPerTAM)

	// The headline claim: per-core TDC beats no-TDC on time and volume
	// for sparse-core SOCs.
	if perCore.TestTime >= noTDC.TestTime {
		t.Errorf("per-core TDC time %d not below no-TDC %d", perCore.TestTime, noTDC.TestTime)
	}
	if perCore.Volume >= noTDC.Volume {
		t.Errorf("per-core TDC volume %d not below no-TDC %d", perCore.Volume, noTDC.Volume)
	}
	// Per-core is never worse than per-TAM (it may bypass TDC per core).
	if perCore.TestTime > perTAM.TestTime {
		t.Errorf("per-core %d worse than per-TAM %d", perCore.TestTime, perTAM.TestTime)
	}
	// Figure 4's wiring claim: the per-TAM style needs much wider
	// internal wiring than the TAM itself; no-TDC equals the TAM width.
	if noTDC.InternalWires != noTDC.Partition.TotalWidth() {
		t.Errorf("no-TDC internal wires %d != TAM width", noTDC.InternalWires)
	}
	if perTAM.Decompressors > 0 && perTAM.InternalWires <= perTAM.Partition.TotalWidth() {
		t.Errorf("per-TAM internal wires %d not wider than TAM %d",
			perTAM.InternalWires, perTAM.Partition.TotalWidth())
	}
	// No-TDC carries no decompressors.
	if noTDC.Decompressors != 0 || noTDC.DecompFFs != 0 {
		t.Error("no-TDC reports decompressor hardware")
	}
	// Per-core style has one decompressor per TDC core.
	using := 0
	for _, ch := range perCore.Choices {
		if ch.Config.UseTDC {
			using++
		}
	}
	if perCore.Decompressors != using {
		t.Errorf("decompressors %d, cores using TDC %d", perCore.Decompressors, using)
	}
}

func TestOptimizeMoreWiresNeverHurts(t *testing.T) {
	s := testSOC()
	var cache Cache
	prev := int64(1 << 62)
	for _, w := range []int{8, 16, 24, 32} {
		res, err := Optimize(s, w, Options{Style: StyleTDCPerCore, Tables: TableOptions{MaxWidth: 32}, Cache: &cache})
		if err != nil {
			t.Fatal(err)
		}
		if res.TestTime > prev {
			t.Errorf("W=%d: time %d worse than narrower budget %d", w, res.TestTime, prev)
		}
		prev = res.TestTime
	}
}

func TestOptimizeRefinementHelps(t *testing.T) {
	s := testSOC()
	var cache Cache
	topts := TableOptions{MaxWidth: 17}
	on, err := Optimize(s, 17, Options{Style: StyleTDCPerCore, Tables: topts, Cache: &cache})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Optimize(s, 17, Options{Style: StyleTDCPerCore, Tables: topts, Cache: &cache, DisableRefinement: true})
	if err != nil {
		t.Fatal(err)
	}
	if on.TestTime > off.TestTime {
		t.Errorf("refinement made things worse: %d vs %d", on.TestTime, off.TestTime)
	}
}

func TestOptimizeValidation(t *testing.T) {
	s := testSOC()
	if _, err := Optimize(s, 0, Options{}); err == nil {
		t.Error("W_TAM = 0 accepted")
	}
	if _, err := Optimize(&soc.SOC{Name: "x"}, 8, Options{}); err == nil {
		t.Error("empty SOC accepted")
	}
	if _, err := Optimize(s, 32, Options{Tables: TableOptions{MaxWidth: 8}}); err == nil {
		t.Error("tables narrower than W_TAM accepted")
	}
}

func TestOptimizeSingleWire(t *testing.T) {
	// Degenerate budget: one wire, one bus, everything sequential.
	s := testSOC()
	res, err := Optimize(s, 1, Options{Style: StyleNoTDC, Tables: TableOptions{MaxWidth: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Partition) != 1 || res.Partition[0] != 1 {
		t.Errorf("partition %v", res.Partition)
	}
	var sum int64
	for _, it := range res.Schedule.Items {
		sum += it.Duration
	}
	if res.TestTime != sum {
		t.Errorf("single bus makespan %d != serial sum %d", res.TestTime, sum)
	}
}

func TestStyleString(t *testing.T) {
	if StyleNoTDC.String() != "no-tdc" || StyleTDCPerTAM.String() != "tdc-per-tam" ||
		StyleTDCPerCore.String() != "tdc-per-core" {
		t.Error("style names wrong")
	}
	if Style(99).String() == "" {
		t.Error("unknown style empty")
	}
}

func TestChooseConfigClamping(t *testing.T) {
	c := compressibleCore(9)
	tab, err := BuildTable(c, TableOptions{MaxWidth: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Width beyond the table clamps instead of panicking.
	cfg := tab.Choose(StyleTDCPerCore, 99)
	if !cfg.Feasible || cfg != tab.Choose(StyleTDCPerCore, 10) {
		t.Errorf("width 99 gave %+v, want width 10's choice", cfg)
	}
	if got := tab.Choose(StyleTDCPerCore, 0); got.Feasible {
		t.Error("width 0 feasible")
	}
	if got := tab.Choose(Style(42), 5); got.Feasible {
		t.Error("unknown style feasible")
	}
	// Per-TAM bypass: width 2 cannot host a decompressor but must still
	// test the core directly.
	cfg = tab.Choose(StyleTDCPerTAM, 2)
	if !cfg.Feasible || cfg.UseTDC {
		t.Errorf("per-TAM bypass at width 2: %+v", cfg)
	}
}

func TestOptimizeMaxTAMsHonored(t *testing.T) {
	s := testSOC()
	res, err := Optimize(s, 16, Options{
		Style: StyleTDCPerCore, Tables: TableOptions{MaxWidth: 16}, MaxTAMs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Partition) > 2 {
		t.Errorf("partition %v exceeds MaxTAMs=2", res.Partition)
	}
}

func TestOptimizeCacheEquivalence(t *testing.T) {
	// Results must be identical with and without a table cache.
	s := testSOC()
	topts := TableOptions{MaxWidth: 12}
	var cache Cache
	a, err := Optimize(s, 12, Options{Style: StyleTDCPerCore, Tables: topts, Cache: &cache})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimize(s, 12, Options{Style: StyleTDCPerCore, Tables: topts})
	if err != nil {
		t.Fatal(err)
	}
	if a.TestTime != b.TestTime || a.Volume != b.Volume {
		t.Errorf("cache changed the outcome: (%d,%d) vs (%d,%d)",
			a.TestTime, a.Volume, b.TestTime, b.Volume)
	}
	// And a second cached run reproduces the first exactly.
	c, err := Optimize(s, 12, Options{Style: StyleTDCPerCore, Tables: topts, Cache: &cache})
	if err != nil {
		t.Fatal(err)
	}
	if c.TestTime != a.TestTime || !slices.Equal(c.Partition, a.Partition) {
		t.Error("cached rerun diverged")
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	s1, s2 := testSOC(), testSOC()
	a, err := Optimize(s1, 16, Options{Style: StyleTDCPerCore, Tables: TableOptions{MaxWidth: 16}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimize(s2, 16, Options{Style: StyleTDCPerCore, Tables: TableOptions{MaxWidth: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if a.TestTime != b.TestTime || a.Volume != b.Volume || !slices.Equal(a.Partition, b.Partition) {
		t.Error("optimizer nondeterministic across identical fresh inputs")
	}
}

func TestOptimizeMergeSearchNeverWorse(t *testing.T) {
	s := testSOC()
	var cache Cache
	topts := TableOptions{MaxWidth: 19}
	plain, err := Optimize(s, 19, Options{Style: StyleTDCPerCore, Tables: topts, Cache: &cache})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Optimize(s, 19, Options{
		Style: StyleTDCPerCore, Tables: topts, Cache: &cache, MergeSearch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if merged.TestTime > plain.TestTime {
		t.Errorf("merge search made things worse: %d vs %d", merged.TestTime, plain.TestTime)
	}
	if err := merged.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
	if merged.Partition.TotalWidth() > 19 {
		t.Errorf("merge search partition %v over budget", merged.Partition)
	}
}

// TestOptimizeSearchWorkersDeterminism asserts the plan is bit-identical
// for any Workers setting on d695: every search-relevant Result field
// matches the sequential engine's.
func TestOptimizeSearchWorkersDeterminism(t *testing.T) {
	s := soc.D695()
	var cache Cache
	base := Options{
		Style:  StyleTDCPerCore,
		Tables: TableOptions{MaxWidth: 32},
		Cache:  &cache, MergeSearch: true,
	}
	run := func(workers int) *Result {
		t.Helper()
		opts := base
		opts.Tables.Workers = workers
		res, err := Optimize(s, 32, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	for _, workers := range []int{2, 8} {
		par := run(workers)
		if !reflect.DeepEqual(par.Partition, seq.Partition) {
			t.Errorf("Workers=%d: partition %v differs from %v", workers, par.Partition, seq.Partition)
		}
		if !reflect.DeepEqual(par.Schedule, seq.Schedule) {
			t.Errorf("Workers=%d: schedule differs", workers)
		}
		if !reflect.DeepEqual(par.Choices, seq.Choices) {
			t.Errorf("Workers=%d: choices differ", workers)
		}
		if par.TestTime != seq.TestTime || par.Volume != seq.Volume {
			t.Errorf("Workers=%d: time/volume %d/%d differ from %d/%d",
				workers, par.TestTime, par.Volume, seq.TestTime, seq.Volume)
		}
	}
}
