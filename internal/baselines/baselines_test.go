package baselines

import (
	"runtime"
	"testing"

	"soctap/internal/power"
	"soctap/internal/soc"
	"soctap/internal/truncate"
)

func benchSOC() *soc.SOC {
	mk := func(name string, nChains, chainLen, pat int, density float64, seed int64) *soc.Core {
		chains := make([]int, nChains)
		for i := range chains {
			chains[i] = chainLen
		}
		return &soc.Core{
			Name: name, Inputs: 16, Outputs: 12,
			ScanChains: chains, Patterns: pat,
			CareDensity: density, Clustering: 0.8, Seed: seed,
		}
	}
	return &soc.SOC{
		Name: "bsoc",
		Cores: []*soc.Core{
			mk("a", 24, 30, 30, 0.03, 21),
			mk("b", 16, 25, 20, 0.05, 22),
			mk("c", 32, 20, 40, 0.02, 23),
		},
	}
}

func TestVirtualTAM18(t *testing.T) {
	s := benchSOC()
	r8, err := VirtualTAM18(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r8.TestTime <= 0 || r8.Volume <= 0 {
		t.Fatalf("degenerate result %+v", r8)
	}
	r16, err := VirtualTAM18(s, 16)
	if err != nil {
		t.Fatal(err)
	}
	if r16.TestTime > r8.TestTime {
		t.Errorf("more channels made [18] slower: %d vs %d", r16.TestTime, r8.TestTime)
	}
	// Volume is channel-independent (same encoding).
	if r16.Volume != r8.Volume {
		t.Errorf("volume changed with channels: %d vs %d", r16.Volume, r8.Volume)
	}
	// Channel bandwidth bound holds.
	if r8.TestTime < r8.Volume/8 {
		t.Errorf("test time %d below bandwidth bound %d", r8.TestTime, r8.Volume/8)
	}
	if _, err := VirtualTAM18(s, 0); err == nil {
		t.Error("0 channels accepted")
	}
}

func TestLFSRReseeding13(t *testing.T) {
	s := benchSOC()
	r16, err := LFSRReseeding13(s, 16)
	if err != nil {
		t.Fatal(err)
	}
	r32, err := LFSRReseeding13(s, 32)
	if err != nil {
		t.Fatal(err)
	}
	if r16.TestTime <= 0 || r32.TestTime <= 0 {
		t.Fatal("degenerate times")
	}
	if r32.TestTime > r16.TestTime {
		t.Errorf("wider TAM made [13] slower: %d vs %d", r32.TestTime, r16.TestTime)
	}
	// Stored volume reflects the efficiency constant: roughly care bits
	// inflated by 1/Eff13.
	var care int64
	for _, c := range s.Cores {
		ts, _ := c.TestSet()
		care += int64(ts.TotalCareBits())
	}
	lo := int64(float64(care) / Eff13 * 0.95)
	hi := int64(float64(care)/Eff13*1.05) + int64(len(s.Cores)*100)
	if r16.Volume < lo || r16.Volume > hi {
		t.Errorf("volume %d outside expected [%d,%d]", r16.Volume, lo, hi)
	}
	if _, err := LFSRReseeding13(s, 0); err == nil {
		t.Error("0 wires accepted")
	}
}

func TestFixedWidth11(t *testing.T) {
	s := benchSOC()
	r8, err := FixedWidth11(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	r16, err := FixedWidth11(s, 16)
	if err != nil {
		t.Fatal(err)
	}
	// More 4-wire groups = more parallelism.
	if r16.TestTime > r8.TestTime {
		t.Errorf("more groups made [11] slower: %d vs %d", r16.TestTime, r8.TestTime)
	}
	// Below one group is an error.
	if _, err := FixedWidth11(s, 3); err == nil {
		t.Error("W=3 accepted for [11]")
	}
	// [11]'s lower efficiency means more stored bits than [13].
	r13, _ := LFSRReseeding13(s, 16)
	if r16.Volume <= r13.Volume {
		t.Errorf("[11] volume %d not above [13] volume %d", r16.Volume, r13.Volume)
	}
}

func TestScanFloorRespected(t *testing.T) {
	// With plenty of channels the linear model is floored by scan depth:
	// time per pattern cannot drop below bestSI.
	s := benchSOC()
	m, err := buildModel(s.Cores[0])
	if err != nil {
		t.Fatal(err)
	}
	t1 := m.linearTime(1, Eff13)
	tBig := m.linearTime(1<<20, Eff13)
	floor := int64(m.patterns)*int64(m.bestSI) + int64(m.patterns) + int64(m.bestSO)
	if tBig != floor {
		t.Errorf("wide-channel time %d != scan floor %d", tBig, floor)
	}
	if t1 < tBig {
		t.Error("narrow channels faster than wide")
	}
	if m.linearTime(0, Eff13) != 0 {
		t.Error("0 wires should be infeasible")
	}

	// A dense core is bandwidth-bound, so narrow channels must be
	// strictly slower.
	dense := &soc.Core{
		Name: "dense", Inputs: 8, Outputs: 8, ScanChains: []int{64, 64, 64, 64},
		Patterns: 10, CareDensity: 0.6, Seed: 9,
	}
	dm, err := buildModel(dense)
	if err != nil {
		t.Fatal(err)
	}
	if dm.linearTime(1, Eff13) <= dm.linearTime(1<<20, Eff13) {
		t.Error("dense core: narrow channels not strictly slower")
	}
}

func TestBaselineValidation(t *testing.T) {
	bad := &soc.SOC{Name: "bad"}
	if _, err := VirtualTAM18(bad, 8); err == nil {
		t.Error("invalid SOC accepted by [18]")
	}
	if _, err := LFSRReseeding13(bad, 8); err == nil {
		t.Error("invalid SOC accepted by [13]")
	}
	if _, err := FixedWidth11(bad, 8); err == nil {
		t.Error("invalid SOC accepted by [11]")
	}
}

// TestCubeReadersStream: the baseline model, the truncation planner and
// the scan-in power estimate each read a fresh core at the residency
// threshold (soc.Core.StreamsCubes: 2^16 stimulus bits × 2^15
// patterns) in one pass of soc.Core.Cubes, so the core keeps no test
// set: with the core still alive, none of them leaves more than a few
// MB on the heap, where the set's cubes take about 40 MB.
func TestCubeReadersStream(t *testing.T) {
	chains := make([]int, 63)
	for i := range chains {
		chains[i] = (1<<16 - 16) / len(chains)
	}
	readers := []struct {
		name string
		read func(c *soc.Core) error
	}{
		{"baselines", func(c *soc.Core) error { _, err := buildModel(c); return err }},
		{"truncate.Plan", func(c *soc.Core) error {
			_, err := truncate.Plan(&soc.SOC{Name: "edge", Cores: []*soc.Core{c}}, 1<<20, nil)
			return err
		}},
		{"power.ScanInPower", func(c *soc.Core) error { _, err := power.ScanInPower(c, 64, power.FillZero); return err }},
	}
	for _, r := range readers {
		c := &soc.Core{Name: "edge", Inputs: 16, ScanChains: chains, Patterns: 1 << 15, CareDensity: 0.001, Seed: 1}
		if !c.StreamsCubes() {
			t.Fatalf("%d raw stimulus bits: the core does not stream", c.StimulusVolumeBits())
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := r.read(c); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 4<<20 {
			t.Errorf("%s left %d B more on the heap; a streamed core must keep no test set", r.name, grew)
		}
		runtime.KeepAlive(c)
	}
}
