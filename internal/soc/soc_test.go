package soc

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestStreamsCubesThreshold: the residency rule flips exactly at 2^31
// raw stimulus bits. A core of 2^16 stimulus bits (16 inputs and 65,520
// scan cells) is resident at 2^15 - 1 patterns, 2^31 - 2^16 bits, and
// streams at 2^15 patterns, 2^31 bits.
func TestStreamsCubesThreshold(t *testing.T) {
	chains := make([]int, 63)
	for i := range chains {
		chains[i] = 1040
	}
	for _, tc := range []struct {
		patterns int
		bits     int64
		streams  bool
	}{
		{1<<15 - 1, 1<<31 - 1<<16, false},
		{1 << 15, 1 << 31, true},
	} {
		c := &Core{Name: "edge", Inputs: 16, ScanChains: chains, Patterns: tc.patterns, CareDensity: 0.001}
		if got := c.StimulusBits(); got != 1<<16 {
			t.Fatalf("%d stimulus bits, want 2^16", got)
		}
		if got := c.StimulusVolumeBits(); got != tc.bits {
			t.Errorf("%d patterns: %d raw stimulus bits, want %d", tc.patterns, got, tc.bits)
		}
		if got := c.StreamsCubes(); got != tc.streams {
			t.Errorf("%d patterns (%d bits): StreamsCubes = %v, want %v", tc.patterns, tc.bits, got, tc.streams)
		}
	}
}

func TestCoreDerivedCounts(t *testing.T) {
	c := &Core{
		Name: "x", Inputs: 10, Outputs: 20, Bidirs: 5,
		ScanChains: []int{100, 100, 50}, Patterns: 7, CareDensity: 0.1,
	}
	if got := c.ScanCells(); got != 250 {
		t.Errorf("ScanCells = %d, want 250", got)
	}
	if got := c.StimulusBits(); got != 10+5+250 {
		t.Errorf("StimulusBits = %d", got)
	}
	if got := c.ResponseBits(); got != 20+5+250 {
		t.Errorf("ResponseBits = %d", got)
	}
	if got := c.InCells(); got != 15 {
		t.Errorf("InCells = %d", got)
	}
	if got := c.OutCells(); got != 25 {
		t.Errorf("OutCells = %d", got)
	}
	if got := c.MaxWrapperChains(); got != 3+15 {
		t.Errorf("MaxWrapperChains = %d", got)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestCoreValidateErrors(t *testing.T) {
	bad := []*Core{
		{Name: "", Inputs: 1, Patterns: 1, CareDensity: 0.5},
		{Name: "a", Inputs: -1, Patterns: 1, CareDensity: 0.5},
		{Name: "a", Inputs: 1, ScanChains: []int{0}, Patterns: 1, CareDensity: 0.5},
		{Name: "a", Inputs: 1, Patterns: 0, CareDensity: 0.5},
		{Name: "a", Inputs: 0, Outputs: 3, Patterns: 1, CareDensity: 0.5}, // no stimulus
		{Name: "a", Inputs: 1, Patterns: 1, CareDensity: 0},
		{Name: "a", Inputs: 1, Patterns: 1, CareDensity: 1.2},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid core %+v", i, c)
		}
	}
}

func TestCoreTestSetCached(t *testing.T) {
	c := &Core{Name: "a", Inputs: 5, ScanChains: []int{100}, Patterns: 10, CareDensity: 0.2, Seed: 1}
	s1, err := c.TestSet()
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := c.TestSet()
	if s1 != s2 {
		t.Error("TestSet not cached")
	}
	if s1.NumBits != c.StimulusBits() || s1.Len() != c.Patterns {
		t.Errorf("test set shape %dx%d, want %dx%d", s1.Len(), s1.NumBits, c.Patterns, c.StimulusBits())
	}
}

func TestD695Structure(t *testing.T) {
	d := D695()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Cores) != 10 {
		t.Fatalf("d695 has %d cores, want 10", len(d.Cores))
	}
	s38417 := d.CoreByName("s38417")
	if s38417 == nil {
		t.Fatal("s38417 missing")
	}
	if s38417.ScanCells() != 1636 || len(s38417.ScanChains) != 32 {
		t.Errorf("s38417 scan structure wrong: %d cells in %d chains",
			s38417.ScanCells(), len(s38417.ScanChains))
	}
	c6288 := d.CoreByName("c6288")
	if c6288 == nil || len(c6288.ScanChains) != 0 {
		t.Error("c6288 should be combinational")
	}
	// Published benchmark densities average ~44% (Kajihara & Miyase).
	var sum float64
	for _, c := range d.Cores {
		if c.CareDensity < 0.25 || c.CareDensity > 0.75 {
			t.Errorf("%s: care density %g outside ISCAS range", c.Name, c.CareDensity)
		}
		sum += c.CareDensity
	}
	if avg := sum / float64(len(d.Cores)); avg < 0.40 || avg > 0.50 {
		t.Errorf("d695 average care density %.3f, want ~0.44", avg)
	}
}

func TestD2758Structure(t *testing.T) {
	d := D2758()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Cores) != 8 {
		t.Errorf("d2758 stand-in has %d cores, want 8", len(d.Cores))
	}
}

func TestIndustrialCores(t *testing.T) {
	names := IndustrialCoreNames()
	if len(names) != 12 {
		t.Fatalf("%d industrial cores, want 12", len(names))
	}
	for _, n := range names {
		c, err := IndustrialCore(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", n, err)
		}
		if c.ScanCells() < 10000 || c.ScanCells() > 110000 {
			t.Errorf("%s: %d scan cells outside published envelope [10k,110k]", n, c.ScanCells())
		}
		if c.CareDensity > 0.05+1e-9 || c.CareDensity < 0.01-1e-9 {
			t.Errorf("%s: care density %g outside published envelope [1%%,5%%]", n, c.CareDensity)
		}
	}
	if _, err := IndustrialCore("ckt-99"); err == nil {
		t.Error("unknown industrial core accepted")
	}
}

func TestCkt7SupportsFig2Band(t *testing.T) {
	// Figure 2 sweeps m in [128,255] at w=10; ckt-7 must admit that many
	// wrapper chains.
	c := MustIndustrialCore("ckt-7")
	if c.MaxWrapperChains() < 255 {
		t.Errorf("ckt-7 MaxWrapperChains = %d, need >= 255 for the Fig. 2 sweep", c.MaxWrapperChains())
	}
}

func TestSystems(t *testing.T) {
	for _, n := range SystemNames() {
		s, err := System(n)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", n, err)
		}
		if s.TotalGates() <= 0 || s.TotalScanCells() <= 0 {
			t.Errorf("%s: degenerate totals", n)
		}
	}
	s4 := MustSystem("System4")
	if len(s4.Cores) != 12 {
		t.Errorf("System4 has %d cores, want 12", len(s4.Cores))
	}
	if _, err := System("System9"); err == nil {
		t.Error("unknown system accepted")
	}
}

func TestFigure4SOC(t *testing.T) {
	f := Figure4SOC()
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	want := []string{"ckt-1", "ckt-11", "ckt-9"}
	for i, c := range f.Cores {
		if c.Name != want[i] {
			t.Errorf("core %d = %s, want %s", i, c.Name, want[i])
		}
	}
}

func TestAllBenchmarks(t *testing.T) {
	m := AllBenchmarks()
	for _, name := range []string{"d695", "d2758", "System1", "System2", "System3", "System4"} {
		if m[name] == nil {
			t.Errorf("AllBenchmarks missing %s", name)
		}
	}
}

// TestBenchmark: Benchmark builds exactly the design AllBenchmarks
// lists under a name, and reports false for any other name.
func TestBenchmark(t *testing.T) {
	for name, want := range AllBenchmarks() {
		got, ok := Benchmark(name)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("Benchmark(%q) = %v, %v; want AllBenchmarks()[%q]", name, got, ok, name)
		}
	}
	for _, name := range []string{"", "d696", "system1", "System5", "ckt-1"} {
		if s, ok := Benchmark(name); ok || s != nil {
			t.Errorf("Benchmark(%q) = %v, %v; want nil, false", name, s, ok)
		}
	}
}

func TestSOCValidateDuplicates(t *testing.T) {
	s := &SOC{Name: "x", Cores: []*Core{
		{Name: "a", Inputs: 1, Patterns: 1, CareDensity: 0.5},
		{Name: "a", Inputs: 1, Patterns: 1, CareDensity: 0.5},
	}}
	if err := s.Validate(); err == nil {
		t.Error("duplicate core names accepted")
	}
	if err := (&SOC{Name: "y"}).Validate(); err == nil {
		t.Error("empty SOC accepted")
	}
	if err := (&SOC{Cores: []*Core{{Name: "a", Inputs: 1, Patterns: 1, CareDensity: 0.5}}}).Validate(); err == nil {
		t.Error("unnamed SOC accepted")
	}
}

func TestInitialVolume(t *testing.T) {
	s := &SOC{Name: "x", Cores: []*Core{
		{Name: "a", Inputs: 10, Patterns: 3, CareDensity: 0.5, Seed: 1},
		{Name: "b", Inputs: 4, ScanChains: []int{6}, Patterns: 2, CareDensity: 0.5, Seed: 2},
	}}
	if v := s.InitialVolume(); v != 10*3+10*2 {
		t.Errorf("InitialVolume = %d, want %d", v, 10*3+10*2)
	}
	for _, c := range s.Cores {
		if c.cubes != nil {
			t.Errorf("InitialVolume generated the test set of core %s", c.Name)
		}
	}

	// V_i is the raw volume of the generated test sets on every
	// built-in design.
	for name, s := range AllBenchmarks() {
		var want int64
		for _, c := range s.Cores {
			ts, err := c.TestSet()
			if err != nil {
				t.Fatal(err)
			}
			want += ts.RawVolume()
		}
		if v := s.InitialVolume(); v != want {
			t.Errorf("%s: InitialVolume = %d, want the test sets' %d", name, v, want)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	orig := D695()
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatalf("parse emitted d695: %v\n%s", err, buf.String())
	}
	if back.Name != orig.Name || len(back.Cores) != len(orig.Cores) {
		t.Fatal("round trip lost structure")
	}
	for i, c := range orig.Cores {
		b := back.Cores[i]
		if b.Name != c.Name || b.Inputs != c.Inputs || b.Outputs != c.Outputs ||
			b.Bidirs != c.Bidirs || b.Patterns != c.Patterns || b.Gates != c.Gates ||
			b.CareDensity != c.CareDensity || b.Seed != c.Seed {
			t.Errorf("core %s fields changed in round trip", c.Name)
		}
		if len(b.ScanChains) != len(c.ScanChains) {
			t.Errorf("core %s scan chains changed", c.Name)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"unterminated", "Core a\nInputs 1\nPatterns 1\n"},
		{"bad statement outside", "Inputs 3\n"},
		{"bad statement inside", "Core a\nBogus 1\nEndCore\n"},
		{"bad int", "Core a\nInputs xyz\nEndCore\n"},
		{"scanchain count mismatch", "Core a\nInputs 1\nScanChains 2 5\nPatterns 1\nEndCore\n"},
		{"totalcores mismatch", "SocName s\nTotalCores 2\nCore a\nInputs 1\nPatterns 1\nEndCore\n"},
		{"invalid core", "SocName s\nCore a\nInputs 1\nPatterns 0\nEndCore\n"},
		{"missing soc name", "Core a\nInputs 1\nPatterns 1\nEndCore\n"},
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: Parse accepted invalid input", c.name)
		}
	}
}

func TestParseComments(t *testing.T) {
	in := `
# a full-line comment
SocName tiny   # trailing comment
Core a
  Inputs 2
  Outputs 1
  Patterns 3
  CareDensity 0.5
EndCore
`
	s, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "tiny" || len(s.Cores) != 1 || s.Cores[0].Patterns != 3 {
		t.Errorf("parsed design wrong: %+v", s)
	}
}

func TestBalancedChains(t *testing.T) {
	cases := []struct {
		total, n int
		want     []int
	}{
		{10, 3, []int{4, 3, 3}},
		{9, 3, []int{3, 3, 3}},
		{2, 5, []int{1, 1}}, // n clamped to total
		{0, 3, nil},
		{5, 0, nil},
	}
	for _, c := range cases {
		got := balancedChains(c.total, c.n)
		if len(got) != len(c.want) {
			t.Errorf("balancedChains(%d,%d) = %v, want %v", c.total, c.n, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("balancedChains(%d,%d) = %v, want %v", c.total, c.n, got, c.want)
				break
			}
		}
	}
}

func TestStressSystem(t *testing.T) {
	s, err := StressSystem(24, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Cores) != 24 {
		t.Fatalf("%d cores", len(s.Cores))
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Replicas must have distinct names and seeds.
	if s.Cores[0].Name == s.Cores[12].Name {
		t.Error("replica name collision")
	}
	if s.Cores[0].Seed == s.Cores[12].Seed {
		t.Error("replica seed collision")
	}
	if _, err := StressSystem(0, 1); err == nil {
		t.Error("0 cores accepted")
	}
}
