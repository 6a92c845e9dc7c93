package soc

import "fmt"

// Built-in benchmark designs.
//
// d695 follows the published ITC'02 SOC test benchmark structure (ten
// ISCAS'85/'89 cores). Scan-chain length lists follow the benchmark's
// balanced configurations. Test cubes are synthetic at the published
// 40–70% care-bit densities of compacted ISCAS test sets.
//
// d2758 (Iyengar & Chandra, IEE CDT 2005) is not publicly archived; the
// stand-in below is a plausible composition of larger ISCAS'89-class
// cores, documented in DESIGN.md as a substitution.
//
// ckt-1..ckt-12 stand in for the proprietary industrial cores of Wang &
// Chakrabarty (ITC'05): 10k–110k scan cells, 1–5% care density,
// clustered care bits. System1–System4 are SOCs crafted from them, as in
// Table 3 of the paper.

// D695 returns the d695 benchmark SOC.
func D695() *SOC {
	return &SOC{
		Name: "d695",
		Cores: []*Core{
			{Name: "c6288", Inputs: 32, Outputs: 32, Patterns: 12,
				Gates: 2416, CareDensity: 0.60, Clustering: 0.2, Seed: 101},
			{Name: "c7552", Inputs: 207, Outputs: 108, Patterns: 73,
				Gates: 3512, CareDensity: 0.48, Clustering: 0.2, Seed: 102},
			{Name: "s838", Inputs: 35, Outputs: 2, ScanChains: balancedChains(32, 1), Patterns: 75,
				Gates: 446, CareDensity: 0.55, Clustering: 0.3, Seed: 103},
			{Name: "s9234", Inputs: 36, Outputs: 39, ScanChains: balancedChains(211, 4), Patterns: 105,
				Gates: 5597, CareDensity: 0.45, Clustering: 0.4, DensityDecay: 0.4, Seed: 104},
			{Name: "s38417", Inputs: 28, Outputs: 106, ScanChains: balancedChains(1636, 32), Patterns: 68,
				Gates: 23815, CareDensity: 0.32, Clustering: 0.5, DensityDecay: 0.5, Seed: 105},
			{Name: "s13207", Inputs: 62, Outputs: 152, ScanChains: balancedChains(638, 16), Patterns: 234,
				Gates: 8589, CareDensity: 0.38, Clustering: 0.4, DensityDecay: 0.5, Seed: 106},
			{Name: "s15850", Inputs: 77, Outputs: 150, ScanChains: balancedChains(534, 16), Patterns: 95,
				Gates: 10306, CareDensity: 0.42, Clustering: 0.4, DensityDecay: 0.4, Seed: 107},
			{Name: "s5378", Inputs: 35, Outputs: 49, ScanChains: balancedChains(179, 4), Patterns: 97,
				Gates: 2958, CareDensity: 0.50, Clustering: 0.3, DensityDecay: 0.3, Seed: 108},
			{Name: "s35932", Inputs: 35, Outputs: 320, ScanChains: balancedChains(1728, 32), Patterns: 12,
				Gates: 17828, CareDensity: 0.38, Clustering: 0.5, Seed: 109},
			{Name: "s38584", Inputs: 38, Outputs: 304, ScanChains: balancedChains(1426, 32), Patterns: 110,
				Gates: 19253, CareDensity: 0.32, Clustering: 0.5, DensityDecay: 0.5, Seed: 110},
		},
	}
}

// D2758 returns the d2758 stand-in SOC (see package comment).
func D2758() *SOC {
	return &SOC{
		Name: "d2758",
		Cores: []*Core{
			{Name: "m1-s38417", Inputs: 28, Outputs: 106, ScanChains: balancedChains(1636, 32), Patterns: 99,
				Gates: 23815, CareDensity: 0.32, Clustering: 0.5, DensityDecay: 0.5, Seed: 201},
			{Name: "m2-s38584", Inputs: 38, Outputs: 304, ScanChains: balancedChains(1426, 32), Patterns: 136,
				Gates: 19253, CareDensity: 0.32, Clustering: 0.5, DensityDecay: 0.5, Seed: 202},
			{Name: "m3-s35932", Inputs: 35, Outputs: 320, ScanChains: balancedChains(1728, 32), Patterns: 16,
				Gates: 17828, CareDensity: 0.38, Clustering: 0.5, Seed: 203},
			{Name: "m4-s15850", Inputs: 77, Outputs: 150, ScanChains: balancedChains(534, 16), Patterns: 126,
				Gates: 10306, CareDensity: 0.42, Clustering: 0.4, DensityDecay: 0.4, Seed: 204},
			{Name: "m5-s13207", Inputs: 62, Outputs: 152, ScanChains: balancedChains(638, 16), Patterns: 273,
				Gates: 8589, CareDensity: 0.38, Clustering: 0.4, DensityDecay: 0.5, Seed: 205},
			{Name: "m6-s38417b", Inputs: 28, Outputs: 106, ScanChains: balancedChains(1636, 24), Patterns: 85,
				Gates: 23815, CareDensity: 0.34, Clustering: 0.5, DensityDecay: 0.5, Seed: 206},
			{Name: "m7-s9234", Inputs: 36, Outputs: 39, ScanChains: balancedChains(211, 4), Patterns: 147,
				Gates: 5597, CareDensity: 0.45, Clustering: 0.4, DensityDecay: 0.4, Seed: 207},
			{Name: "m8-s38584b", Inputs: 38, Outputs: 304, ScanChains: balancedChains(1426, 24), Patterns: 92,
				Gates: 19253, CareDensity: 0.34, Clustering: 0.5, DensityDecay: 0.5, Seed: 208},
		},
	}
}

// industrialSpec compactly describes one synthetic industrial core.
type industrialSpec struct {
	cells, chains, in, out, bidir, patterns, gates int
	density                                        float64
	seed                                           int64
}

// The industrial cores are compression-ready designs: hundreds to
// thousands of short scan chains (50–70 cells), the structure real
// embedded-compression flows impose, with 1–5% care densities and
// scan-slice-clustered care bits.
var industrialSpecs = map[string]industrialSpec{
	// name: {scan cells, scan chains, inputs, outputs, bidirs, patterns, gates, care density, seed}
	"ckt-1":  {24000, 480, 300, 200, 16, 200, 290000, 0.030, 301},
	"ckt-2":  {12000, 240, 150, 180, 8, 160, 150000, 0.050, 302},
	"ckt-3":  {36000, 600, 400, 350, 24, 220, 430000, 0.020, 303},
	"ckt-4":  {18000, 360, 250, 220, 12, 150, 210000, 0.040, 304},
	"ckt-5":  {52000, 800, 500, 450, 32, 240, 620000, 0.015, 305},
	"ckt-6":  {10000, 200, 120, 140, 8, 140, 120000, 0.050, 306},
	"ckt-7":  {44000, 800, 420, 380, 24, 250, 530000, 0.015, 307},
	"ckt-8":  {64000, 1000, 600, 500, 40, 260, 770000, 0.012, 308},
	"ckt-9":  {30000, 500, 350, 300, 20, 200, 360000, 0.025, 309},
	"ckt-10": {80000, 1200, 700, 600, 48, 280, 960000, 0.010, 310},
	"ckt-11": {15000, 300, 200, 180, 12, 150, 180000, 0.045, 311},
	"ckt-12": {110000, 1600, 800, 700, 56, 300, 1320000, 0.010, 312},
}

// IndustrialCore returns the named synthetic industrial core
// ("ckt-1" .. "ckt-12").
func IndustrialCore(name string) (*Core, error) {
	sp, ok := industrialSpecs[name]
	if !ok {
		return nil, fmt.Errorf("soc: unknown industrial core %q", name)
	}
	return &Core{
		Name:         name,
		Inputs:       sp.in,
		Outputs:      sp.out,
		Bidirs:       sp.bidir,
		ScanChains:   balancedChains(sp.cells, sp.chains),
		Patterns:     sp.patterns,
		Gates:        sp.gates,
		CareDensity:  sp.density,
		Clustering:   0.7,
		DensityDecay: 0.8,
		Seed:         sp.seed,
	}, nil
}

// MustIndustrialCore is IndustrialCore but panics on unknown names.
func MustIndustrialCore(name string) *Core {
	c, err := IndustrialCore(name)
	if err != nil {
		panic(err)
	}
	return c
}

// IndustrialCoreNames lists the available synthetic industrial cores in
// order.
func IndustrialCoreNames() []string {
	names := make([]string, 0, len(industrialSpecs))
	for i := 1; i <= 12; i++ {
		names = append(names, fmt.Sprintf("ckt-%d", i))
	}
	return names
}

// systemCompositions maps System names to their member cores (Table 3).
var systemCompositions = map[string][]string{
	"System1": {"ckt-1", "ckt-2", "ckt-4", "ckt-6", "ckt-11"},
	"System2": {"ckt-1", "ckt-3", "ckt-5", "ckt-7", "ckt-9", "ckt-11"},
	"System3": {"ckt-2", "ckt-4", "ckt-6", "ckt-7", "ckt-8", "ckt-9", "ckt-10", "ckt-11"},
	"System4": {"ckt-1", "ckt-2", "ckt-3", "ckt-4", "ckt-5", "ckt-6", "ckt-7", "ckt-8", "ckt-9", "ckt-10", "ckt-11", "ckt-12"},
}

// System returns one of the industrial-core SOCs System1..System4.
func System(name string) (*SOC, error) {
	comp, ok := systemCompositions[name]
	if !ok {
		return nil, fmt.Errorf("soc: unknown system %q", name)
	}
	s := &SOC{Name: name}
	for _, cn := range comp {
		c, err := IndustrialCore(cn)
		if err != nil {
			return nil, err
		}
		s.Cores = append(s.Cores, c)
	}
	return s, nil
}

// MustSystem is System but panics on unknown names.
func MustSystem(name string) *SOC {
	s, err := System(name)
	if err != nil {
		panic(err)
	}
	return s
}

// SystemNames lists the industrial-core systems in order.
func SystemNames() []string {
	return []string{"System1", "System2", "System3", "System4"}
}

// StressSystem returns a large synthetic SOC with n cores for
// scalability studies: industrial-core structures replicated with
// distinct names and cube seeds. The paper reports sub-minute CPU times
// "even for the system with the largest number of cores"; this design
// lets that claim be stressed well past the published sizes.
func StressSystem(n int, seed int64) (*SOC, error) {
	if n < 1 {
		return nil, fmt.Errorf("soc: stress system with %d cores", n)
	}
	names := IndustrialCoreNames()
	s := &SOC{Name: fmt.Sprintf("stress-%d", n)}
	for i := 0; i < n; i++ {
		c, err := IndustrialCore(names[i%len(names)])
		if err != nil {
			return nil, err
		}
		c.Name = fmt.Sprintf("%s-r%d", c.Name, i/len(names))
		c.Seed = c.Seed + seed*1000 + int64(i)
		s.Cores = append(s.Cores, c)
	}
	return s, s.Validate()
}

// Figure4SOC returns the three-core industrial design used in Figure 4 of
// the paper (ckt-1, ckt-11, ckt-9).
func Figure4SOC() *SOC {
	return &SOC{
		Name: "fig4",
		Cores: []*Core{
			MustIndustrialCore("ckt-1"),
			MustIndustrialCore("ckt-11"),
			MustIndustrialCore("ckt-9"),
		},
	}
}

// Benchmark returns the named built-in SOC (d695, d2758 or
// System1..System4), building that design only, and false for any other
// name.
func Benchmark(name string) (*SOC, bool) {
	switch name {
	case "d695":
		return D695(), true
	case "d2758":
		return D2758(), true
	}
	s, err := System(name)
	return s, err == nil
}

// AllBenchmarks returns every built-in SOC keyed by name: d695, d2758 and
// System1..System4.
func AllBenchmarks() map[string]*SOC {
	m := make(map[string]*SOC)
	for _, n := range append([]string{"d695", "d2758"}, SystemNames()...) {
		m[n], _ = Benchmark(n)
	}
	return m
}
