// Package soc models core-based systems-on-chip for modular test
// planning: embedded cores with scan structure and test sets, and SOCs
// that aggregate cores. It ships the benchmark designs used in the DATE
// 2008 paper (d695, a d2758 stand-in, the industrial cores ckt-1..ckt-12
// as documented synthetic stand-ins, and System1–System4), plus an
// ITC'02-inspired text format for describing designs on disk.
package soc

import (
	"fmt"
	"math"
	"sync"

	"soctap/internal/cube"
)

// Structural sanity bounds enforced by Validate. They sit far above any
// realistic SOC (the largest ITC'02 cores are orders of magnitude
// smaller) and exist to keep malformed or hostile design files out of
// the downstream kernels: a terminal count whose stimulus sum overflows
// int would otherwise reach the cube generator as a negative width and
// panic (cube.NewCube), and unbounded pattern or chain counts turn the
// generator into a memory bomb.
const (
	MaxTerminals    = 1 << 24 // per terminal class (inputs, outputs, bidirs)
	MaxScanChains   = 1 << 20 // scan chains per core
	MaxScanChainLen = 1 << 26 // cells per scan chain
	MaxPatterns     = 1 << 26 // test patterns per core
	MaxStimulusBits = 1 << 28 // total stimulus cells per core
)

// Core describes one wrapped embedded core: its functional terminals, its
// internal scan chains, and the shape of its test set. Test cubes are
// either attached directly (ExplicitCubes) or generated deterministically
// from the Gen parameters on first use.
type Core struct {
	Name    string
	Inputs  int // functional inputs (wrapper input cells)
	Outputs int // functional outputs (wrapper output cells)
	Bidirs  int // bidirectional terminals (count as both in and out cells)

	// ScanChains lists the length (in cells) of each internal scan
	// chain. A combinational core has none.
	ScanChains []int

	Patterns int // number of test patterns (cubes)
	Gates    int // approximate gate count, for hardware-cost reporting

	// CareDensity, Clustering, DensityDecay and Seed parameterize the
	// synthetic cube generator when ExplicitCubes is nil.
	CareDensity  float64
	Clustering   float64
	DensityDecay float64
	Seed         int64

	// ExplicitCubes, when non-nil, is used verbatim as the core's test
	// set (its width must equal StimulusBits, its length Patterns, and
	// every cube must share the width with strictly ascending, in-range
	// care positions).
	ExplicitCubes *cube.Set

	cubesOnce sync.Once
	cubes     *cube.Set
	cubesErr  error
}

// ScanCells returns the total number of internal scan cells.
func (c *Core) ScanCells() int {
	n := 0
	for _, l := range c.ScanChains {
		n += l
	}
	return n
}

// StimulusBits returns the number of stimulus cells per pattern: wrapper
// input cells (functional inputs and bidirs) plus all scan cells.
func (c *Core) StimulusBits() int {
	return c.Inputs + c.Bidirs + c.ScanCells()
}

// ResponseBits returns the number of response cells per pattern: wrapper
// output cells (functional outputs and bidirs) plus all scan cells.
func (c *Core) ResponseBits() int {
	return c.Outputs + c.Bidirs + c.ScanCells()
}

// InCells returns the number of wrapper input cells.
func (c *Core) InCells() int { return c.Inputs + c.Bidirs }

// OutCells returns the number of wrapper output cells.
func (c *Core) OutCells() int { return c.Outputs + c.Bidirs }

// MaxWrapperChains returns the largest useful number of wrapper chains:
// one per internal scan chain plus one per wrapper input cell. Beyond
// this, additional chains would carry no stimulus cells.
func (c *Core) MaxWrapperChains() int {
	return len(c.ScanChains) + c.InCells()
}

// Validate checks the core description for consistency. It is the
// gate that keeps malformed design files (see format.go) out of the
// panicking cube/bitvec kernels: terminal, chain and pattern counts
// are bounded, the stimulus total is computed overflow-safely, and the
// generator parameters must be finite — a NaN Clustering, for example,
// would otherwise sail through range comparisons (every NaN comparison
// is false) and crash the generator's span sampling.
func (c *Core) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("soc: core with empty name")
	}
	if c.Inputs < 0 || c.Outputs < 0 || c.Bidirs < 0 {
		return fmt.Errorf("soc: core %s: negative terminal count", c.Name)
	}
	if c.Inputs > MaxTerminals || c.Outputs > MaxTerminals || c.Bidirs > MaxTerminals {
		return fmt.Errorf("soc: core %s: terminal count exceeds %d", c.Name, MaxTerminals)
	}
	if len(c.ScanChains) > MaxScanChains {
		return fmt.Errorf("soc: core %s: %d scan chains exceeds %d", c.Name, len(c.ScanChains), MaxScanChains)
	}
	stim := int64(c.Inputs) + int64(c.Bidirs)
	for i, l := range c.ScanChains {
		if l <= 0 {
			return fmt.Errorf("soc: core %s: scan chain %d has length %d", c.Name, i, l)
		}
		if l > MaxScanChainLen {
			return fmt.Errorf("soc: core %s: scan chain %d length %d exceeds %d", c.Name, i, l, MaxScanChainLen)
		}
		stim += int64(l)
	}
	if c.Patterns <= 0 {
		return fmt.Errorf("soc: core %s: %d patterns", c.Name, c.Patterns)
	}
	if c.Patterns > MaxPatterns {
		return fmt.Errorf("soc: core %s: %d patterns exceeds %d", c.Name, c.Patterns, MaxPatterns)
	}
	if stim == 0 {
		return fmt.Errorf("soc: core %s has no stimulus cells", c.Name)
	}
	if stim > MaxStimulusBits {
		return fmt.Errorf("soc: core %s: %d stimulus cells exceeds %d", c.Name, stim, MaxStimulusBits)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"clustering", c.Clustering}, {"density decay", c.DensityDecay}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("soc: core %s: %s %g is not finite", c.Name, f.name, f.v)
		}
	}
	if c.ExplicitCubes == nil {
		// Written so a NaN density fails too (NaN compares false to
		// everything, so the positive form is the safe one).
		if !(c.CareDensity > 0 && c.CareDensity <= 1) {
			return fmt.Errorf("soc: core %s: care density %g out of (0,1]", c.Name, c.CareDensity)
		}
	} else {
		if c.ExplicitCubes.NumBits != c.StimulusBits() {
			return fmt.Errorf("soc: core %s: explicit cube width %d, want %d",
				c.Name, c.ExplicitCubes.NumBits, c.StimulusBits())
		}
		if c.ExplicitCubes.Len() != c.Patterns {
			return fmt.Errorf("soc: core %s: %d explicit cubes, want %d patterns",
				c.Name, c.ExplicitCubes.Len(), c.Patterns)
		}
		for j, cb := range c.ExplicitCubes.Cubes {
			if err := checkExplicitCube(cb, c.ExplicitCubes.NumBits); err != nil {
				return fmt.Errorf("soc: core %s: explicit cube %d: %v", c.Name, j, err)
			}
		}
	}
	return nil
}

// checkExplicitCube holds an attached cube to the form the evaluation
// kernels price: the set's width, and care positions strictly ascending
// and in range. The kernels trust this form — an out-of-range position
// would be priced against a neighbouring cube's bits, and a duplicate
// counted twice — so it is checked here, at the boundary.
func checkExplicitCube(cb *cube.Cube, numBits int) error {
	if cb == nil {
		return fmt.Errorf("nil cube")
	}
	if cb.NumBits != numBits {
		return fmt.Errorf("width %d, want %d", cb.NumBits, numBits)
	}
	prev := -1
	for _, bit := range cb.Care {
		switch {
		case bit.Pos < 0 || bit.Pos >= numBits:
			return fmt.Errorf("care position %d out of range [0,%d)", bit.Pos, numBits)
		case bit.Pos <= prev:
			return fmt.Errorf("care position %d after %d (positions must be strictly ascending)", bit.Pos, prev)
		}
		prev = bit.Pos
	}
	return nil
}

// genSpec maps the core's generator parameters onto the cube package's
// spec — the single translation both TestSet and TestSource share, so
// the materialized and streamed forms describe the same cube sequence.
func (c *Core) genSpec() cube.GenSpec {
	return cube.GenSpec{
		NumBits:      c.StimulusBits(),
		Patterns:     c.Patterns,
		Density:      c.CareDensity,
		DensityDecay: c.DensityDecay,
		Clustering:   c.Clustering,
		Seed:         c.Seed,
		Geometry:     c.ScanChains,
		IOCells:      c.InCells(),
	}
}

// TestSet returns the core's test cubes, generating and caching them on
// first use. The result is shared; callers must not mutate it.
func (c *Core) TestSet() (*cube.Set, error) {
	c.cubesOnce.Do(func() {
		if c.ExplicitCubes != nil {
			c.cubes = c.ExplicitCubes
			return
		}
		c.cubes, c.cubesErr = cube.Generate(c.genSpec())
	})
	return c.cubes, c.cubesErr
}

// TestSource returns a fresh pull-based stream over the core's test
// cubes — the same sequence TestSet materializes, delivered one cube at
// a time so giant test sets are never resident. Unlike TestSet it
// caches nothing (and deliberately does not consult the TestSet cache,
// whose population is exactly the O(test set) allocation streaming
// callers are avoiding); with explicit cubes it streams the attached
// set by reference. Each call returns an independent source, so
// concurrent consumers (worker-pool evaluators) each take their own.
func (c *Core) TestSource() (cube.Source, error) {
	if c.ExplicitCubes != nil {
		return cube.NewSetSource(c.ExplicitCubes), nil
	}
	return cube.NewGenerator(c.genSpec())
}

// StimulusVolumeBits returns NumBits × Patterns as an int64 — the raw
// stimulus image size of the core's test set, used to decide when to
// stream it instead of materializing it. Overflow-safe for any core
// passing Validate.
func (c *Core) StimulusVolumeBits() int64 {
	return int64(c.StimulusBits()) * int64(c.Patterns)
}

// StreamsCubes is the residency rule of every consumer of the core's
// cubes: a core whose raw stimulus image reaches 2^31 bits streams from
// TestSource at O(pattern) residency; a smaller one reads its cached
// TestSet, so no consumer re-runs the generator. The consumers are the
// table build's evaluator (core.NewEvaluator, which keeps a smaller
// core's set as one window), the dictionary sweep of technique
// selection, the simulator's replays (sim.RunTDCCore, sim.RunDictCore),
// the ATE image (atevec), the baselines' core model, the truncation
// planner (truncate.Plan) and the scan-in power estimate
// (power.ScanInPower); all but the evaluator read through Cubes.
func (c *Core) StreamsCubes() bool { return c.StimulusVolumeBits() >= 1<<31 }

// Cubes returns one pass over the core's cubes under StreamsCubes.
func (c *Core) Cubes() (cube.Source, error) {
	if c.StreamsCubes() {
		return c.TestSource()
	}
	ts, err := c.TestSet()
	if err != nil {
		return nil, err
	}
	return cube.NewSetSource(ts), nil
}

// SOC is a core-based system-on-chip.
type SOC struct {
	Name  string
	Cores []*Core
}

// Validate checks the SOC and all its cores.
func (s *SOC) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("soc: SOC with empty name")
	}
	if len(s.Cores) == 0 {
		return fmt.Errorf("soc: SOC %s has no cores", s.Name)
	}
	seen := make(map[string]bool, len(s.Cores))
	for _, c := range s.Cores {
		if err := c.Validate(); err != nil {
			return err
		}
		if seen[c.Name] {
			return fmt.Errorf("soc: SOC %s: duplicate core name %q", s.Name, c.Name)
		}
		seen[c.Name] = true
	}
	return nil
}

// TotalGates sums the gate counts of all cores.
func (s *SOC) TotalGates() int {
	n := 0
	for _, c := range s.Cores {
		n += c.Gates
	}
	return n
}

// TotalScanCells sums the scan cells of all cores.
func (s *SOC) TotalScanCells() int {
	n := 0
	for _, c := range s.Cores {
		n += c.ScanCells()
	}
	return n
}

// InitialVolume returns the summed raw stimulus volume V_i over all
// cores, in bits (Table 3, column 3): each core's StimulusVolumeBits,
// so no test set is generated.
func (s *SOC) InitialVolume() int64 {
	var v int64
	for _, c := range s.Cores {
		v += c.StimulusVolumeBits()
	}
	return v
}

// CoreByName returns the named core, or nil.
func (s *SOC) CoreByName(name string) *Core {
	for _, c := range s.Cores {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// balancedChains splits total cells into n chains whose lengths differ by
// at most one — the usual idealization for benchmark scan structures.
func balancedChains(total, n int) []int {
	if n <= 0 || total <= 0 {
		return nil
	}
	if n > total {
		n = total
	}
	chains := make([]int, n)
	base, rem := total/n, total%n
	for i := range chains {
		chains[i] = base
		if i < rem {
			chains[i]++
		}
	}
	return chains
}
