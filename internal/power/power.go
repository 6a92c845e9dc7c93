// Package power estimates scan test power from test cubes using the
// standard weighted-transition-count (WTC) model (Sankaralingam, Oruganti
// & Touba): a transition entering a scan chain early is shifted through
// more cells and therefore dissipates proportionally more switching
// energy. Power estimates close the loop with the power-constrained
// scheduler (sched.GreedyPower): instead of arbitrary per-core ratings,
// the SOC plan can use WTC derived from the very stimuli the planner
// delivers — including the effect of the X-fill strategy chosen by the
// compression scheme.
package power

import (
	"fmt"

	"soctap/internal/soc"
	"soctap/internal/wrapper"
)

// FillStrategy resolves don't-care stimulus bits for power estimation.
type FillStrategy int

const (
	// FillZero models direct access with 0-fill — the classic
	// low-power fill.
	FillZero FillStrategy = iota
	// FillSlice models the selective-encoding decompressor: every X in
	// a slice takes the slice's majority care value.
	FillSlice
	// FillAlternate is the pessimistic reference: X bits alternate
	// 0/1/0/1 along each chain, maximizing transitions.
	FillAlternate
)

// String names the strategy.
func (f FillStrategy) String() string {
	switch f {
	case FillZero:
		return "zero-fill"
	case FillSlice:
		return "slice-fill"
	case FillAlternate:
		return "alternate-fill"
	default:
		return fmt.Sprintf("FillStrategy(%d)", int(f))
	}
}

// Estimate summarizes scan-in switching activity for one core and
// wrapper configuration.
type Estimate struct {
	Core     string
	M        int
	Fill     FillStrategy
	Patterns int
	// MeanWTC is the average weighted transition count per pattern
	// (summed over all wrapper chains).
	MeanWTC float64
	// PeakWTC is the maximum per-pattern WTC — the number a thermal
	// ceiling must respect.
	PeakWTC int64
}

// ScanInPower computes WTC estimates for the core's scan-in stimuli
// through a wrapper with m chains under the given fill strategy.
func ScanInPower(c *soc.Core, m int, fill FillStrategy) (*Estimate, error) {
	d, err := wrapper.New(c, m)
	if err != nil {
		return nil, err
	}
	// One pass of soc.Core.Cubes: a core at or above the residency
	// threshold streams.
	src, err := c.Cubes()
	if err != nil {
		return nil, err
	}
	refs := d.StimulusMap()
	si := d.ScanIn

	est := &Estimate{Core: c.Name, M: m, Fill: fill, Patterns: src.Len()}

	// Per-pattern dense reconstruction: value[ch][depth]. Reused across
	// patterns; care[] marks specified cells per pattern.
	type cell struct {
		specified bool
		value     bool
	}
	grid := make([][]cell, m)
	for ch := range grid {
		grid[ch] = make([]cell, si)
	}
	sliceOnes := make([]int, si)
	sliceCare := make([]int, si)

	var total int64
	for cb, ok := src.Next(); ok; cb, ok = src.Next() {
		for ch := range grid {
			for dep := range grid[ch] {
				grid[ch][dep] = cell{}
			}
		}
		for i := range sliceOnes {
			sliceOnes[i], sliceCare[i] = 0, 0
		}
		for _, bit := range cb.Care {
			r := refs[bit.Pos]
			grid[r.Chain][r.Depth] = cell{specified: true, value: bit.Value}
			sliceCare[r.Depth]++
			if bit.Value {
				sliceOnes[r.Depth]++
			}
		}
		// Resolve fills.
		for dep := 0; dep < si; dep++ {
			var f bool
			switch fill {
			case FillZero:
				f = false
			case FillSlice:
				f = sliceOnes[dep]*2 > sliceCare[dep]
			}
			for ch := 0; ch < m; ch++ {
				if grid[ch][dep].specified {
					continue
				}
				v := f
				if fill == FillAlternate {
					v = dep%2 == 1
				}
				grid[ch][dep].value = v
			}
		}
		// WTC: a transition between scan-in slices dep and dep+1 on a
		// chain is shifted through the remaining (si-1-dep) cells.
		var wtc int64
		for ch := 0; ch < m; ch++ {
			row := grid[ch]
			for dep := 0; dep+1 < si; dep++ {
				if row[dep].value != row[dep+1].value {
					wtc += int64(si - 1 - dep)
				}
			}
		}
		total += wtc
		if wtc > est.PeakWTC {
			est.PeakWTC = wtc
		}
	}
	if est.Patterns > 0 {
		est.MeanWTC = float64(total) / float64(est.Patterns)
	}
	return est, nil
}

// Profile computes per-core peak WTC values for an SOC under a given
// configuration choice (wrapper width per core), scaled to integer
// power units for sched.GreedyPower. The scale divisor keeps the
// numbers in a tractable range; 0 defaults to 1000.
func Profile(s *soc.SOC, chains func(c *soc.Core) int, fill FillStrategy, scale int64) ([]int, error) {
	if scale <= 0 {
		scale = 1000
	}
	out := make([]int, len(s.Cores))
	for i, c := range s.Cores {
		m := chains(c)
		if m < 1 || m > c.MaxWrapperChains() {
			return nil, fmt.Errorf("power: core %s: invalid wrapper width %d", c.Name, m)
		}
		est, err := ScanInPower(c, m, fill)
		if err != nil {
			return nil, err
		}
		p := est.PeakWTC / scale
		if p < 1 {
			p = 1
		}
		out[i] = int(p)
	}
	return out, nil
}

// FillOfConfigCodec maps a planner codec choice to the fill strategy its
// hardware implies: selective encoding fills per slice; everything else
// is modeled as 0-fill. The codec names mirror the core package's
// constants (duplicated here to keep this substrate free of planner
// dependencies).
func FillOfConfigCodec(codec string) FillStrategy {
	if codec == "selenc" {
		return FillSlice
	}
	return FillZero
}
