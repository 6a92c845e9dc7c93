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

	"soctap/internal/cube"
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
// through a wrapper with m chains under the given fill strategy. Each
// pattern is priced from its care bits (see wtcCounter), so the work
// per pattern follows its care-bit count, never the m × ScanIn cells of
// the wrapper.
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
	est := &Estimate{Core: c.Name, M: m, Fill: fill, Patterns: src.Len()}
	w := newWTCCounter(d, fill)
	var total int64
	for cb, ok := src.Next(); ok; cb, ok = src.Next() {
		wtc := w.pattern(cb.Care)
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

// wtcCounter prices one pattern's weighted transition count from its
// care bits. Every wrapper chain is ScanIn cells deep, and a transition
// between scan-in slices dep and dep+1 is shifted through the remaining
// ScanIn-1-dep cells. A chain holding no care bit is the fill alone,
// the same on every chain: no transition under zero-fill, every edge
// (ScanIn·(ScanIn-1)/2 in all) under alternate fill, and under slice
// fill the edges around the slices whose care bits fill them with 1 —
// only a slice holding care bits can. The pattern's WTC is m times that
// base, corrected on the edges its care bits touch: each care bit
// replaces its slice's fill on the two edges beside it, and an edge
// between two care bits is corrected once.
type wtcCounter struct {
	refs []wrapper.CellRef
	m    int64
	si   int
	fill FillStrategy
	// marks holds the pattern's care bits by cell, chain·ScanIn + depth:
	// markNone where the fill decides, markZero or markOne where a care
	// bit does. It takes a byte per wrapper cell, made once per call; a
	// pattern sets and clears only its own cells, so a care bit finds its
	// chain neighbours in constant time.
	marks []uint8
	// fills is each slice's fill value, 0 or 1: 0 under zero fill,
	// 0/1/0/1 under alternate fill, and under slice fill the majority of
	// the slice's care bits, set for the slices in depths.
	fills []uint8
	// counts tallies each slice's care bits and depths lists the slices
	// holding any (slice fill only; both are cleared through depths after
	// each pattern).
	counts []sliceCount
	depths []int32
}

// sliceCount is one slice's care bits under slice fill: those that are
// 1 and all of them.
type sliceCount struct{ ones, care int32 }

// Cell marks of wtcCounter.marks: markZero + v marks a care bit of
// value v.
const (
	markNone uint8 = iota
	markZero
	markOne
)

// bitOf is b as a value, 0 or 1. The counter does arithmetic on values
// (edge multiplies a weight by a XOR) rather than branching on them:
// care values are as good as random, and a mispredicted branch per care
// bit costs more than the arithmetic.
func bitOf(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

func newWTCCounter(d *wrapper.Design, fill FillStrategy) *wtcCounter {
	w := &wtcCounter{
		refs: d.StimulusMap(), m: int64(d.M), si: d.ScanIn, fill: fill,
		marks: make([]uint8, d.M*d.ScanIn),
		fills: make([]uint8, d.ScanIn),
	}
	switch fill {
	case FillSlice:
		w.counts = make([]sliceCount, d.ScanIn)
	case FillAlternate:
		for dep := range w.fills {
			w.fills[dep] = uint8(dep % 2)
		}
	}
	return w
}

// weight is the WTC of a transition between slices dep and dep+1.
func (w *wtcCounter) weight(dep int) int64 { return int64(w.si - 1 - dep) }

// edge prices a transition between values a and b, 0 or 1: the edge's
// weight when they differ, else 0.
func (w *wtcCounter) edge(dep int, a, b uint8) int64 { return w.weight(dep) * int64(a^b) }

// pattern returns the WTC of the pattern with the given care bits,
// whose positions are distinct.
func (w *wtcCounter) pattern(bits []cube.CareBit) int64 {
	si, fills, slice := w.si, w.fills, w.fill == FillSlice
	for _, bit := range bits {
		r := w.refs[bit.Pos]
		v := bitOf(bit.Value)
		w.marks[int(r.Chain)*si+int(r.Depth)] = markZero + v
		if slice {
			n := &w.counts[r.Depth]
			if n.care == 0 {
				w.depths = append(w.depths, r.Depth)
			}
			n.care++
			n.ones += int32(v)
		}
	}

	var base int64
	switch w.fill {
	case FillAlternate:
		base = int64(si) * int64(si-1) / 2
	case FillSlice:
		for _, dep := range w.depths {
			n := w.counts[dep]
			fills[dep] = bitOf(n.ones*2 > n.care)
		}
		// A 1-filled slice's edges to 0-filled neighbours: f&neighbour
		// differs from f only there. An edge between two 1-filled slices
		// does not switch.
		for _, d := range w.depths {
			dep := int(d)
			f := fills[dep]
			if dep > 0 {
				base += w.edge(dep-1, f, f&fills[dep-1])
			}
			if dep+1 < si {
				base += w.edge(dep, f, f&fills[dep+1])
			}
		}
	}
	wtc := w.m * base

	for _, bit := range bits {
		r := w.refs[bit.Pos]
		dep := int(r.Depth)
		cell := int(r.Chain)*si + dep
		v, f := bitOf(bit.Value), fills[dep]
		// The edge to the slice before, unless a care bit there
		// corrected it as its edge to this one.
		if dep > 0 && w.marks[cell-1] == markNone {
			prev := fills[dep-1]
			wtc += w.edge(dep-1, prev, v) - w.edge(dep-1, prev, f)
		}
		// The edge to the slice after, whose value is a care bit's or
		// the fill's.
		if dep+1 < si {
			next := fills[dep+1]
			nv := next
			if mark := w.marks[cell+1]; mark != markNone {
				nv = mark - markZero
			}
			wtc += w.edge(dep, v, nv) - w.edge(dep, f, next)
		}
	}

	for _, bit := range bits {
		r := w.refs[bit.Pos]
		w.marks[int(r.Chain)*si+int(r.Depth)] = markNone
	}
	for _, dep := range w.depths {
		w.counts[dep], fills[dep] = sliceCount{}, 0
	}
	w.depths = w.depths[:0]
	return wtc
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
