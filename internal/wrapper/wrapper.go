// Package wrapper implements IEEE-1500-style test wrapper design for
// embedded cores: partitioning a core's internal scan chains and wrapper
// input/output cells into m balanced wrapper chains, following the
// Design_wrapper heuristic of Iyengar, Chakrabarty and Marinissen
// (ITC'01 / JETTA'02). The resulting scan-in/scan-out depths drive both
// the classic (uncompressed) test-time formula
//
//	τ = (1 + max(si, so))·p + min(si, so)
//
// and, through the stimulus map and the Slicer built on it, the slice
// structure the selective-encoding and dictionary decompressors see.
package wrapper

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"soctap/internal/cube"
	"soctap/internal/selenc"
	"soctap/internal/soc"
)

// Chain is one wrapper chain: an ordered concatenation of wrapper input
// cells, internal scan chains, and wrapper output cells.
type Chain struct {
	InCells    int   // wrapper input cells at the head of the chain
	ScanChains []int // indices into the core's ScanChains, in chain order
	OutCells   int   // wrapper output cells at the tail
	ScanLen    int   // total internal scan cells on this chain
}

// StimulusLen returns the chain's scan-in length: input cells plus scan
// cells.
func (c *Chain) StimulusLen() int { return c.InCells + c.ScanLen }

// ResponseLen returns the chain's scan-out length: scan cells plus output
// cells.
func (c *Chain) ResponseLen() int { return c.OutCells + c.ScanLen }

// Design is a complete wrapper configuration for one core.
type Design struct {
	Core    *soc.Core
	M       int // number of wrapper chains
	Chains  []Chain
	ScanIn  int // si: longest scan-in (stimulus) chain
	ScanOut int // so: longest scan-out (response) chain

	refsOnce sync.Once
	refs     []CellRef
}

// New builds a wrapper design with m wrapper chains using best-fit-
// decreasing packing of scan chains and water-filling of I/O cells. m
// must be in [1, core.MaxWrapperChains()].
func New(core *soc.Core, m int) (*Design, error) {
	if m < 1 {
		return nil, fmt.Errorf("wrapper: %s: m = %d, must be >= 1", core.Name, m)
	}
	if max := core.MaxWrapperChains(); m > max {
		return nil, fmt.Errorf("wrapper: %s: m = %d exceeds max useful wrapper chains %d", core.Name, m, max)
	}

	d := &Design{Core: core, M: m, Chains: make([]Chain, m)}

	// Step 1: best-fit-decreasing on internal scan chains. Take the scan
	// chains by length (descending, ties by index) and place each on the
	// wrapper chain with minimum accumulated scan length (ties by chain
	// index). Both orders are packed integer keys: length and load stay
	// below 2^32 (soc.MaxStimulusBits), so one compare orders a pair.
	keys := make([]uint64, len(core.ScanChains))
	for i, l := range core.ScanChains {
		keys[i] = uint64(math.MaxUint32-uint32(l))<<32 | uint64(i)
	}
	slices.Sort(keys)
	// Min-load priority queue of load<<32 | chain keys. The order is a
	// strict total order, so the popped minimum is unique at every step.
	// Chain i starts at slot i with load 0, already a valid min-heap.
	h := make(loadHeap, m)
	for i := range h {
		h[i] = uint64(i)
	}
	count := make([]int, m) // scan chains placed on each wrapper chain
	for i, key := range keys {
		sc, ch := uint32(key), uint32(h[0])
		keys[i] = uint64(ch)<<32 | uint64(sc) // placement i, by wrapper chain
		count[ch]++
		d.Chains[ch].ScanLen += core.ScanChains[sc]
		h[0] += uint64(core.ScanChains[sc]) << 32
		h.siftDown(0)
	}
	// One backing array holds every wrapper chain's scan chains, each
	// run in placement order (a counting sort of the placements).
	end := 0
	for ch, n := range count {
		count[ch] = end
		end += n
	}
	order := make([]int, len(keys))
	for _, key := range keys {
		ch := key >> 32
		order[count[ch]] = int(uint32(key))
		count[ch]++
	}
	start := 0
	for ch, stop := range count {
		if stop > start {
			d.Chains[ch].ScanChains = order[start:stop:stop]
		}
		start = stop
	}

	// Steps 2 and 3: water-fill wrapper input cells over scan-in heights
	// and wrapper output cells over scan-out heights. Both start from the
	// chains' scan lengths, so one ascending (height, chain) order — the
	// heap's final keys, sorted — serves both.
	slices.Sort(h)
	waterFill(h, core.InCells(), func(ch, add int) { d.Chains[ch].InCells = add })
	waterFill(h, core.OutCells(), func(ch, add int) { d.Chains[ch].OutCells = add })

	for i := range d.Chains {
		if l := d.Chains[i].StimulusLen(); l > d.ScanIn {
			d.ScanIn = l
		}
		if l := d.Chains[i].ResponseLen(); l > d.ScanOut {
			d.ScanOut = l
		}
	}
	return d, nil
}

// loadHeap is the BFD min-load priority queue of packed load<<32 | chain
// keys, without container/heap, whose interface{}-based Push/Pop would
// box a key on every scan-chain placement.
type loadHeap []uint64

// siftDown restores the heap property after h[i]'s key increased.
func (h loadHeap) siftDown(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		min := l
		if r := l + 1; r < len(h) && h[r] < h[l] {
			min = r
		}
		if h[min] >= h[i] {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// waterFill distributes n unit cells over bins so that the resulting
// maximum height is minimized (classic water-filling). order lists the
// bins as height<<32 | bin keys in ascending order; fill receives the
// addition of every bin at or below the final waterline (the other bins
// receive nothing).
func waterFill(order []uint64, n int, fill func(bin, add int)) {
	if n <= 0 || len(order) == 0 {
		return
	}
	height := func(i int) int { return int(order[i] >> 32) }

	// Raise a waterline over the sorted bins: absorb whole tiers while
	// the budget allows, then spread the remainder evenly.
	level := height(0)
	filled := 0 // cells already allocated below the waterline
	count := 1  // bins at or below the waterline
	for count < len(order) {
		next := height(count)
		cost := (next - level) * count
		if filled+cost >= n {
			break
		}
		filled += cost
		level = next
		count++
	}
	// Spread the remaining cells over `count` bins starting at `level`.
	remaining := n - filled
	per := remaining / count
	extra := remaining % count
	for i := 0; i < count; i++ {
		add := level + per - height(i)
		if i < extra {
			add++
		}
		fill(int(uint32(order[i])), add)
	}
}

// TestTime returns the core test application time in clock cycles for
// this wrapper design without compression, using the standard formula
// τ = (1 + max(si,so))·p + min(si,so) with p test patterns.
func (d *Design) TestTime() int64 {
	p := int64(d.Core.Patterns)
	si, so := int64(d.ScanIn), int64(d.ScanOut)
	return (1+max(si, so))*p + min(si, so)
}

// StimulusVolume returns the ATE stimulus storage in bits for this
// design without compression: per pattern, si slices of m bits each.
func (d *Design) StimulusVolume() int64 {
	return int64(d.Core.Patterns) * int64(d.ScanIn) * int64(d.M)
}

// CellRef locates one stimulus cell inside a wrapper design.
type CellRef struct {
	Chain int32 // wrapper chain index
	Depth int32 // position from the chain head; loaded at slice `Depth`
}

// StimulusMap returns, for every flat stimulus cell of the core, its
// wrapper chain and depth. Flat stimulus layout: wrapper input cells
// first (in chain order), then the core's scan chains in declaration
// order. Depth d means the cell receives its value in scan-in slice d of
// each pattern.
//
// The map is computed once per design and the same slice is returned to
// every caller (it is safe for concurrent use); callers must treat it
// as read-only.
func (d *Design) StimulusMap() []CellRef {
	d.refsOnce.Do(func() { d.refs = d.buildStimulusMap() })
	return d.refs
}

func (d *Design) buildStimulusMap() []CellRef {
	refs := make([]CellRef, d.Core.StimulusBits())

	// Wrapper input cells: chains take their InCells count in chain
	// order from the flat prefix [0, InCells).
	flat := 0
	for ci := range d.Chains {
		for k := 0; k < d.Chains[ci].InCells; k++ {
			refs[flat] = CellRef{Chain: int32(ci), Depth: int32(k)}
			flat++
		}
	}

	// Scan chains: flat offsets follow declaration order; chain-internal
	// depth follows the order the wrapper concatenates them, after the
	// input cells.
	scanFlatStart := make([]int, len(d.Core.ScanChains))
	off := d.Core.InCells()
	for i, l := range d.Core.ScanChains {
		scanFlatStart[i] = off
		off += l
	}
	for ci := range d.Chains {
		depth := d.Chains[ci].InCells
		for _, scIdx := range d.Chains[ci].ScanChains {
			start := scanFlatStart[scIdx]
			for k := 0; k < d.Core.ScanChains[scIdx]; k++ {
				refs[start+k] = CellRef{Chain: int32(ci), Depth: int32(depth)}
				depth++
			}
		}
	}
	return refs
}

// Slicer groups one pattern at a time into its ScanIn scan slices: the
// slice structure both compression codecs encode. Its scratch is reused
// across patterns.
type Slicer struct {
	refs []CellRef
	care []selenc.CareBit // the pattern's (chain, value) care bits, grouped by scan depth
	end  []int            // end[d]: end of depth d's group in care
}

// NewSlicer returns a slicer over the design's stimulus map.
func NewSlicer(d *Design) *Slicer {
	return &Slicer{refs: d.StimulusMap(), end: make([]int, d.ScanIn)}
}

// Scatter groups the cube's care bits by the scan depth their cell loads
// at (a counting sort) and sorts each group by chain.
func (s *Slicer) Scatter(cb *cube.Cube) {
	clear(s.end)
	for _, bit := range cb.Care {
		s.end[s.refs[bit.Pos].Depth]++
	}
	n := 0
	for d, count := range s.end {
		s.end[d] = n // start of depth d until the placement pass below
		n += count
	}
	s.care = slices.Grow(s.care[:0], n)[:n]
	for _, bit := range cb.Care {
		r := s.refs[bit.Pos]
		s.care[s.end[r.Depth]] = selenc.CareBit{Pos: int(r.Chain), Value: bit.Value}
		s.end[r.Depth]++
	}
	for d := range s.end {
		selenc.SortCare(s.Slice(d))
	}
}

// Slice returns the care bits, as (chain, value) pairs sorted by chain,
// of the last scattered pattern's slice at scan depth d.
func (s *Slicer) Slice(d int) []selenc.CareBit {
	if d == 0 {
		return s.care[:s.end[0]]
	}
	return s.care[s.end[d-1]:s.end[d]]
}
