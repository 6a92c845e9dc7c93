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

	// scan is the one backing array of every chain's ScanChains, kept
	// so a Packer can rebuild the design in place.
	scan []int

	refsOnce sync.Once
	refs     []CellRef
}

// checkM rejects wrapper chain counts outside [1, MaxWrapperChains].
func checkM(core *soc.Core, m int) error {
	if m < 1 {
		return fmt.Errorf("wrapper: %s: m = %d, must be >= 1", core.Name, m)
	}
	if max := core.MaxWrapperChains(); m > max {
		return fmt.Errorf("wrapper: %s: m = %d exceeds max useful wrapper chains %d", core.Name, m, max)
	}
	return nil
}

// New builds a wrapper design with m wrapper chains using best-fit-
// decreasing packing of scan chains and water-filling of I/O cells. m
// must be in [1, core.MaxWrapperChains()]. It is the one-shot form of
// Packer.Build: it sorts the scan chains itself and keeps no scratch.
func New(core *soc.Core, m int) (*Design, error) {
	if err := checkM(core, m); err != nil {
		return nil, err
	}
	d := &Design{}
	keys, loaded := byLength(core.ScanChains)
	var s packScratch
	s.pack(d, core, m, keys, loaded, keys)
	return d, nil
}

// Packer builds the wrapper designs of one core at any m. It sorts the
// core's scan chains by length once, and builds each design into
// storage the caller owns, reusing its own scratch, so once its
// buffers have grown to the largest m built a Build allocates nothing.
// A Packer is not safe for concurrent use.
type Packer struct {
	core   *soc.Core
	byLen  []uint64 // scan chains longest first, ties by index (see byLength)
	loaded int      // scan chains of length >= 1: a prefix of byLen
	at     []uint64 // per placement: wrapper chain<<32 | scan chain
	s      packScratch
}

// NewPacker returns a packer for the core's designs.
func NewPacker(core *soc.Core) *Packer {
	byLen, loaded := byLength(core.ScanChains)
	return &Packer{core: core, byLen: byLen, loaded: loaded, at: make([]uint64, len(byLen))}
}

// Build writes the design for m wrapper chains into d, the same design
// New builds, reusing d's Chains, its chains' one ScanChains backing
// array and the packer's scratch. It resets d's StimulusMap memo, so
// every slice obtained from d before the call is stale after it. A
// design may not be shared between goroutines while it is rebuilt. On
// an error (m outside [1, MaxWrapperChains]) d is left as it was.
func (p *Packer) Build(d *Design, m int) error {
	if err := checkM(p.core, m); err != nil {
		return err
	}
	p.s.pack(d, p.core, m, p.byLen, p.loaded, p.at)
	return nil
}

// byLength returns the scan chains as packed keys, longest first with
// ties by index: (MaxUint32-length)<<32 | index, sorted ascending.
// Lengths stay below 2^32 (soc.MaxStimulusBits), so one compare orders
// a pair. loaded counts the chains of length >= 1, which soc.Validate
// requires of every chain but an unvalidated core may lack; they form
// a prefix of the order.
func byLength(lens []int) (keys []uint64, loaded int) {
	keys = make([]uint64, len(lens))
	for i, l := range lens {
		keys[i] = uint64(math.MaxUint32-uint32(l))<<32 | uint64(i)
		if l > 0 {
			loaded++
		}
	}
	slices.Sort(keys)
	return keys, loaded
}

// packScratch is the best-fit-decreasing scratch of one build: the
// min-load heap, later the ascending (load, chain) order, and the
// per-chain counts, grown to the largest m built.
type packScratch struct {
	heap  loadHeap
	count []int
}

// pack builds the design for m wrapper chains into d, the one
// best-fit-decreasing implementation behind New and Packer.Build.
// byLen and loaded are byLength's results for the core; at receives
// the placements and may alias byLen (placement i reads byLen[i]
// before it writes at[i]).
//
// Step 1 is best-fit-decreasing on the internal scan chains: each, in
// byLen order, goes to the wrapper chain with the least accumulated
// scan length, ties by chain index. While an empty wrapper chain
// remains, a loaded chain (length >= 1) goes to the lowest-index empty
// one, so placement i < min(m, loaded) lands on chain i without a heap.
// Chains 0..i then carry non-increasing loads, so their ascending
// (load, chain) order is their equal-load runs from last to first (see
// ascending): with every scan chain placed directly that order is
// final, and otherwise it is the heap the remaining placements pop
// from. Those end with max − min load at most the longest scan chain,
// so a counting sort over the load span (when it is below m) puts the
// final loads in order in O(m + span). Zero-length scan chains, which
// soc.Validate rejects but New accepts, sort last and take the heap.
func (s *packScratch) pack(d *Design, core *soc.Core, m int, byLen []uint64, loaded int, at []uint64) {
	lens := core.ScanChains
	n := len(byLen)
	chains := slices.Grow(d.Chains[:0], m)[:m]
	clear(chains)
	*d = Design{Core: core, M: m, Chains: chains, scan: slices.Grow(d.scan[:0], n)[:n]}
	s.heap = slices.Grow(s.heap[:0], m)
	s.count = slices.Grow(s.count[:0], m)
	h, count := s.heap[:m], s.count[:m]

	direct := min(m, loaded)
	clear(count) // scan chains placed on each wrapper chain
	for i, key := range byLen[:direct] {
		chains[i].ScanLen = lens[uint32(key)]
		count[i] = 1
	}
	if direct < n {
		ascending(h, chains, direct)
		for i := direct; i < n; i++ {
			sc, ch := uint32(byLen[i]), uint32(h[0])
			at[i] = uint64(ch)<<32 | uint64(sc)
			count[ch]++
			chains[ch].ScanLen += lens[sc]
			h[0] += uint64(lens[sc]) << 32
			h.siftDown(0)
		}
	}

	// One backing array holds every wrapper chain's scan chains, each
	// run in placement order (a counting sort of the placements).
	end := 0
	for ch, c := range count {
		count[ch] = end
		end += c
	}
	for ch, key := range byLen[:direct] {
		d.scan[count[ch]] = int(uint32(key))
		count[ch]++
	}
	for _, a := range at[direct:n] {
		d.scan[count[a>>32]] = int(uint32(a))
		count[a>>32]++
	}
	start := 0
	for ch, stop := range count {
		if stop > start {
			chains[ch].ScanChains = d.scan[start:stop:stop]
		}
		start = stop
	}

	// Steps 2 and 3: water-fill wrapper input cells over scan-in heights
	// and wrapper output cells over scan-out heights. Both start from the
	// chains' scan lengths, so one ascending (height, chain) order serves
	// both.
	switch {
	case direct == n:
		ascending(h, chains, n)
	case !countingSort(h, chains, count):
		slices.Sort(h)
	}
	waterFill(h, core.InCells(), func(ch, add int) { chains[ch].InCells = add })
	waterFill(h, core.OutCells(), func(ch, add int) { chains[ch].OutCells = add })

	for i := range chains {
		d.ScanIn = max(d.ScanIn, chains[i].StimulusLen())
		d.ScanOut = max(d.ScanOut, chains[i].ResponseLen())
	}
}

// ascending writes the ascending (load, chain) keys of chains into h
// when chains[:k] carry non-increasing loads and the rest none: the
// empty chains first, then the loaded chains' equal-load runs from last
// to first, each run by chain index.
func ascending(h loadHeap, chains []Chain, k int) {
	i := 0
	for ch := k; ch < len(chains); ch++ {
		h[i] = uint64(ch)
		i++
	}
	for end := k; end > 0; {
		load := chains[end-1].ScanLen
		start := end - 1
		for start > 0 && chains[start-1].ScanLen == load {
			start--
		}
		for ch := start; ch < end; ch++ {
			h[i] = uint64(load)<<32 | uint64(ch)
			i++
		}
		end = start
	}
}

// countingSort writes the ascending (load, chain) keys of chains into h
// by a counting sort over the load span, using buckets as its counts,
// and reports false, writing nothing, when the span is not below
// len(buckets).
func countingSort(h loadHeap, chains []Chain, buckets []int) bool {
	lo, hi := chains[0].ScanLen, chains[0].ScanLen
	for i := range chains {
		lo, hi = min(lo, chains[i].ScanLen), max(hi, chains[i].ScanLen)
	}
	if hi-lo >= len(buckets) {
		return false
	}
	b := buckets[:hi-lo+1]
	clear(b)
	for i := range chains {
		b[chains[i].ScanLen-lo]++
	}
	end := 0
	for l, c := range b {
		b[l] = end
		end += c
	}
	for ch := range chains {
		l := chains[ch].ScanLen
		h[b[l-lo]] = uint64(l)<<32 | uint64(ch)
		b[l-lo]++
	}
	return true
}

// loadHeap is the BFD min-load priority queue of packed load<<32 | chain
// keys, without container/heap, whose interface{}-based Push/Pop would
// box a key on every scan-chain placement. The order is a strict total
// order, so the popped minimum is unique at every step, whatever the
// heap's layout.
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
// slice structure both compression codecs encode. A slice is word masks:
// depth d of the last scattered pattern is nw = ⌈M/64⌉ pairs, a care
// word then a value word, with chain c at bit c%64 of pair c/64, the
// layout selenc.AppendEncodeSlice and dictenc's trainer read. A value
// bit is set only where its care bit is. The scratch, 16·ScanIn·nw
// bytes, is reused across patterns.
type Slicer struct {
	refs  []CellRef
	nw    int      // pairs per slice
	pairs []uint64 // depth d at pairs[2·nw·d:], 2·nw words
}

// NewSlicer returns a slicer over the design's stimulus map.
func NewSlicer(d *Design) *Slicer {
	nw := (d.M + 63) / 64
	return &Slicer{refs: d.StimulusMap(), nw: nw, pairs: make([]uint64, 2*nw*d.ScanIn)}
}

// Scatter replaces the slices with the cube's: each care bit ORs its
// chain's bit b into the care word of its depth and, without a branch on
// its value, b & -v into the value word.
func (s *Slicer) Scatter(cb *cube.Cube) {
	clear(s.pairs)
	for _, bit := range cb.Care {
		r := s.refs[bit.Pos]
		i, b := 2*(int(r.Depth)*s.nw+int(r.Chain>>6)), uint64(1)<<(r.Chain&63)
		s.pairs[i] |= b
		s.pairs[i+1] |= b & bit.Mask()
	}
}

// Slice returns the 2·⌈M/64⌉ words of the last scattered pattern's slice
// at scan depth d. They are overwritten by the next Scatter.
func (s *Slicer) Slice(d int) []uint64 {
	return s.pairs[2*s.nw*d : 2*s.nw*(d+1)]
}
