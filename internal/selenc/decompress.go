package selenc

import (
	"fmt"

	"soctap/internal/bitvec"
)

// Decompressor is the on-chip decompressor of one core with m outputs,
// modelled cycle-accurately: it consumes one w-bit codeword per ATE
// clock cycle and emits the m-bit scan slices it rebuilds. It is the
// codec's one decoder. Feed it one codeword per cycle with Step;
// whenever a codeword completes the previous slice, the slice is
// returned. Call Flush after the last codeword to retrieve the final
// slice.
//
// The machine builds slices in two recycled buffers, alternating at
// each header, so stepping allocates nothing once both exist. A slice
// returned by Step or Flush therefore stays valid only until the next
// header is stepped; a caller that keeps slices must clone them.
type Decompressor struct {
	m       int
	k       int
	nGroups int

	cur          *bitvec.Vector    // slice under construction, or nil
	bufs         [2]*bitvec.Vector // slice buffers, alternated per header
	next         int               // index of the buffer the next header takes
	pendingGroup int               // group index awaiting its data codeword, or -1
	cycles       int64             // codewords consumed
}

// New returns a decompressor with m slice outputs.
func New(m int) (*Decompressor, error) {
	if m < 1 {
		return nil, fmt.Errorf("selenc: invalid output width %d", m)
	}
	return &Decompressor{m: m, k: PayloadBits(m), nGroups: GroupCount(m), pendingGroup: -1}, nil
}

// M returns the number of slice outputs.
func (d *Decompressor) M() int { return d.m }

// Step consumes one codeword. If the codeword is a header and a slice
// was under construction, that completed slice is returned (the hardware
// transfers it to the wrapper chains in the same cycle the header of the
// next slice arrives).
func (d *Decompressor) Step(cw Codeword) (*bitvec.Vector, error) {
	d.cycles++
	if d.pendingGroup >= 0 && cw.Prefix != PrefixData {
		return nil, fmt.Errorf("selenc: cycle %d: expected data codeword for group %d", d.cycles, d.pendingGroup)
	}
	switch cw.Prefix {
	case PrefixHeader:
		done := d.cur
		if d.bufs[d.next] == nil {
			d.bufs[d.next] = bitvec.New(d.m)
		}
		d.cur = d.bufs[d.next]
		d.next ^= 1
		d.cur.SetAll(cw.Payload&headerFillBit != 0)
		return done, nil
	case PrefixSingle:
		if d.cur == nil {
			return nil, fmt.Errorf("selenc: cycle %d: single-bit codeword before any header", d.cycles)
		}
		pos := int(cw.Payload)
		if pos >= d.m {
			return nil, fmt.Errorf("selenc: cycle %d: target index %d out of range [0,%d)", d.cycles, pos, d.m)
		}
		// A target bit carries the complement of the fill, the current
		// value of its (so far untouched) position.
		d.cur.Set(pos, !d.cur.Get(pos))
		return nil, nil
	case PrefixGroup:
		if d.cur == nil {
			return nil, fmt.Errorf("selenc: cycle %d: group codeword before any header", d.cycles)
		}
		g := int(cw.Payload)
		if g >= d.nGroups {
			return nil, fmt.Errorf("selenc: cycle %d: group index %d out of range [0,%d)", d.cycles, g, d.nGroups)
		}
		d.pendingGroup = g
		return nil, nil
	case PrefixData:
		if d.pendingGroup < 0 {
			return nil, fmt.Errorf("selenc: cycle %d: stray data codeword", d.cycles)
		}
		base := d.pendingGroup * d.k
		d.cur.WriteBits(base, uint64(cw.Payload), min(d.k, d.m-base))
		d.pendingGroup = -1
		return nil, nil
	default:
		return nil, fmt.Errorf("selenc: cycle %d: invalid prefix %d", d.cycles, cw.Prefix)
	}
}

// Flush terminates the stream and returns the final slice, if any.
func (d *Decompressor) Flush() (*bitvec.Vector, error) {
	if d.pendingGroup >= 0 {
		return nil, fmt.Errorf("selenc: stream ended inside a group-copy pair")
	}
	done := d.cur
	d.cur = nil
	return done, nil
}

// Cost is the estimated hardware cost of one decompressor instance.
type Cost struct {
	FlipFlops int
	Gates     int
}

// HardwareCost estimates the silicon cost of a decompressor with m
// outputs, following the structure reported in the paper: a fixed
// controller of 5 flip-flops and 23 combinational gates, plus an
// (w,m)-dependent datapath of an m-bit slice register, a k-bit
// payload/counter register, and index-decode logic.
func HardwareCost(m int) Cost {
	k := PayloadBits(m)
	return Cost{
		FlipFlops: m + k + 5,
		Gates:     23 + 6*k + m/2,
	}
}
