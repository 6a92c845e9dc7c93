// Package decomp models the on-chip selective-encoding decompressor: a
// cycle-accurate behavioral state machine that consumes one w-bit
// codeword per ATE clock cycle and emits m-bit scan slices into the
// wrapper chains, plus a hardware-cost estimate used for the "<1% of a
// million-gate design" claim in the paper.
package decomp

import (
	"fmt"

	"soctap/internal/bitvec"
	"soctap/internal/selenc"
)

// Decompressor is the behavioral model of one core-level decompressor
// instance with m outputs. Feed it one codeword per cycle with Step;
// whenever a codeword completes the previous slice, the slice is
// returned. Call Flush after the last codeword to retrieve the final
// slice.
//
// The machine builds slices in two recycled buffers, alternating at
// each header, so stepping allocates nothing once both exist. A slice
// returned by Step or Flush therefore stays valid only until the next
// header is stepped; a caller that keeps slices must clone them, as Run
// does.
type Decompressor struct {
	m       int
	k       int
	nGroups int

	cur          *bitvec.Vector    // slice under construction, or nil
	bufs         [2]*bitvec.Vector // slice buffers, alternated per header
	next         int               // index of the buffer the next header takes
	pendingGroup int               // group index awaiting its data codeword, or -1
	cycles       int64             // codewords consumed
	slices       int64             // slices emitted
}

// New returns a decompressor with m slice outputs.
func New(m int) (*Decompressor, error) {
	if m < 1 {
		return nil, fmt.Errorf("decomp: invalid output width %d", m)
	}
	return &Decompressor{
		m:            m,
		k:            selenc.PayloadBits(m),
		nGroups:      selenc.GroupCount(m),
		pendingGroup: -1,
	}, nil
}

// M returns the number of slice outputs.
func (d *Decompressor) M() int { return d.m }

// InputWidth returns the decompressor's TAM-side width w.
func (d *Decompressor) InputWidth() int { return selenc.CodewordWidth(d.m) }

// Cycles returns the number of codewords consumed so far. One codeword
// is one ATE clock cycle on the w input wires.
func (d *Decompressor) Cycles() int64 { return d.cycles }

// Slices returns the number of completed slices emitted so far.
func (d *Decompressor) Slices() int64 { return d.slices }

// Step consumes one codeword. If the codeword is a header and a slice
// was under construction, that completed slice is returned (the hardware
// transfers it to the wrapper chains in the same cycle the header of the
// next slice arrives).
func (d *Decompressor) Step(cw selenc.Codeword) (*bitvec.Vector, error) {
	d.cycles++
	if d.pendingGroup >= 0 && cw.Prefix != selenc.PrefixData {
		return nil, fmt.Errorf("decomp: cycle %d: expected data codeword for group %d", d.cycles, d.pendingGroup)
	}
	switch cw.Prefix {
	case selenc.PrefixHeader:
		done := d.cur
		if d.bufs[d.next] == nil {
			d.bufs[d.next] = bitvec.New(d.m)
		}
		d.cur = d.bufs[d.next]
		d.next ^= 1
		d.cur.SetAll(cw.Payload&1 != 0) // fill flag
		if done != nil {
			d.slices++
		}
		return done, nil
	case selenc.PrefixSingle:
		if d.cur == nil {
			return nil, fmt.Errorf("decomp: cycle %d: single-bit codeword before any header", d.cycles)
		}
		pos := int(cw.Payload)
		if pos >= d.m {
			return nil, fmt.Errorf("decomp: cycle %d: target index %d out of range [0,%d)", d.cycles, pos, d.m)
		}
		d.cur.Set(pos, !d.cur.Get(pos))
		return nil, nil
	case selenc.PrefixGroup:
		if d.cur == nil {
			return nil, fmt.Errorf("decomp: cycle %d: group codeword before any header", d.cycles)
		}
		g := int(cw.Payload)
		if g >= d.nGroups {
			return nil, fmt.Errorf("decomp: cycle %d: group index %d out of range [0,%d)", d.cycles, g, d.nGroups)
		}
		d.pendingGroup = g
		return nil, nil
	case selenc.PrefixData:
		if d.pendingGroup < 0 {
			return nil, fmt.Errorf("decomp: cycle %d: stray data codeword", d.cycles)
		}
		base := d.pendingGroup * d.k
		d.cur.WriteBits(base, uint64(cw.Payload), min(d.k, d.m-base))
		d.pendingGroup = -1
		return nil, nil
	default:
		return nil, fmt.Errorf("decomp: cycle %d: invalid prefix %d", d.cycles, cw.Prefix)
	}
}

// Flush terminates the stream and returns the final slice, if any.
func (d *Decompressor) Flush() (*bitvec.Vector, error) {
	if d.pendingGroup >= 0 {
		return nil, fmt.Errorf("decomp: stream ended inside a group-copy pair")
	}
	done := d.cur
	d.cur = nil
	if done != nil {
		d.slices++
	}
	return done, nil
}

// Run decompresses an entire codeword stream, returning all slices. It
// is equivalent to selenc.DecodeStream but exercises the cycle-accurate
// machine. Each slice is cloned out of the recycled buffers.
func (d *Decompressor) Run(stream []selenc.Codeword) ([]*bitvec.Vector, error) {
	var out []*bitvec.Vector
	for _, cw := range stream {
		s, err := d.Step(cw)
		if err != nil {
			return nil, err
		}
		if s != nil {
			out = append(out, s.Clone())
		}
	}
	s, err := d.Flush()
	if err != nil {
		return nil, err
	}
	if s != nil {
		out = append(out, s.Clone())
	}
	return out, nil
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
	k := selenc.PayloadBits(m)
	return Cost{
		FlipFlops: m + k + 5,
		Gates:     23 + 6*k + m/2,
	}
}

// CostFraction returns the decompressor cost as a fraction of a design
// with the given gate count, counting each flip-flop as gateEquivalents
// gates (a common synthesis approximation is ~6).
func (c Cost) CostFraction(designGates, gateEquivalents int) float64 {
	if designGates <= 0 {
		return 0
	}
	return float64(c.Gates+c.FlipFlops*gateEquivalents) / float64(designGates)
}
