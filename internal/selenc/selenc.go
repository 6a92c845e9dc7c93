// Package selenc implements selective encoding of scan slices, the test
// data compression scheme of Wang & Chakrabarty (ITC'05) used as the
// core-level codec in the DATE'08 paper reproduced by this library.
//
// A scan slice is the m-bit vector fed to m wrapper chains in one scan
// clock cycle. Slices are delivered to the on-chip decompressor as a
// stream of fixed-width codewords of
//
//	w = ceil(log2(m+1)) + 2
//
// bits each: a 2-bit prefix and a k = ceil(log2(m+1))-bit payload. Per
// DESIGN.md, the exact code is a documented reconstruction that satisfies
// every constraint published in the papers:
//
//   - Header (prefix 10): starts a slice. Payload bit 0 carries the
//     slice's fill value. A slice whose care bits all equal the fill
//     value costs a single codeword — the next header (or the end of
//     the stream) delimits it.
//   - Single-bit mode (prefix 00): payload is the index of one target
//     bit (a care bit that differs from the fill value); the decompressor
//     sets that bit to the complement of the fill.
//   - Group-copy mode (prefix 01 then 11): the slice is divided into
//     ceil(m/k) groups of k bits. The first codeword's payload is the
//     group index, the second codeword (prefix 11) carries the k literal
//     data bits. Used whenever a group holds two or more target bits.
//
// The encoder and decoder are bit-exact inverses at the stimulus level:
// decoding reproduces every care bit and fills every don't-care with the
// slice's fill value.
//
// There is one encoder, AppendEncodeSlice, and it reads a slice as word
// masks: per 64 positions a care word then a value word, the planes
// wrapper.Slicer scatters each pattern into. It needs no sort and no
// branch per care bit: the fill comes from popcounts, and the target
// bits from one AND and one XOR per word. EncodeSlice adapts a sorted
// care list to it.
package selenc

import (
	"fmt"
	"math/bits"

	"soctap/internal/bitvec"
)

// Codeword prefixes.
const (
	PrefixSingle uint8 = 0 // 00: single-bit mode, payload = target index
	PrefixGroup  uint8 = 1 // 01: group-copy mode, payload = group index
	PrefixHeader uint8 = 2 // 10: slice header, payload bit 0 = fill value
	PrefixData   uint8 = 3 // 11: literal data for the preceding group codeword
)

// Header payload flag bits. Only bit 0 is used: the payload must fit
// k = ceil(log2(m+1)) bits, which is a single bit at m = 1.
const headerFillBit = 1 << 0

// Codeword is one fixed-width symbol of the compressed stream.
type Codeword struct {
	Prefix  uint8
	Payload uint32
}

// PayloadBits returns k = ceil(log2(m+1)), the payload width for slices
// of m bits. m must be >= 1.
func PayloadBits(m int) int {
	if m < 1 {
		panic(fmt.Sprintf("selenc: invalid slice width %d", m))
	}
	return bits.Len(uint(m)) // ceil(log2(m+1)) for m >= 1
}

// CodewordWidth returns w = ceil(log2(m+1)) + 2, the number of TAM wires
// (equivalently, bits per codeword) required to drive a decompressor
// with m outputs.
func CodewordWidth(m int) int { return PayloadBits(m) + 2 }

// MBand returns the inclusive range [lo, hi] of decompressor output
// widths m that share the codeword width w; that is, all m with
// CodewordWidth(m) == w. The smallest valid w is 3 (m = 1).
func MBand(w int) (lo, hi int, err error) {
	if w < 3 {
		return 0, 0, fmt.Errorf("selenc: codeword width %d below minimum 3", w)
	}
	k := w - 2
	lo = 1 << uint(k-1)
	hi = 1<<uint(k) - 1
	if k == 1 {
		lo = 1
	}
	return lo, hi, nil
}

// GroupCount returns the number of group-copy groups for slice width m.
func GroupCount(m int) int {
	k := PayloadBits(m)
	return (m + k - 1) / k
}

// CareBit is one specified bit of a slice: position within the slice
// (which wrapper chain) and required value.
type CareBit struct {
	Pos   int
	Value bool
}

// ChooseFill returns the fill value minimizing the number of target
// bits: the majority value among the care bits (ties prefer 0, matching
// the hardware's cheaper default).
func ChooseFill(care []CareBit) bool {
	ones := 0
	for _, cb := range care {
		if cb.Value {
			ones++
		}
	}
	return ones*2 > len(care)
}

// EncodeSlice encodes one slice of width m. care lists the specified
// bits, sorted by position, with positions in [0, m). It is the list
// form of AppendEncodeSlice: it panics on a care list that is not
// strictly sorted or holds a position out of range, then encodes the
// slice's word pairs.
func EncodeSlice(m int, care []CareBit) []Codeword {
	pairs := make([]uint64, 2*((m+63)/64))
	prev := -1
	for _, cb := range care {
		if cb.Pos < 0 || cb.Pos >= m {
			panic(fmt.Sprintf("selenc: care position %d out of range [0,%d)", cb.Pos, m))
		}
		if cb.Pos <= prev {
			panic("selenc: care list not strictly sorted")
		}
		prev = cb.Pos
		b := uint64(1) << (cb.Pos & 63)
		pairs[2*(cb.Pos>>6)] |= b
		if cb.Value {
			pairs[2*(cb.Pos>>6)+1] |= b
		}
	}
	return AppendEncodeSlice(nil, m, pairs)
}

// AppendEncodeSlice encodes one slice of width m given as ⌈m/64⌉ word
// pairs: per 64 positions, a care word then a value word, position p at
// bit p%64 of pair p/64 (wrapper.Slicer's layout). Value bits off the
// care word are ignored; a care bit at a position >= m panics. The
// codewords are appended to dst and the extended slice returned, so a
// consumer encoding many slices grows one codeword buffer and allocates
// nothing once it is large enough.
//
// The fill is the majority of the care bits, counted by popcount. Pair
// j's target bits are care & (value ^ fill), walked lowest first; each
// one no earlier group covers starts its group, whose targets are
// counted over the group's k-bit window (which can straddle two pairs):
// one target is a single-bit codeword, more a group-copy pair whose
// literal is the window of (value & care) | (fill &^ care).
func AppendEncodeSlice(dst []Codeword, m int, pairs []uint64) []Codeword {
	k := PayloadBits(m)
	nw := (m + 63) / 64
	if len(pairs) != 2*nw {
		panic(fmt.Sprintf("selenc: %d words for a slice of width %d, want %d", len(pairs), m, 2*nw))
	}
	if out := pairs[2*nw-2] >> (m - 64*(nw-1)); out != 0 {
		panic(fmt.Sprintf("selenc: care position %d out of range [0,%d)", m+bits.TrailingZeros64(out), m))
	}
	care, ones := 0, 0
	for j := range nw {
		care += bits.OnesCount64(pairs[2*j])
		ones += bits.OnesCount64(pairs[2*j] & pairs[2*j+1])
	}
	header := Codeword{Prefix: PrefixHeader}
	var fill uint64
	if ones*2 > care {
		header.Payload |= headerFillBit
		fill = ^uint64(0)
	}
	dst = append(dst, header)

	covered := 0 // every target below it is in an encoded group
	for j := range nw {
		base := 64 * j
		t := targets(pairs, j, fill)
		if covered > base {
			t &= ^uint64(0) << (covered - base)
		}
		for t != 0 {
			pos := base + bits.TrailingZeros64(t)
			g := int(uint32(pos) / uint32(k)) // the cheaper 32-bit divide
			lo, hi := g*k, min(g*k+k, m)
			// No target lies in [lo, pos): it would have covered pos.
			n := bits.OnesCount64(t & (1<<(hi-base) - 1))
			if hi > base+64 {
				n += bits.OnesCount64(targets(pairs, j+1, fill) & (1<<(hi-base-64) - 1))
			}
			if n == 1 {
				dst = append(dst, Codeword{Prefix: PrefixSingle, Payload: uint32(pos)})
			} else {
				// The window stops at the slice end, so the literal's
				// bits past it stay clear and the last, narrower group
				// decodes in range.
				lit := literal(pairs, lo/64, fill) >> (lo % 64)
				if lo%64+hi-lo > 64 {
					lit |= literal(pairs, lo/64+1, fill) << (64 - lo%64)
				}
				dst = append(dst,
					Codeword{Prefix: PrefixGroup, Payload: uint32(g)},
					Codeword{Prefix: PrefixData, Payload: uint32(lit & (1<<(hi-lo) - 1))})
			}
			covered = hi
			t &= ^uint64(0) << (hi - base) // zero once hi passes the pair
		}
	}
	return dst
}

// targets returns pair j's target bits: its care bits that differ from
// the fill.
func targets(pairs []uint64, j int, fill uint64) uint64 {
	return pairs[2*j] & (pairs[2*j+1] ^ fill)
}

// literal returns the bits pair j decodes to: its care values over the
// fill.
func literal(pairs []uint64, j int, fill uint64) uint64 {
	c := pairs[2*j]
	return pairs[2*j+1]&c | fill&^c
}

// DecodeStream expands a codeword stream back into fully-specified
// slices of width m. It returns one bit vector per encoded slice.
func DecodeStream(m int, stream []Codeword) ([]*bitvec.Vector, error) {
	k := PayloadBits(m)
	nGroups := GroupCount(m)
	var out []*bitvec.Vector
	var cur *bitvec.Vector
	pendingGroup := -1

	for i, cw := range stream {
		if pendingGroup >= 0 && cw.Prefix != PrefixData {
			return nil, fmt.Errorf("selenc: codeword %d: expected data codeword after group %d", i, pendingGroup)
		}
		switch cw.Prefix {
		case PrefixHeader:
			cur = bitvec.New(m)
			if cw.Payload&headerFillBit != 0 {
				cur.SetAll(true)
			}
			out = append(out, cur)
		case PrefixSingle:
			if cur == nil {
				return nil, fmt.Errorf("selenc: codeword %d: single-bit before any header", i)
			}
			pos := int(cw.Payload)
			if pos >= m {
				return nil, fmt.Errorf("selenc: codeword %d: target index %d out of range", i, pos)
			}
			// Target bits carry the complement of the fill value, which
			// is the current value of the (so far untouched) position.
			cur.Set(pos, !cur.Get(pos))
		case PrefixGroup:
			if cur == nil {
				return nil, fmt.Errorf("selenc: codeword %d: group-copy before any header", i)
			}
			g := int(cw.Payload)
			if g >= nGroups {
				return nil, fmt.Errorf("selenc: codeword %d: group index %d out of range", i, g)
			}
			pendingGroup = g
		case PrefixData:
			if pendingGroup < 0 {
				return nil, fmt.Errorf("selenc: codeword %d: stray data codeword", i)
			}
			base := pendingGroup * k
			width := k
			if m-base < width {
				width = m - base
			}
			cur.WriteBits(base, uint64(cw.Payload), width)
			pendingGroup = -1
		default:
			return nil, fmt.Errorf("selenc: codeword %d: invalid prefix %d", i, cw.Prefix)
		}
	}
	if pendingGroup >= 0 {
		return nil, fmt.Errorf("selenc: stream ends inside a group-copy pair")
	}
	return out, nil
}

// PackStream serializes codewords for slice width m into v, codeword 0
// first, prefix bits before payload bits, LSB-first within each field.
// The result models the exact TAM bit traffic; v is reset to its length,
// len(stream) * CodewordWidth(m), keeping its backing words when they
// are big enough, so a packer reusing v allocates nothing.
func PackStream(v *bitvec.Vector, m int, stream []Codeword) {
	w := CodewordWidth(m)
	v.Reset(len(stream) * w)
	wr := bitvec.NewWriter(v.Words())
	for _, cw := range stream {
		wr.AppendBits(uint64(cw.Prefix)|uint64(cw.Payload)<<2, w)
	}
}

// UnpackStream parses a bit vector produced by PackStream back into
// codewords for slice width m.
func UnpackStream(m int, v *bitvec.Vector) ([]Codeword, error) {
	return AppendUnpackStream(nil, m, v)
}

// AppendUnpackStream is UnpackStream in append form: the codewords are
// appended to dst, so a consumer unpacking stream after stream reuses
// one buffer.
func AppendUnpackStream(dst []Codeword, m int, v *bitvec.Vector) ([]Codeword, error) {
	w := CodewordWidth(m)
	if v.Len()%w != 0 {
		return dst, fmt.Errorf("selenc: stream length %d not a multiple of codeword width %d", v.Len(), w)
	}
	for pos := 0; pos < v.Len(); pos += w {
		raw := v.ReadBits(pos, w)
		dst = append(dst, Codeword{Prefix: uint8(raw & 3), Payload: uint32(raw >> 2)})
	}
	return dst, nil
}
