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

// SliceCost returns the number of codewords EncodeSlice will emit for a
// slice of width m with the given care bits: one header plus, per group
// with t target bits, min(t, 2) codewords. care must be sorted by Pos
// with no duplicates and all positions in [0, m).
func SliceCost(m int, care []CareBit) int {
	fill := ChooseFill(care)
	k := PayloadBits(m)
	cost := 1
	group := -1
	inGroup := 0
	for _, cb := range care {
		if cb.Value == fill {
			continue
		}
		g := cb.Pos / k
		if g != group {
			cost += flushGroupCost(inGroup)
			group = g
			inGroup = 0
		}
		inGroup++
	}
	cost += flushGroupCost(inGroup)
	return cost
}

func flushGroupCost(t int) int {
	if t >= 2 {
		return 2
	}
	return t
}

// EncodeSlice encodes one slice of width m. care lists the specified
// bits, sorted by position, with positions in [0, m).
func EncodeSlice(m int, care []CareBit) []Codeword {
	return AppendEncodeSlice(nil, m, care)
}

// AppendEncodeSlice is EncodeSlice in append form: the slice's codewords
// are appended to dst and the extended slice returned, so a consumer
// encoding many slices grows one codeword buffer and allocates nothing
// once it is large enough. One pass over the sorted care list finds
// each group's run of care bits by Pos/k: a run with one target bit is
// a single-bit codeword, a run with two or more is a group-copy pair
// whose literal holds the run's care bits over a fill background.
func AppendEncodeSlice(dst []Codeword, m int, care []CareBit) []Codeword {
	fill := ChooseFill(care)
	k := PayloadBits(m)
	header := Codeword{Prefix: PrefixHeader}
	var fillBits uint32
	if fill {
		header.Payload |= headerFillBit
		fillBits = 1<<uint(k) - 1
	}
	dst = append(dst, header)

	prev := -1
	for i := 0; i < len(care); {
		g := care[i].Pos / k
		base := g * k
		lit := fillBits
		targets, target := 0, 0
		for ; i < len(care) && care[i].Pos-base < k; i++ {
			cb := care[i]
			if cb.Pos < 0 || cb.Pos >= m {
				panic(fmt.Sprintf("selenc: care position %d out of range [0,%d)", cb.Pos, m))
			}
			if cb.Pos <= prev {
				panic("selenc: care list not strictly sorted")
			}
			prev = cb.Pos
			if cb.Value {
				lit |= 1 << uint(cb.Pos-base)
			} else {
				lit &^= 1 << uint(cb.Pos-base)
			}
			if cb.Value != fill {
				targets++
				target = cb.Pos
			}
		}
		switch {
		case targets == 1:
			dst = append(dst, Codeword{Prefix: PrefixSingle, Payload: uint32(target)})
		case targets > 1:
			// Group copy: the literal's bits past the slice end stay
			// clear so the last, narrower group decodes in range.
			if rem := m - base; rem < k {
				lit &= 1<<uint(rem) - 1
			}
			dst = append(dst,
				Codeword{Prefix: PrefixGroup, Payload: uint32(g)},
				Codeword{Prefix: PrefixData, Payload: lit})
		}
	}
	return dst
}

// SortCare sorts a slice's care list by position. Scattering a cube's
// care bits into scan slices leaves each slice's list short and nearly
// sorted, which suits an insertion sort; it allocates nothing.
func SortCare(care []CareBit) {
	for i := 1; i < len(care); i++ {
		for j := i; j > 0 && care[j-1].Pos > care[j].Pos; j-- {
			care[j-1], care[j] = care[j], care[j-1]
		}
	}
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
