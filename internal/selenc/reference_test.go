package selenc

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"soctap/internal/bitvec"
)

// referenceEncodeSlice is the list form of the encoder, kept as the word
// encoder's oracle: one pass over the care list, sorted by position,
// finds each group's run of care bits by Pos/k; a run with one target
// bit is a single-bit codeword, a run with two or more a group-copy pair
// whose literal holds the run's care bits over a fill background.
func referenceEncodeSlice(m int, care []CareBit) []Codeword {
	fill := ChooseFill(care)
	k := PayloadBits(m)
	header := Codeword{Prefix: PrefixHeader}
	var fillBits uint32
	if fill {
		header.Payload |= headerFillBit
		fillBits = 1<<uint(k) - 1
	}
	dst := []Codeword{header}

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

// referenceSliceCost is the cost model of the encoder: one header plus,
// per group with t target bits, min(t, 2) codewords. care must be sorted
// by Pos with no duplicates and all positions in [0, m).
func referenceSliceCost(m int, care []CareBit) int {
	fill := ChooseFill(care)
	k := PayloadBits(m)
	cost, group, inGroup := 1, -1, 0
	for _, cb := range care {
		if cb.Value == fill {
			continue
		}
		if g := cb.Pos / k; g != group {
			cost += min(inGroup, 2)
			group, inGroup = g, 0
		}
		inGroup++
	}
	return cost + min(inGroup, 2)
}

// referenceDecodeStream is the list form of the decoder, kept as the
// Decompressor's oracle: it expands a codeword stream into one freshly
// allocated, fully specified slice of width m per header, with no
// recycled buffers and no cycle model.
func referenceDecodeStream(m int, stream []Codeword) ([]*bitvec.Vector, error) {
	k := PayloadBits(m)
	nGroups := GroupCount(m)
	var out []*bitvec.Vector
	var cur *bitvec.Vector
	pendingGroup := -1

	for i, cw := range stream {
		if pendingGroup >= 0 && cw.Prefix != PrefixData {
			return nil, fmt.Errorf("codeword %d: expected data codeword after group %d", i, pendingGroup)
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
				return nil, fmt.Errorf("codeword %d: single-bit before any header", i)
			}
			pos := int(cw.Payload)
			if pos >= m {
				return nil, fmt.Errorf("codeword %d: target index %d out of range", i, pos)
			}
			cur.Set(pos, !cur.Get(pos))
		case PrefixGroup:
			if cur == nil {
				return nil, fmt.Errorf("codeword %d: group-copy before any header", i)
			}
			g := int(cw.Payload)
			if g >= nGroups {
				return nil, fmt.Errorf("codeword %d: group index %d out of range", i, g)
			}
			pendingGroup = g
		case PrefixData:
			if pendingGroup < 0 {
				return nil, fmt.Errorf("codeword %d: stray data codeword", i)
			}
			base := pendingGroup * k
			cur.WriteBits(base, uint64(cw.Payload), min(k, m-base))
			pendingGroup = -1
		default:
			return nil, fmt.Errorf("codeword %d: invalid prefix %d", i, cw.Prefix)
		}
	}
	if pendingGroup >= 0 {
		return nil, errors.New("stream ends inside a group-copy pair")
	}
	return out, nil
}

// pairsOf returns the word pairs of a slice of width m with the given
// care bits.
func pairsOf(m int, care []CareBit) []uint64 {
	pairs := make([]uint64, 2*((m+63)/64))
	for _, cb := range care {
		pairs[2*(cb.Pos/64)] |= 1 << (cb.Pos % 64)
		if cb.Value {
			pairs[2*(cb.Pos/64)+1] |= 1 << (cb.Pos % 64)
		}
	}
	return pairs
}

// sortCare sorts a care list by position.
func sortCare(care []CareBit) {
	slices.SortFunc(care, func(a, b CareBit) int { return a.Pos - b.Pos })
}

// TestWordEncoderMatchesReference holds AppendEncodeSlice to the list
// reference on 200,000 random slices of m in [1, 300] at care densities
// in [0, 1], with random value bits off the care words, which the
// encoder must ignore. It also counts the group-copy windows that
// straddle a word boundary and the slices whose m is not a multiple of
// 64, so neither case can drop out of the draw.
func TestWordEncoderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var got []Codeword
	straddles, ragged := 0, 0
	for trial := range 200000 {
		m := rng.Intn(300) + 1
		care := randomCare(rng, m, rng.Float64())
		pairs := pairsOf(m, care)
		for j := 0; j < len(pairs); j += 2 {
			pairs[j+1] |= rng.Uint64() &^ pairs[j]
		}
		want := referenceEncodeSlice(m, care)
		got = AppendEncodeSlice(got[:0], m, pairs)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d, m=%d care=%v:\n got %v\nwant %v", trial, m, care, got, want)
		}
		k := PayloadBits(m)
		for _, cw := range got {
			if cw.Prefix == PrefixGroup {
				lo := int(cw.Payload) * k
				if lo/64 != (min(lo+k, m)-1)/64 {
					straddles++
				}
			}
		}
		if m%64 != 0 {
			ragged++
		}
	}
	if straddles < 1000 || ragged < 1000 {
		t.Fatalf("%d straddling group copies and %d slices with m%%64 != 0: the draw misses a case", straddles, ragged)
	}
}
