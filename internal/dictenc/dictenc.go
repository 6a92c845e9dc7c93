// Package dictenc implements dictionary-based test-data compression
// over scan slices with fixed-length indices, after Li & Chakrabarty
// ("Test Data Compression Using Dictionaries with Fixed-Length
// Indices"). It is the second core-level compression technique of this
// library and powers the per-core *technique selection* extension (the
// authors' ATS'08 follow-up to the reproduced DATE'08 paper): for every
// core, the planner may pick direct access, selective encoding, or
// dictionary coding, whichever minimizes test time.
//
// Scheme: the test set is sliced exactly as for selective encoding (one
// m-bit slice per scan cycle, wrapper.Slicer). A dictionary of at most D
// fully-specified m-bit words is trained on the slices by first-fit
// compatibility merging, X positions filled with 0. Each slice is then
// encoded as either
//
//	0 <index>      (1 + ceil(log2 D) bits)  if a dictionary word covers it
//	1 <literal>    (1 + m bits)             otherwise
//
// with the index LSB first. Encode runs training and coding as two
// streamed passes over a core's cubes, holding one pattern's slices as
// the slicer's (care, value) word pairs and each entry's care and value
// masks in the same layout. One training serves every capacity:
// both first-fit runs see the same slices in the same order, and a
// slice changes at most one entry, the first compatible one, so the
// dictionary trained at capacity D is the first min(D, n) entries of
// one trained at a larger capacity holding n, and a slice whose first
// covering word there is j is a hit at capacity D exactly when
// j < min(D, n).
//
// The decompressor is a D×m-bit SRAM plus a serializer; compressed bits
// are delivered over w TAM wires at w bits per cycle, with the core's
// scan depth as the per-pattern floor.
package dictenc

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"soctap/internal/bitvec"
	"soctap/internal/cube"
	"soctap/internal/wrapper"
)

// Dictionary is a set of fully-specified m-bit words used to encode
// scan slices, in the order training founded them.
type Dictionary struct {
	M     int
	Words []*bitvec.Vector
}

// IndexBits returns the index field width, ceil(log2(len(Words))), at
// least 1.
func (d *Dictionary) IndexBits() int { return indexBits(len(d.Words)) }

func indexBits(words int) int {
	if words <= 1 {
		return 1
	}
	return bits.Len(uint(words - 1))
}

// Decode reads the slice code at offset off of a packed stream into
// dst, which it resizes to M bits, and returns the next code's offset.
func (d *Dictionary) Decode(stream *bitvec.Vector, off int, dst *bitvec.Vector) (int, error) {
	if off >= stream.Len() {
		return 0, fmt.Errorf("dictenc: stream exhausted at offset %d", off)
	}
	dst.Reset(d.M)
	if !stream.Get(off) { // dictionary hit
		ib := d.IndexBits()
		if off+1+ib > stream.Len() {
			return 0, fmt.Errorf("dictenc: truncated index at offset %d", off)
		}
		idx := stream.ReadBits(off+1, ib)
		if idx >= uint64(len(d.Words)) {
			return 0, fmt.Errorf("dictenc: index %d out of range", idx)
		}
		copy(dst.Words(), d.Words[idx].Words())
		return off + 1 + ib, nil
	}
	if off+1+d.M > stream.Len() {
		return 0, fmt.Errorf("dictenc: truncated literal at offset %d", off)
	}
	bitvec.CopyBits(dst.Words(), 0, stream.Words(), off+1, d.M)
	return off + 1 + d.M, nil
}

// trainer is a first-fit dictionary. A slice is one depth of a
// wrapper.Slicer, its care and value masks interleaved word by word
// (care word i at 2i, value word i at 2i+1), and entry e is the same
// 2·⌈m/64⌉ words at masks[e·len:].
type trainer struct {
	max   int
	masks []uint64
}

// add merges a slice into the first entry it is compatible with, one
// none of whose care bits meets a slice care bit of the other value, or
// founds a new entry while the dictionary has room.
func (t *trainer) add(slice []uint64) {
	w := len(slice)
next:
	for i := 0; i < len(t.masks); i += w {
		e := t.masks[i : i+w]
		for k := 0; k < w; k += 2 {
			if slice[k]&e[k]&(slice[k+1]^e[k+1]) != 0 {
				continue next
			}
		}
		for k, x := range slice {
			e[k] |= x
		}
		return
	}
	if len(t.masks) < t.max*w {
		t.masks = append(t.masks, slice...)
	}
}

// match returns the first entry whose word, its value mask, agrees with
// every care bit of the slice, or -1.
func (t *trainer) match(slice []uint64) int {
	w := len(slice)
next:
	for i := 0; i < len(t.masks); i += w {
		e := t.masks[i : i+w]
		for k := 0; k < w; k += 2 {
			if slice[k]&(slice[k+1]^e[k+1]) != 0 {
				continue next
			}
		}
		return i / w
	}
	return -1
}

// Tally is one capacity's share of Encode's coding pass.
type Tally struct {
	Words int   // dictionary words at the capacity, min(capacity, trained entries)
	Hit   int   // code bits of a dictionary hit, 1 + ceil(log2 Words)
	Bits  int64 // code bits of the pattern just coded
}

// Encode runs the codec's two streamed passes over src, one pass of a
// core's cubes under the wrapper design d, for every capacity of sizes.
// Each pattern is scattered by a wrapper.Slicer, whose per-depth word
// pairs the trainer reads directly, copying only what it keeps. Pass 1
// trains the dictionary at the largest capacity, slice by slice. Pass 2
// rewinds src and finds each slice's first covering word, which codes
// the slice at every capacity (see the package doc). After each
// pattern of pass 2, count, when non-nil, gets the pattern's tally at
// each capacity of sizes, in order. When stream is non-nil, the codes
// at the largest capacity are appended to it, packed. ctx is checked
// between patterns. Encode returns the trained dictionary.
func Encode(ctx context.Context, d *wrapper.Design, src cube.Source, sizes []int,
	count func([]Tally), stream *bitvec.Vector) (*Dictionary, error) {
	if len(sizes) == 0 || slices.Min(sizes) < 1 {
		return nil, fmt.Errorf("dictenc: dictionary sizes %v", sizes)
	}
	m, w := d.M, 2*((d.M+63)/64)
	sl := wrapper.NewSlicer(d)
	t := trainer{max: slices.Max(sizes)}
	for cb, ok := src.Next(); ok; cb, ok = src.Next() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sl.Scatter(cb)
		for depth := range d.ScanIn {
			t.add(sl.Slice(depth))
		}
	}
	if len(t.masks) == 0 { // no slice: one all-zero word
		t.masks = make([]uint64, w)
	}
	dict := &Dictionary{M: m, Words: make([]*bitvec.Vector, len(t.masks)/w)}
	for e := range dict.Words {
		dict.Words[e] = bitvec.New(m)
		words := dict.Words[e].Words()
		for i := range words {
			words[i] = t.masks[e*w+2*i+1] // the value mask
		}
	}

	tallies := make([]Tally, len(sizes))
	for k, size := range sizes {
		tallies[k].Words = min(size, len(dict.Words))
		tallies[k].Hit = 1 + indexBits(tallies[k].Words)
	}
	ib := dict.IndexBits()
	src.Reset()
	for cb, ok := src.Next(); ok; cb, ok = src.Next() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sl.Scatter(cb)
		for k := range tallies {
			tallies[k].Bits = 0
		}
		for depth := range d.ScanIn {
			slice := sl.Slice(depth)
			j := t.match(slice)
			for k := range tallies {
				if j >= 0 && j < tallies[k].Words {
					tallies[k].Bits += int64(tallies[k].Hit)
				} else {
					tallies[k].Bits += int64(1 + m)
				}
			}
			switch {
			case stream == nil:
			case j >= 0:
				stream.AppendBits(uint64(j)<<1, 1+ib)
			default:
				stream.AppendBits(1, 1)
				for i := range len(slice) / 2 {
					stream.AppendBits(slice[2*i+1], min(64, m-64*i))
				}
			}
		}
		if count != nil {
			count(tallies)
		}
	}
	return dict, nil
}

// HardwareCost estimates the decompressor cost: the dictionary SRAM in
// bits plus a small controller.
type HardwareCost struct {
	SRAMBits int
	Gates    int
	FFs      int
}

// CostFor estimates the decompressor hardware for a dictionary of
// `words` entries over m-bit slices without materializing it.
func CostFor(m, words int) HardwareCost {
	ib := indexBits(words)
	return HardwareCost{
		SRAMBits: words * m,
		Gates:    40 + 4*ib,
		FFs:      m + ib + 6,
	}
}
