// Word-level primitives: the word-parallel substrate under the codec
// kernels. Everything here operates on whole 64-bit words — popcounts,
// masked reads, bulk bit copies and trailing-zero iteration — so hot
// paths never touch bits one at a time. Each primitive is property-tested against a per-bit reference
// loop in word_test.go and cross-checked by FuzzWordKernels.
package bitvec

import (
	"fmt"
	"math/bits"
)

// Words exposes the vector's backing words. Word i holds bits
// [64i, 64i+64) with bit position p at bit p%64 (LSB first). Callers
// may read and write words in place but must not resize the slice and
// must keep the tail bits beyond Len() zero (see SetWord, which masks
// them for you).
func (v *Vector) Words() []uint64 { return v.words }

// SetWord stores w into word index i, masking off any bits beyond the
// vector's length so the all-zero-tail invariant holds.
func (v *Vector) SetWord(i int, w uint64) {
	v.words[i] = w
	if i == len(v.words)-1 {
		v.clearTail()
	}
}

// ReadBits returns the n bits starting at position pos, packed LSB
// first (bit pos at bit 0 of the result). n must be in [0, 64] and the
// range [pos, pos+n) must lie inside the vector.
func (v *Vector) ReadBits(pos, n int) uint64 {
	if n == 0 {
		return 0
	}
	if n < 0 || n > 64 || pos < 0 || pos+n > v.n {
		panic(fmt.Sprintf("bitvec: ReadBits(%d, %d) out of range [0,%d)", pos, n, v.n))
	}
	return readBits(v.words, pos, n)
}

// readBits is ReadBits on a raw word slice, without bounds checking
// beyond the slice's own.
func readBits(words []uint64, pos, n int) uint64 {
	wi, off := pos>>6, uint(pos&63)
	w := words[wi] >> off
	if off+uint(n) > 64 {
		w |= words[wi+1] << (64 - off)
	}
	if n == 64 {
		return w
	}
	return w & (1<<uint(n) - 1)
}

// WriteBits stores the low n bits of b at position pos, replacing
// whatever was there. n must be in [0, 64] and [pos, pos+n) inside the
// vector.
func (v *Vector) WriteBits(pos int, b uint64, n int) {
	if n == 0 {
		return
	}
	if n < 0 || n > 64 || pos < 0 || pos+n > v.n {
		panic(fmt.Sprintf("bitvec: WriteBits(%d, %d) out of range [0,%d)", pos, n, v.n))
	}
	if n < 64 {
		b &= 1<<uint(n) - 1
	}
	wi, off := pos>>6, uint(pos&63)
	var mask uint64 = ^uint64(0)
	if n < 64 {
		mask = 1<<uint(n) - 1
	}
	v.words[wi] = v.words[wi]&^(mask<<off) | b<<off
	if off+uint(n) > 64 {
		rem := off + uint(n) - 64
		v.words[wi+1] = v.words[wi+1]&^(1<<rem-1) | b>>(64-off)
	}
}

// ExtractRange copies the n bits starting at position start into dst,
// packed LSB first from dst[0] (a mask-aligned sub-vector read). dst is
// grown as needed and returned; its tail bits beyond n are zeroed. The
// range [start, start+n) must lie inside the vector.
func (v *Vector) ExtractRange(start, n int, dst []uint64) []uint64 {
	if n < 0 || start < 0 || start+n > v.n {
		panic(fmt.Sprintf("bitvec: ExtractRange(%d, %d) out of range [0,%d)", start, n, v.n))
	}
	nw := (n + 63) / 64
	if cap(dst) < nw {
		dst = make([]uint64, nw)
	}
	dst = dst[:nw]
	for i := range dst {
		dst[i] = 0
	}
	CopyBits(dst, 0, v.words, start, n)
	return dst
}

// IterOnes calls fn with the position of every set bit in ascending
// order, using TrailingZeros64 to jump between set bits. Iteration
// stops early when fn returns false.
func (v *Vector) IterOnes(fn func(pos int) bool) {
	for wi, w := range v.words {
		base := wi << 6
		for w != 0 {
			if !fn(base + bits.TrailingZeros64(w)) {
				return
			}
			w &= w - 1
		}
	}
}

// CopyBits copies n bits from src starting at bit srcOff into dst
// starting at bit dstOff. Source and destination words are combined
// with OR, so destination ranges are expected to be zero beforehand
// (the append discipline used by Writer and the slice kernels). The
// slices must not overlap.
func CopyBits(dst []uint64, dstOff int, src []uint64, srcOff, n int) {
	for n > 0 {
		// Biggest chunk that stays inside one source and one dest word.
		chunk := 64 - dstOff&63
		if c := 64 - srcOff&63; c < chunk {
			chunk = c
		}
		if chunk > n {
			chunk = n
		}
		b := src[srcOff>>6] >> uint(srcOff&63)
		if chunk < 64 {
			b &= 1<<uint(chunk) - 1
		}
		dst[dstOff>>6] |= b << uint(dstOff&63)
		srcOff += chunk
		dstOff += chunk
		n -= chunk
	}
}

// Writer is an append-only bit cursor over a word slice: the bit-writer
// used by the codec's stream packer and the kernel's chain-major plane
// build. Appends OR into the underlying words, so the region at and
// beyond the cursor must be zero when writing begins. The zero Writer
// is ready after Reset.
type Writer struct {
	words []uint64
	pos   int
}

// NewWriter returns a writer appending into words starting at bit 0.
func NewWriter(words []uint64) Writer { return Writer{words: words} }

// Reset repoints the writer at words with the cursor at bit pos.
func (w *Writer) Reset(words []uint64, pos int) { w.words, w.pos = words, pos }

// Pos returns the cursor position: the number of bits appended so far
// plus the Reset offset.
func (w *Writer) Pos() int { return w.pos }

// AppendBits appends the low n bits of b, LSB first. n must be in
// [0, 64] and the write must fit the underlying words.
func (w *Writer) AppendBits(b uint64, n int) {
	if n <= 0 {
		if n == 0 {
			return
		}
		panic(fmt.Sprintf("bitvec: AppendBits width %d", n))
	}
	if n < 64 {
		b &= 1<<uint(n) - 1
	}
	wi, off := w.pos>>6, uint(w.pos&63)
	w.words[wi] |= b << off
	if off+uint(n) > 64 {
		w.words[wi+1] |= b >> (64 - off)
	}
	w.pos += n
}

// AppendRange appends n bits read from src starting at bit srcOff — the
// bulk-copy form of AppendBits.
func (w *Writer) AppendRange(src []uint64, srcOff, n int) {
	CopyBits(w.words, w.pos, src, srcOff, n)
	w.pos += n
}
