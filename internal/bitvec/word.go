// Word-level primitives: the word-parallel substrate under the codec
// kernels. Everything here operates on whole 64-bit words — masked
// reads and writes, bulk bit copies and an append cursor — so hot
// paths never touch bits one at a time. Each primitive is property-tested against a per-bit reference
// loop in word_test.go and cross-checked by FuzzWordKernels.
package bitvec

import "fmt"

// Words exposes the vector's backing words. Word i holds bits
// [64i, 64i+64) with bit position p at bit p%64 (LSB first). Callers
// may read and write words in place but must not resize the slice and
// must keep the tail bits beyond Len() zero.
func (v *Vector) Words() []uint64 { return v.words }

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

// AppendBits extends the vector by the low n bits of b, LSB first,
// growing its backing words as needed. n must be in [0, 64].
func (v *Vector) AppendBits(b uint64, n int) {
	if n < 0 || n > 64 {
		panic(fmt.Sprintf("bitvec: AppendBits width %d", n))
	}
	for len(v.words) < (v.n+n+wordBits-1)/wordBits {
		v.words = append(v.words, 0) // capacity reused after a Reset may hold stale words
	}
	w := Writer{words: v.words, pos: v.n}
	w.AppendBits(b, n)
	v.n += n
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
