// Package bitvec provides packed bit vectors and three-valued (0/1/X)
// "trit" vectors. These are the storage substrate for test cubes, encoded
// codeword streams, and scan-chain contents throughout the library.
//
// A Vector is a fixed-length sequence of bits packed into 64-bit words.
// A TritVector is a fixed-length sequence of three-valued symbols
// (Zero, One, DontCare) stored as two bit planes: a care plane and a
// value plane. Don't-care positions have care=0; their value bit is
// always kept at 0 so that equal trit vectors are word-wise equal.
package bitvec

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

const wordBits = 64

// Vector is a packed, fixed-length bit vector. The zero value is an empty
// vector of length 0; use New to create a sized vector.
type Vector struct {
	n     int
	words []uint64
}

// New returns a zeroed bit vector with n bits.
func New(n int) *Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	return &Vector{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromString parses a vector from a string of '0' and '1' runes.
// Position 0 of the vector corresponds to the first rune.
func FromString(s string) (*Vector, error) {
	v := New(len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
		case '1':
			v.Set(i, true)
		default:
			return nil, fmt.Errorf("bitvec: invalid bit character %q at position %d", s[i], i)
		}
	}
	return v, nil
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

// Get returns the bit at position i.
func (v *Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Set sets the bit at position i to b.
func (v *Vector) Set(i int, b bool) {
	v.check(i)
	if b {
		v.words[i/wordBits] |= 1 << uint(i%wordBits)
	} else {
		v.words[i/wordBits] &^= 1 << uint(i%wordBits)
	}
}

// SetAll sets every bit to b.
func (v *Vector) SetAll(b bool) {
	var w uint64
	if b {
		w = ^uint64(0)
	}
	for i := range v.words {
		v.words[i] = w
	}
	v.clearTail()
}

// OnesCount returns the number of set bits.
func (v *Vector) OnesCount() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset resizes the vector to n zero bits, keeping its backing words
// when their capacity suffices: the reusable-buffer form of New.
func (v *Vector) Reset(n int) {
	nw := (n + wordBits - 1) / wordBits
	v.words = slices.Grow(v.words[:0], nw)[:nw]
	clear(v.words)
	v.n = n
}

// Append extends v by the bits of o, growing v's backing words as
// needed.
func (v *Vector) Append(o *Vector) {
	old, nw := len(v.words), (v.n+o.n+wordBits-1)/wordBits
	v.words = slices.Grow(v.words, nw-old)[:nw]
	clear(v.words[old:]) // capacity reused after a Reset may hold stale words
	CopyBits(v.words, v.n, o.words, 0, o.n)
	v.n += o.n
}

// Clone returns a deep copy of the vector.
func (v *Vector) Clone() *Vector {
	c := &Vector{n: v.n, words: make([]uint64, len(v.words))}
	copy(c.words, v.words)
	return c
}

// Equal reports whether v and o have the same length and contents. It
// short-circuits on the length check and then compares whole words —
// never individual bits.
func (v *Vector) Equal(o *Vector) bool {
	return v.n == o.n && slices.Equal(v.words, o.words)
}

// String renders the vector as a string of '0'/'1' characters, position 0
// first.
func (v *Vector) String() string {
	var b strings.Builder
	b.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

func (v *Vector) clearTail() {
	if rem := v.n % wordBits; rem != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << uint(rem)) - 1
	}
}

// Trit is a three-valued logic symbol.
type Trit uint8

// Trit values. DontCare ("X") marks an unspecified stimulus bit.
const (
	Zero Trit = iota
	One
	DontCare
)

// String returns "0", "1" or "X".
func (t Trit) String() string {
	switch t {
	case Zero:
		return "0"
	case One:
		return "1"
	case DontCare:
		return "X"
	default:
		return fmt.Sprintf("Trit(%d)", uint8(t))
	}
}

// TritFromByte parses '0', '1', 'x' or 'X'.
func TritFromByte(c byte) (Trit, error) {
	switch c {
	case '0':
		return Zero, nil
	case '1':
		return One, nil
	case 'x', 'X', '-':
		return DontCare, nil
	default:
		return DontCare, fmt.Errorf("bitvec: invalid trit character %q", c)
	}
}

// TritVector is a fixed-length vector of trits stored as two bit planes.
// The zero value is an empty vector; use NewTrit to size one. A fresh
// TritVector is all don't-care.
type TritVector struct {
	care  *Vector
	value *Vector
}

// NewTrit returns an all-X trit vector with n positions.
func NewTrit(n int) *TritVector {
	return &TritVector{care: New(n), value: New(n)}
}

// TritFromString parses a trit vector from a string of '0', '1' and
// 'x'/'X'/'-' characters.
func TritFromString(s string) (*TritVector, error) {
	t := NewTrit(len(s))
	for i := 0; i < len(s); i++ {
		tr, err := TritFromByte(s[i])
		if err != nil {
			return nil, fmt.Errorf("position %d: %w", i, err)
		}
		t.Set(i, tr)
	}
	return t, nil
}

// Len returns the number of trit positions.
func (t *TritVector) Len() int { return t.care.Len() }

// Get returns the trit at position i.
func (t *TritVector) Get(i int) Trit {
	if !t.care.Get(i) {
		return DontCare
	}
	if t.value.Get(i) {
		return One
	}
	return Zero
}

// Set stores trit tr at position i.
func (t *TritVector) Set(i int, tr Trit) {
	switch tr {
	case DontCare:
		t.care.Set(i, false)
		t.value.Set(i, false)
	case Zero:
		t.care.Set(i, true)
		t.value.Set(i, false)
	case One:
		t.care.Set(i, true)
		t.value.Set(i, true)
	default:
		panic(fmt.Sprintf("bitvec: invalid trit %d", tr))
	}
}

// CareCount returns the number of specified (non-X) positions.
func (t *TritVector) CareCount() int { return t.care.OnesCount() }

// OnesCount returns the number of positions specified as One.
func (t *TritVector) OnesCount() int { return t.value.OnesCount() }

// ZerosCount returns the number of positions specified as Zero.
func (t *TritVector) ZerosCount() int { return t.CareCount() - t.OnesCount() }

// Clone returns a deep copy.
func (t *TritVector) Clone() *TritVector {
	return &TritVector{care: t.care.Clone(), value: t.value.Clone()}
}

// Equal reports whether the two trit vectors are identical (same length,
// same symbol at every position).
func (t *TritVector) Equal(o *TritVector) bool {
	return t.care.Equal(o.care) && t.value.Equal(o.value)
}

// CompatibleWith reports whether t and o agree on every position where
// both are specified (the classic test-cube compatibility relation).
func (t *TritVector) CompatibleWith(o *TritVector) bool {
	if t.Len() != o.Len() {
		return false
	}
	for i := range t.care.words {
		both := t.care.words[i] & o.care.words[i]
		if (t.value.words[i]^o.value.words[i])&both != 0 {
			return false
		}
	}
	return true
}

// Covers reports whether every specified position of o is specified in t
// with the same value. A fully-specified expansion of a cube Covers it.
func (t *TritVector) Covers(o *TritVector) bool {
	if t.Len() != o.Len() {
		return false
	}
	for i := range t.care.words {
		if o.care.words[i]&^t.care.words[i] != 0 {
			return false
		}
		both := t.care.words[i] & o.care.words[i]
		if (t.value.words[i]^o.value.words[i])&both != 0 {
			return false
		}
	}
	return true
}

// Fill returns a fully-specified copy of t with every don't-care position
// set to fill.
func (t *TritVector) Fill(fill Trit) *TritVector {
	if fill == DontCare {
		panic("bitvec: Fill requires a specified trit")
	}
	c := t.Clone()
	for i := range c.care.words {
		unspec := ^c.care.words[i]
		c.care.words[i] = ^uint64(0)
		if fill == One {
			c.value.words[i] |= unspec
		}
	}
	c.care.clearTail()
	c.value.clearTail()
	return c
}

// String renders the trit vector with one character per position.
func (t *TritVector) String() string {
	var b strings.Builder
	b.Grow(t.Len())
	for i := 0; i < t.Len(); i++ {
		b.WriteString(t.Get(i).String())
	}
	return b.String()
}
