// Package cube models test cubes: partially-specified test stimuli for a
// core. A cube assigns 0, 1 or X (don't-care) to every stimulus bit of a
// core; real ATPG cubes for large industrial cores are extremely sparse
// (1–5% care-bit density), so cubes are stored as sorted sparse lists of
// specified bits. The package also provides a deterministic synthetic
// cube generator that mimics the clustered care-bit structure of ATPG
// output, used to stand in for the proprietary industrial test sets of
// Wang & Chakrabarty (ITC'05) per DESIGN.md.
package cube

import (
	"fmt"
	"sort"

	"soctap/internal/bitvec"
)

// CareBit is one specified stimulus bit of a cube: the flattened cell
// position and its required value.
type CareBit struct {
	Pos   int  // flattened stimulus-cell index, 0-based
	Value bool // required logic value
}

// Mask returns all ones for a 1 and zero for a 0, so b & c.Mask() keeps
// b only under a 1. It compiles to a zero extension and a negation, not
// a branch on the value.
func (c CareBit) Mask() uint64 {
	var v uint64
	if c.Value {
		v = 1
	}
	return -v
}

// Cube is a partially-specified test pattern over NumBits stimulus cells.
// Bits not listed in Care are don't-care. Care is sorted by Pos with no
// duplicates; use Normalize after manual construction.
type Cube struct {
	NumBits int
	Care    []CareBit
}

// NewCube returns an empty (all-X) cube over n stimulus bits.
func NewCube(n int) *Cube {
	if n < 0 {
		panic(fmt.Sprintf("cube: negative width %d", n))
	}
	return &Cube{NumBits: n}
}

// FromTrits converts a trit vector into a sparse cube.
func FromTrits(tv *bitvec.TritVector) *Cube {
	c := NewCube(tv.Len())
	for i := 0; i < tv.Len(); i++ {
		switch tv.Get(i) {
		case bitvec.Zero:
			c.Care = append(c.Care, CareBit{Pos: i, Value: false})
		case bitvec.One:
			c.Care = append(c.Care, CareBit{Pos: i, Value: true})
		}
	}
	return c
}

// ToTrits expands the sparse cube into a dense trit vector.
func (c *Cube) ToTrits() *bitvec.TritVector {
	tv := bitvec.NewTrit(c.NumBits)
	for _, cb := range c.Care {
		if cb.Value {
			tv.Set(cb.Pos, bitvec.One)
		} else {
			tv.Set(cb.Pos, bitvec.Zero)
		}
	}
	return tv
}

// Set specifies bit pos to value v, replacing any earlier assignment.
func (c *Cube) Set(pos int, v bool) {
	if pos < 0 || pos >= c.NumBits {
		panic(fmt.Sprintf("cube: position %d out of range [0,%d)", pos, c.NumBits))
	}
	i := sort.Search(len(c.Care), func(i int) bool { return c.Care[i].Pos >= pos })
	if i < len(c.Care) && c.Care[i].Pos == pos {
		c.Care[i].Value = v
		return
	}
	c.Care = append(c.Care, CareBit{})
	copy(c.Care[i+1:], c.Care[i:])
	c.Care[i] = CareBit{Pos: pos, Value: v}
}

// Get returns the trit value of bit pos.
func (c *Cube) Get(pos int) bitvec.Trit {
	if pos < 0 || pos >= c.NumBits {
		panic(fmt.Sprintf("cube: position %d out of range [0,%d)", pos, c.NumBits))
	}
	i := sort.Search(len(c.Care), func(i int) bool { return c.Care[i].Pos >= pos })
	if i < len(c.Care) && c.Care[i].Pos == pos {
		if c.Care[i].Value {
			return bitvec.One
		}
		return bitvec.Zero
	}
	return bitvec.DontCare
}

// CareCount returns the number of specified bits.
func (c *Cube) CareCount() int { return len(c.Care) }

// Density returns the care-bit density in [0,1].
func (c *Cube) Density() float64 {
	if c.NumBits == 0 {
		return 0
	}
	return float64(len(c.Care)) / float64(c.NumBits)
}

// Normalize sorts the care list by position and removes duplicates
// (keeping the last assignment for a duplicated position). It returns an
// error if any position is out of range.
func (c *Cube) Normalize() error {
	for _, cb := range c.Care {
		if cb.Pos < 0 || cb.Pos >= c.NumBits {
			return fmt.Errorf("cube: care bit position %d out of range [0,%d)", cb.Pos, c.NumBits)
		}
	}
	sort.SliceStable(c.Care, func(i, j int) bool { return c.Care[i].Pos < c.Care[j].Pos })
	out := c.Care[:0]
	for _, cb := range c.Care {
		if n := len(out); n > 0 && out[n-1].Pos == cb.Pos {
			out[n-1].Value = cb.Value // later assignment wins
			continue
		}
		out = append(out, cb)
	}
	c.Care = out
	return nil
}

// Clone returns a deep copy of the cube.
func (c *Cube) Clone() *Cube {
	cc := &Cube{NumBits: c.NumBits, Care: make([]CareBit, len(c.Care))}
	copy(cc.Care, c.Care)
	return cc
}

// CompatibleWith reports whether the two cubes agree on all commonly
// specified bits.
func (c *Cube) CompatibleWith(o *Cube) bool {
	if c.NumBits != o.NumBits {
		return false
	}
	i, j := 0, 0
	for i < len(c.Care) && j < len(o.Care) {
		a, b := c.Care[i], o.Care[j]
		switch {
		case a.Pos < b.Pos:
			i++
		case a.Pos > b.Pos:
			j++
		default:
			if a.Value != b.Value {
				return false
			}
			i++
			j++
		}
	}
	return true
}

// Merge returns the intersection cube (union of care bits) of two
// compatible cubes, or an error if they conflict.
func (c *Cube) Merge(o *Cube) (*Cube, error) {
	if c.NumBits != o.NumBits {
		return nil, fmt.Errorf("cube: merge width mismatch %d vs %d", c.NumBits, o.NumBits)
	}
	m := &Cube{NumBits: c.NumBits, Care: make([]CareBit, 0, len(c.Care)+len(o.Care))}
	i, j := 0, 0
	for i < len(c.Care) || j < len(o.Care) {
		switch {
		case j >= len(o.Care) || (i < len(c.Care) && c.Care[i].Pos < o.Care[j].Pos):
			m.Care = append(m.Care, c.Care[i])
			i++
		case i >= len(c.Care) || o.Care[j].Pos < c.Care[i].Pos:
			m.Care = append(m.Care, o.Care[j])
			j++
		default:
			if c.Care[i].Value != o.Care[j].Value {
				return nil, fmt.Errorf("cube: conflict at position %d", c.Care[i].Pos)
			}
			m.Care = append(m.Care, c.Care[i])
			i++
			j++
		}
	}
	return m, nil
}

// Set is an ordered collection of cubes of equal width — the test set of
// one core.
type Set struct {
	NumBits int
	Cubes   []*Cube
}

// NewSet returns an empty cube set over n stimulus bits.
func NewSet(n int) *Set { return &Set{NumBits: n} }

// Add appends a cube, validating its width.
func (s *Set) Add(c *Cube) error {
	if c.NumBits != s.NumBits {
		return fmt.Errorf("cube: set width %d, cube width %d", s.NumBits, c.NumBits)
	}
	s.Cubes = append(s.Cubes, c)
	return nil
}

// Len returns the number of cubes (test patterns).
func (s *Set) Len() int { return len(s.Cubes) }

// TotalCareBits returns the summed care-bit count over all cubes.
func (s *Set) TotalCareBits() int {
	n := 0
	for _, c := range s.Cubes {
		n += len(c.Care)
	}
	return n
}

// Density returns the average care-bit density over the whole set.
func (s *Set) Density() float64 {
	if s.NumBits == 0 || len(s.Cubes) == 0 {
		return 0
	}
	return float64(s.TotalCareBits()) / float64(s.NumBits*len(s.Cubes))
}

// RawVolume returns the uncompressed stimulus volume in bits: one bit per
// stimulus cell per pattern. This is the "initial test data volume" V_i
// reported in Table 3 of the paper.
func (s *Set) RawVolume() int64 {
	return int64(s.NumBits) * int64(len(s.Cubes))
}

// Stats summarizes a cube set.
type Stats struct {
	Patterns     int
	BitsPerCube  int
	CareBits     int
	Density      float64
	MinCare      int
	MaxCare      int
	RawVolumeBit int64
}

// ComputeStats gathers summary statistics for the set.
func (s *Set) ComputeStats() Stats {
	st := Stats{
		Patterns:     len(s.Cubes),
		BitsPerCube:  s.NumBits,
		CareBits:     s.TotalCareBits(),
		Density:      s.Density(),
		RawVolumeBit: s.RawVolume(),
	}
	for i, c := range s.Cubes {
		n := len(c.Care)
		if i == 0 || n < st.MinCare {
			st.MinCare = n
		}
		if n > st.MaxCare {
			st.MaxCare = n
		}
	}
	return st
}
