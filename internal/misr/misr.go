// Package misr models the response-compaction side of the wrapped-core
// test architecture — the "Compactor (optional)" box of the paper's
// Figure 1, which the paper scopes out but any deployment needs. It
// provides a multiple-input signature register (MISR) over GF(2) with a
// configurable feedback polynomial, plus X-masking: unknown response
// bits (from uninitialized memories, bus keepers, multi-cycle paths)
// corrupt a time-compacted signature unless they are masked before the
// MISR, at the price of mask data that must be stored and delivered.
//
// The package quantifies exactly that trade-off: signature determinism
// versus mask-data volume.
package misr

import (
	"fmt"

	"soctap/internal/bitvec"
	"soctap/internal/selenc"
)

// MISR is a multiple-input signature register of the given width. Each
// Step shifts the register by one, applies the feedback polynomial when
// the shifted-out bit is 1, and XORs the (masked) parallel response
// slice into the state.
type MISR struct {
	width int
	taps  []int // feedback tap positions (exponents of the polynomial), excluding the implicit x^width
	state *bitvec.Vector
	steps int64
	// xBits counts unmasked X bits that reached the register; xCycles
	// counts the steps in which at least one did. After the first, the
	// signature is no longer predictable.
	xBits   int64
	xCycles int64
}

// New builds a MISR. Taps list the feedback polynomial's exponents in
// [0, width); an empty list degenerates to a pure shifter (allowed but
// weak, flagged by Validate-style error).
func New(width int, taps []int) (*MISR, error) {
	if width < 1 {
		return nil, fmt.Errorf("misr: width %d", width)
	}
	for _, t := range taps {
		if t < 0 || t >= width {
			return nil, fmt.Errorf("misr: tap %d out of range [0,%d)", t, width)
		}
	}
	return &MISR{width: width, taps: append([]int(nil), taps...), state: bitvec.New(width)}, nil
}

// Width returns the register width.
func (m *MISR) Width() int { return m.width }

// Steps returns the number of compacted slices.
func (m *MISR) Steps() int64 { return m.steps }

// XContaminated reports whether any unmasked X reached the register.
func (m *MISR) XContaminated() bool { return m.xBits > 0 }

// XCycles returns the number of compaction cycles that absorbed at
// least one unmasked X.
func (m *MISR) XCycles() int64 { return m.xCycles }

// Step compacts one response slice. resp holds the response trits
// (DontCare marks an unknown output); mask, when non-nil, suppresses the
// marked positions (masked bits contribute 0 regardless of value).
// resp must be at most the register width; narrower slices are applied
// to the low positions.
func (m *MISR) Step(resp *bitvec.TritVector, mask *bitvec.Vector) error {
	if resp.Len() > m.width {
		return fmt.Errorf("misr: slice width %d exceeds register width %d", resp.Len(), m.width)
	}
	if mask != nil && mask.Len() != resp.Len() {
		return fmt.Errorf("misr: mask width %d != slice width %d", mask.Len(), resp.Len())
	}
	// Shift with polynomial feedback.
	out := m.state.Get(m.width - 1)
	next := bitvec.New(m.width)
	for i := m.width - 1; i > 0; i-- {
		next.Set(i, m.state.Get(i-1))
	}
	if out {
		next.Set(0, true)
		for _, t := range m.taps {
			next.Set(t, !next.Get(t))
		}
	}
	// Inject the slice.
	sawX := false
	for i := 0; i < resp.Len(); i++ {
		if mask != nil && mask.Get(i) {
			continue // masked: contributes a constant 0
		}
		switch resp.Get(i) {
		case bitvec.One:
			next.Set(i, !next.Get(i))
		case bitvec.DontCare:
			m.xBits++
			sawX = true
			// The model keeps the X as a 0 so simulation can continue,
			// but the signature is flagged unpredictable.
		}
	}
	if sawX {
		m.xCycles++
	}
	m.state = next
	m.steps++
	return nil
}

// Signature returns the current register contents.
func (m *MISR) Signature() *bitvec.Vector { return m.state.Clone() }

// AliasingProbability returns the classic 2^-width bound on the
// probability that a faulty response sequence produces the fault-free
// signature.
func (m *MISR) AliasingProbability() float64 {
	p := 1.0
	for i := 0; i < m.width && i < 63; i++ {
		p /= 2
	}
	return p
}

// MaskPlan is a per-slice X-masking plan for one core's response
// stream: mask[i] marks the X positions of slice i.
type MaskPlan struct {
	SliceWidth int
	Masks      []*bitvec.Vector
}

// BuildMaskPlan derives the exact per-slice masks for a response stream
// (one trit vector per scan-out slice).
func BuildMaskPlan(slices []*bitvec.TritVector) (*MaskPlan, error) {
	if len(slices) == 0 {
		return nil, fmt.Errorf("misr: empty response stream")
	}
	w := slices[0].Len()
	mp := &MaskPlan{SliceWidth: w}
	for i, s := range slices {
		if s.Len() != w {
			return nil, fmt.Errorf("misr: slice %d width %d != %d", i, s.Len(), w)
		}
		mask := bitvec.New(w)
		for b := 0; b < w; b++ {
			if s.Get(b) == bitvec.DontCare {
				mask.Set(b, true)
			}
		}
		mp.Masks = append(mp.Masks, mask)
	}
	return mp, nil
}

// VolumeBits returns the mask-data storage for the plan under a
// flag-plus-codec scheme: one enable bit per compaction cycle (clean
// cycles need nothing else), and for each dirty cycle the mask slice
// compressed with the library's own slice codec (selective encoding
// with the X positions as target bits). Long clean stretches therefore
// cost one bit per cycle, which matches how production X-masking
// controllers store their mask streams.
func (mp *MaskPlan) VolumeBits() int64 {
	w := int64(selenc.CodewordWidth(mp.SliceWidth))
	bits := int64(len(mp.Masks)) // per-cycle enable flags
	care := make([]selenc.CareBit, 0, 16)
	for _, m := range mp.Masks {
		if m.OnesCount() == 0 {
			continue
		}
		care = care[:0]
		for b := 0; b < mp.SliceWidth; b++ {
			if m.Get(b) {
				care = append(care, selenc.CareBit{Pos: b, Value: true})
			}
		}
		bits += int64(maskSliceCost(mp.SliceWidth, care)) * w
	}
	return bits
}

// maskSliceCost is the selective-encoding cost of a slice — one header
// plus, per group with t target bits, min(t, 2) codewords — with fill
// pinned to 0 (mask hardware unmasks by default), so a mask with more
// ones than zeros still encodes the ones.
func maskSliceCost(width int, ones []selenc.CareBit) int {
	if len(ones) == 0 {
		return 1
	}
	k := selenc.PayloadBits(width)
	cost := 1
	group := -1
	inGroup := 0
	for _, cb := range ones {
		g := cb.Pos / k
		if g != group {
			if inGroup >= 2 {
				cost += 2
			} else {
				cost += inGroup
			}
			group = g
			inGroup = 0
		}
		inGroup++
	}
	if inGroup >= 2 {
		cost += 2
	} else {
		cost += inGroup
	}
	return cost
}

// SyntheticResponses generates a deterministic synthetic response
// stream for a core tested through m wrapper chains: one trit slice per
// scan-out cycle per pattern, with the given fraction of unknown (X)
// bits. Real responses require logic simulation, which is outside this
// library's scope (the paper's, too); the synthetic stream exercises
// the compaction path with realistic X statistics.
func SyntheticResponses(scanOutDepth, m, patterns int, xDensity float64, seed int64) []*bitvec.TritVector {
	rng := newSplitMix(uint64(seed))
	slices := make([]*bitvec.TritVector, 0, scanOutDepth*patterns)
	for p := 0; p < patterns; p++ {
		for d := 0; d < scanOutDepth; d++ {
			tv := bitvec.NewTrit(m)
			for b := 0; b < m; b++ {
				r := rng.next()
				if float64(r%1000)/1000 < xDensity {
					continue // X
				}
				if r&1024 != 0 {
					tv.Set(b, bitvec.One)
				} else {
					tv.Set(b, bitvec.Zero)
				}
			}
			slices = append(slices, tv)
		}
	}
	return slices
}

// splitMix is a tiny deterministic PRNG (SplitMix64), avoiding a
// math/rand dependency in this leaf package.
type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed} }

func (r *splitMix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Compact runs a full response stream through a fresh MISR of the given
// width and taps, with or without the mask plan, and reports the
// signature and contamination.
func Compact(width int, taps []int, slices []*bitvec.TritVector, mp *MaskPlan) (*MISR, error) {
	m, err := New(width, taps)
	if err != nil {
		return nil, err
	}
	for i, s := range slices {
		var mask *bitvec.Vector
		if mp != nil {
			if i >= len(mp.Masks) {
				return nil, fmt.Errorf("misr: mask plan shorter than stream")
			}
			mask = mp.Masks[i]
		}
		if err := m.Step(s, mask); err != nil {
			return nil, err
		}
	}
	return m, nil
}
