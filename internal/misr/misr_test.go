package misr

import (
	"math/rand"
	"testing"
	"testing/quick"

	"soctap/internal/bitvec"
)

func tritSlice(t *testing.T, s string) *bitvec.TritVector {
	t.Helper()
	tv, err := bitvec.TritFromString(s)
	if err != nil {
		t.Fatal(err)
	}
	return tv
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, nil); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := New(8, []int{8}); err == nil {
		t.Error("out-of-range tap accepted")
	}
	m, err := New(8, []int{0, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.Width() != 8 {
		t.Error("width wrong")
	}
}

func TestSignatureDeterministic(t *testing.T) {
	run := func() *bitvec.Vector {
		m, _ := New(8, []int{0, 2, 3, 4})
		for _, s := range []string{"10110010", "01100101", "11111111", "00000000"} {
			if err := m.Step(tritSlice(t, s), nil); err != nil {
				t.Fatal(err)
			}
		}
		return m.Signature()
	}
	a, b := run(), run()
	if !a.Equal(b) {
		t.Error("same stream gave different signatures")
	}
}

func TestSignatureSensitivity(t *testing.T) {
	// A single flipped response bit must change the signature (no
	// aliasing for this particular short stream).
	sig := func(flip bool) *bitvec.Vector {
		m, _ := New(16, []int{0, 2, 3, 5})
		streams := []string{
			"1011001001100101", "0110010110110010", "1111000011110000",
		}
		for i, s := range streams {
			tv := tritSlice(t, s)
			if flip && i == 1 {
				if tv.Get(7) == bitvec.One {
					tv.Set(7, bitvec.Zero)
				} else {
					tv.Set(7, bitvec.One)
				}
			}
			if err := m.Step(tv, nil); err != nil {
				t.Fatal(err)
			}
		}
		return m.Signature()
	}
	if sig(false).Equal(sig(true)) {
		t.Error("single-bit error aliased")
	}
}

func TestXContamination(t *testing.T) {
	m, _ := New(8, []int{0, 3})
	if err := m.Step(tritSlice(t, "1011001X"), nil); err != nil {
		t.Fatal(err)
	}
	if m.XCycles() != 1 {
		t.Error("X not detected")
	}

	// With the mask covering the X position, the signature stays clean.
	clean, _ := New(8, []int{0, 3})
	mask := bitvec.New(8)
	mask.Set(7, true)
	if err := clean.Step(tritSlice(t, "1011001X"), mask); err != nil {
		t.Fatal(err)
	}
	if clean.XCycles() > 0 {
		t.Error("masked X still contaminated")
	}
}

func TestMaskingYieldsKnownSignature(t *testing.T) {
	// Two streams identical except at X positions must give the same
	// signature when masked, different (or contaminated) when not.
	mkStream := func(fill byte) []*bitvec.TritVector {
		raw := []string{"101X0010", "0110X101", "11X11111"}
		var out []*bitvec.TritVector
		for _, s := range raw {
			resolved := make([]byte, len(s))
			for i := range resolved {
				if s[i] == 'X' {
					resolved[i] = fill
				} else {
					resolved[i] = s[i]
				}
			}
			out = append(out, tritSlice(t, string(resolved)))
		}
		return out
	}
	xStream := []*bitvec.TritVector{
		tritSlice(t, "101X0010"), tritSlice(t, "0110X101"), tritSlice(t, "11X11111"),
	}
	mp, err := BuildMaskPlan(xStream)
	if err != nil {
		t.Fatal(err)
	}
	sigFor := func(fill byte) *bitvec.Vector {
		m, _ := New(8, []int{0, 2, 3})
		for i, s := range mkStream(fill) {
			if err := m.Step(s, mp.Masks[i]); err != nil {
				t.Fatal(err)
			}
		}
		return m.Signature()
	}
	if !sigFor('0').Equal(sigFor('1')) {
		t.Error("masked signatures differ depending on X resolution")
	}
}

func TestBuildMaskPlanErrors(t *testing.T) {
	if _, err := BuildMaskPlan(nil); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := BuildMaskPlan([]*bitvec.TritVector{
		bitvec.NewTrit(4), bitvec.NewTrit(5),
	}); err == nil {
		t.Error("ragged stream accepted")
	}
}

func TestMaskVolume(t *testing.T) {
	slices := []*bitvec.TritVector{
		tritSlice(t, "1010"), // no X: 1 bit
		tritSlice(t, "1X10"), // X: 1+4 bits
		tritSlice(t, "XXXX"), // X: 1+4 bits
	}
	mp, err := BuildMaskPlan(slices)
	if err != nil {
		t.Fatal(err)
	}
	// Flag-plus-codec costing at width 4 (codeword width 5, payload 3):
	// every slice pays 1 enable bit; "1010" is clean (flag only);
	// "1X10" -> header + single = 2 codewords = 10 bits;
	// "XXXX" -> header + group-copy(bits 0..2) + single(bit 3) = 4
	// codewords = 20 bits. Total = 3 + 10 + 20.
	if got := mp.VolumeBits(); got != 3+10+20 {
		t.Errorf("VolumeBits = %d, want 33", got)
	}
	// A clean stream costs exactly one flag bit per cycle.
	clean, err := BuildMaskPlan([]*bitvec.TritVector{
		tritSlice(t, "1010"), tritSlice(t, "0101"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := clean.VolumeBits(); got != 2 {
		t.Errorf("clean VolumeBits = %d, want 2", got)
	}
}

func TestCompactEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var slices []*bitvec.TritVector
	for i := 0; i < 50; i++ {
		tv := bitvec.NewTrit(16)
		for b := 0; b < 16; b++ {
			switch rng.Intn(10) {
			case 0:
				// leave X (10%)
			case 1, 2, 3, 4:
				tv.Set(b, bitvec.One)
			default:
				tv.Set(b, bitvec.Zero)
			}
		}
		slices = append(slices, tv)
	}
	unmasked, err := Compact(16, []int{0, 2, 3, 5}, slices, nil)
	if err != nil {
		t.Fatal(err)
	}
	if unmasked.XCycles() == 0 {
		t.Fatal("stream with 10% X rate did not contaminate the MISR")
	}
	mp, err := BuildMaskPlan(slices)
	if err != nil {
		t.Fatal(err)
	}
	masked, err := Compact(16, []int{0, 2, 3, 5}, slices, mp)
	if err != nil {
		t.Fatal(err)
	}
	if masked.XCycles() > 0 {
		t.Error("masked stream contaminated")
	}
	if masked.Steps() != 50 {
		t.Errorf("steps = %d", masked.Steps())
	}
	if mp.VolumeBits() <= 0 {
		t.Error("mask volume degenerate")
	}
	if p := masked.AliasingProbability(); p <= 0 || p > 1.0/65536+1e-12 {
		t.Errorf("aliasing probability %g", p)
	}
}

// Property: masking exactly the X positions always yields an
// X-clean signature that is independent of how the Xs would resolve.
func TestQuickMaskedDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := rng.Intn(24) + 2
		n := rng.Intn(30) + 1
		base := make([]*bitvec.TritVector, n)
		for i := range base {
			tv := bitvec.NewTrit(w)
			for b := 0; b < w; b++ {
				tv.Set(b, bitvec.Trit(rng.Intn(3)))
			}
			base[i] = tv
		}
		mp, err := BuildMaskPlan(base)
		if err != nil {
			return false
		}
		resolve := func(fill bitvec.Trit) []*bitvec.TritVector {
			out := make([]*bitvec.TritVector, n)
			for i, tv := range base {
				out[i] = tv.Fill(fill)
			}
			return out
		}
		taps := []int{0}
		if w > 3 {
			taps = append(taps, 2, w/2)
		}
		s0, err := Compact(w, taps, resolve(bitvec.Zero), mp)
		if err != nil {
			return false
		}
		s1, err := Compact(w, taps, resolve(bitvec.One), mp)
		if err != nil {
			return false
		}
		return s0.XCycles() == 0 && s1.XCycles() == 0 &&
			s0.Signature().Equal(s1.Signature())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
