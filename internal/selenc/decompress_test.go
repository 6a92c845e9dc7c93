package selenc

import (
	"math/rand"
	"testing"

	"soctap/internal/bitvec"
)

// decodeStream decodes a whole stream through a new Decompressor with m
// outputs.
func decodeStream(m int, stream []Codeword) ([]*bitvec.Vector, error) {
	d, err := New(m)
	if err != nil {
		return nil, err
	}
	return d.run(stream)
}

// run steps every codeword of stream through d, then flushes it, and
// returns the emitted slices, each cloned out of the recycled buffers.
func (d *Decompressor) run(stream []Codeword) ([]*bitvec.Vector, error) {
	var out []*bitvec.Vector
	for _, cw := range stream {
		s, err := d.Step(cw)
		if err != nil {
			return nil, err
		}
		if s != nil {
			out = append(out, s.Clone())
		}
	}
	s, err := d.Flush()
	if err != nil {
		return nil, err
	}
	if s != nil {
		out = append(out, s.Clone())
	}
	return out, nil
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("New(0) accepted")
	}
	d, err := New(200)
	if err != nil {
		t.Fatal(err)
	}
	if d.M() != 200 {
		t.Errorf("M = %d", d.M())
	}
}

// TestQuickMachineEquivalence: the Decompressor agrees with the
// reference decoder on 200 random encoded streams of 1 to 10 slices, m
// in [1, 300] at care densities in [0, 0.5), and charges exactly one
// cycle per codeword.
func TestQuickMachineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := range 200 {
		m := rng.Intn(300) + 1
		var stream []Codeword
		nSlices := rng.Intn(10) + 1
		for range nSlices {
			stream = append(stream, EncodeSlice(m, randomCare(rng, m, rng.Float64()/2))...)
		}
		want, err := referenceDecodeStream(m, stream)
		if err != nil {
			t.Fatal(err)
		}
		d, _ := New(m)
		got, err := d.run(stream)
		if err != nil {
			t.Fatalf("trial %d, m=%d: %v", trial, m, err)
		}
		if len(got) != nSlices || len(want) != nSlices {
			t.Fatalf("trial %d, m=%d: %d slices, reference %d, want %d", trial, m, len(got), len(want), nSlices)
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("trial %d, m=%d slice %d: %s != %s", trial, m, i, got[i], want[i])
			}
		}
		if d.cycles != int64(len(stream)) {
			t.Fatalf("trial %d: %d cycles, want %d (one codeword per cycle)", trial, d.cycles, len(stream))
		}
	}
}

// TestStepMatchesReferenceDecoder: stepped one codeword at a time over
// 100 random streams of 1 to 10 slices at care density 0.1, the
// Decompressor emits each slice at the header of the next one and the
// last at Flush, each equal to the reference decoder's, and counts one
// cycle per codeword.
func TestStepMatchesReferenceDecoder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := range 100 {
		m := rng.Intn(300) + 1
		var stream []Codeword
		var headers []int // index of each slice's header in stream
		for range rng.Intn(10) + 1 {
			headers = append(headers, len(stream))
			stream = append(stream, EncodeSlice(m, randomCare(rng, m, 0.1))...)
		}
		want, err := referenceDecodeStream(m, stream)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) != len(headers) {
			t.Fatalf("trial %d, m=%d: reference decoded %d slices, want %d", trial, m, len(want), len(headers))
		}
		d, _ := New(m)
		n := 0 // slices emitted so far
		for i, cw := range stream {
			s, err := d.Step(cw)
			if err != nil {
				t.Fatalf("trial %d, m=%d, codeword %d: %v", trial, m, i, err)
			}
			if atHeader := n+1 < len(headers) && i == headers[n+1]; (s != nil) != atHeader {
				t.Fatalf("trial %d, m=%d, codeword %d: emitted %v, want a slice only at the next header", trial, m, i, s != nil)
			}
			if s == nil {
				continue
			}
			if !s.Equal(want[n]) {
				t.Fatalf("trial %d, m=%d slice %d: %s != %s", trial, m, n, s, want[n])
			}
			n++
		}
		last, err := d.Flush()
		if err != nil || last == nil || n != len(want)-1 || !last.Equal(want[n]) {
			t.Fatalf("trial %d, m=%d: flush after %d slices: %v, %v", trial, m, n, last, err)
		}
		if d.cycles != int64(len(stream)) {
			t.Fatalf("trial %d: %d cycles, want %d (one codeword per cycle)", trial, d.cycles, len(stream))
		}
	}
}

// TestStepErrors: the Decompressor rejects each malformed stream at the
// codeword that breaks it, or at the Flush of a stream that ends inside
// a group-copy pair, with no slice, and accepts every codeword before.
func TestStepErrors(t *testing.T) {
	for _, c := range malformedStreams {
		d, _ := New(c.m)
		for i, cw := range c.stream[:c.failAt] {
			if _, err := d.Step(cw); err != nil {
				t.Fatalf("%s: codeword %d rejected: %v", c.name, i, err)
			}
		}
		var s *bitvec.Vector
		var err error
		if c.failAt < len(c.stream) {
			s, err = d.Step(c.stream[c.failAt])
		} else {
			s, err = d.Flush()
		}
		if err == nil || s != nil {
			t.Errorf("%s: step %d returned (%v, %v), want an error and no slice", c.name, c.failAt, s, err)
		}
	}
}

// TestStepRecyclesTwoBuffers: the machine builds slices in two buffers,
// alternated per header. A slice a header emits stays intact while the
// next slice's codewords are stepped, as sim's receiver relies on, and a
// warm machine steps a stream without allocating.
func TestStepRecyclesTwoBuffers(t *testing.T) {
	const m = 20
	var stream []Codeword
	for s := range 6 {
		// Fill 0 (a tie), targets s, s+1 and 17: a header, a group
		// copy or two singles, then a single.
		care := []CareBit{{Pos: s, Value: true}, {Pos: s + 1, Value: true},
			{Pos: 12, Value: false}, {Pos: 13, Value: false}, {Pos: 14, Value: false}, {Pos: 17, Value: true}}
		stream = append(stream, EncodeSlice(m, care)...)
	}
	want, err := referenceDecodeStream(m, stream)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := New(m)
	var held *bitvec.Vector
	vectors := map[*bitvec.Vector]bool{}
	n := 0
	for i, cw := range stream {
		s, err := d.Step(cw)
		if err != nil {
			t.Fatal(err)
		}
		if s == nil {
			if held != nil && !held.Equal(want[n-1]) {
				t.Fatalf("codeword %d changed slice %d before the next header: %s, want %s", i, n-1, held, want[n-1])
			}
			continue
		}
		if !s.Equal(want[n]) {
			t.Fatalf("slice %d: %s, want %s", n, s, want[n])
		}
		held, vectors[s] = s, true
		n++
	}
	last, err := d.Flush()
	if err != nil || last == nil || !last.Equal(want[n]) {
		t.Fatalf("flush: %v, %v", last, err)
	}
	vectors[last] = true
	if n+1 != len(want) || len(vectors) != 2 {
		t.Errorf("%d slices in %d vectors, want %d in 2", n+1, len(vectors), len(want))
	}
	allocs := testing.AllocsPerRun(10, func() {
		for _, cw := range stream {
			d.Step(cw)
		}
		d.Flush()
	})
	if allocs != 0 {
		t.Errorf("a warm machine allocates %.0f times per stream, want 0", allocs)
	}
}

func TestStepEmitsOnNextHeader(t *testing.T) {
	m := 16
	d, _ := New(m)
	s1 := EncodeSlice(m, []CareBit{{Pos: 3, Value: true}, {Pos: 5, Value: false}, {Pos: 9, Value: false}})
	s2 := EncodeSlice(m, nil)
	for i, cw := range s1 {
		out, err := d.Step(cw)
		if err != nil {
			t.Fatal(err)
		}
		if out != nil {
			t.Fatalf("codeword %d of first slice emitted a slice early", i)
		}
	}
	out, err := d.Step(s2[0])
	if err != nil {
		t.Fatal(err)
	}
	if out == nil {
		t.Fatal("second header did not emit first slice")
	}
	if !out.Get(3) || out.Get(5) || out.Get(9) {
		t.Error("emitted slice content wrong")
	}
	last, err := d.Flush()
	if err != nil || last == nil {
		t.Fatal("flush did not emit final slice")
	}
	if last.OnesCount() != 0 {
		t.Error("final all-fill-0 slice has ones")
	}
	if again, _ := d.Flush(); again != nil {
		t.Error("second flush emitted a slice")
	}
}

func TestHardwareCost(t *testing.T) {
	c := HardwareCost(255)
	// m + k + 5 = 255 + 8 + 5 = 268 FFs; 23 + 48 + 127 = 198 gates.
	if c.FlipFlops != 268 {
		t.Errorf("FlipFlops = %d, want 268", c.FlipFlops)
	}
	if c.Gates != 198 {
		t.Errorf("Gates = %d, want 198", c.Gates)
	}
	// Monotone in m.
	if HardwareCost(16).FlipFlops >= HardwareCost(64).FlipFlops {
		t.Error("cost not monotone in m")
	}
	// Paper's claim: ~1% of a million-gate design for a large
	// decompressor, counting a flip-flop as 6 gate equivalents.
	if frac := float64(c.Gates+6*c.FlipFlops) / 1e6; frac > 0.01 {
		t.Errorf("cost fraction %.4f exceeds 1%% for a 1M-gate design", frac)
	}
}
