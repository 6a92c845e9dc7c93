package decomp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"soctap/internal/selenc"
)

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
	if d.InputWidth() != 10 { // ceil(log2(201)) + 2 = 8 + 2
		t.Errorf("InputWidth = %d, want 10", d.InputWidth())
	}
}

func TestRunMatchesDecodeStream(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		m := rng.Intn(300) + 1
		var stream []selenc.Codeword
		nSlices := rng.Intn(10) + 1
		for s := 0; s < nSlices; s++ {
			var care []selenc.CareBit
			for pos := 0; pos < m; pos++ {
				if rng.Float64() < 0.1 {
					care = append(care, selenc.CareBit{Pos: pos, Value: rng.Intn(2) == 1})
				}
			}
			stream = append(stream, selenc.EncodeSlice(m, care)...)
		}
		want, err := selenc.DecodeStream(m, stream)
		if err != nil {
			t.Fatal(err)
		}
		d, _ := New(m)
		got, err := d.Run(stream)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("m=%d: %d slices, want %d", m, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("m=%d slice %d: %s != %s", m, i, got[i], want[i])
			}
		}
		if d.Cycles() != int64(len(stream)) {
			t.Errorf("Cycles = %d, want %d (one codeword per cycle)", d.Cycles(), len(stream))
		}
		if d.Slices() != int64(nSlices) {
			t.Errorf("Slices = %d, want %d", d.Slices(), nSlices)
		}
	}
}

// TestRunUnaffectedByBufferReuse: the machine recycles two slice
// buffers, so Run must hand out copies. Slices Run returned stay intact
// while the same machine decodes more slices, and each is its own
// vector.
func TestRunUnaffectedByBufferReuse(t *testing.T) {
	const m = 20
	var stream []selenc.Codeword
	for s := 0; s < 6; s++ {
		stream = append(stream, selenc.EncodeSlice(m, []selenc.CareBit{{Pos: s, Value: true}, {Pos: s + 7, Value: true}})...)
	}
	want, err := selenc.DecodeStream(m, stream)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := New(m)
	got, err := d.Run(stream)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(selenc.EncodeSlice(m, []selenc.CareBit{{Pos: 19, Value: true}})); err != nil {
		t.Fatal(err)
	}
	for _, cw := range selenc.EncodeSlice(m, nil) {
		if _, err := d.Step(cw); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d slices, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Errorf("slice %d changed after later decoding: %s, want %s", i, got[i], want[i])
		}
		for j := range i {
			if got[i] == got[j] {
				t.Errorf("slices %d and %d share one vector", j, i)
			}
		}
	}
}

func TestStepEmitsOnNextHeader(t *testing.T) {
	m := 16
	d, _ := New(m)
	s1 := selenc.EncodeSlice(m, []selenc.CareBit{{Pos: 3, Value: true}, {Pos: 5, Value: false}, {Pos: 9, Value: false}})
	s2 := selenc.EncodeSlice(m, nil)
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

func TestStepErrors(t *testing.T) {
	mk := func() *Decompressor { d, _ := New(8); return d }

	d := mk()
	if _, err := d.Step(selenc.Codeword{Prefix: selenc.PrefixSingle, Payload: 1}); err == nil {
		t.Error("single before header accepted")
	}
	d = mk()
	if _, err := d.Step(selenc.Codeword{Prefix: selenc.PrefixGroup, Payload: 0}); err == nil {
		t.Error("group before header accepted")
	}
	d = mk()
	if _, err := d.Step(selenc.Codeword{Prefix: selenc.PrefixData, Payload: 0}); err == nil {
		t.Error("stray data accepted")
	}
	d = mk()
	d.Step(selenc.Codeword{Prefix: selenc.PrefixHeader})
	if _, err := d.Step(selenc.Codeword{Prefix: selenc.PrefixSingle, Payload: 8}); err == nil {
		t.Error("out-of-range target accepted")
	}
	d = mk()
	d.Step(selenc.Codeword{Prefix: selenc.PrefixHeader})
	if _, err := d.Step(selenc.Codeword{Prefix: selenc.PrefixGroup, Payload: 9}); err == nil {
		t.Error("out-of-range group accepted")
	}
	d = mk()
	d.Step(selenc.Codeword{Prefix: selenc.PrefixHeader})
	d.Step(selenc.Codeword{Prefix: selenc.PrefixGroup, Payload: 0})
	if _, err := d.Step(selenc.Codeword{Prefix: selenc.PrefixSingle, Payload: 0}); err == nil {
		t.Error("non-data after group accepted")
	}
	d = mk()
	d.Step(selenc.Codeword{Prefix: selenc.PrefixHeader})
	d.Step(selenc.Codeword{Prefix: selenc.PrefixGroup, Payload: 0})
	if _, err := d.Flush(); err == nil {
		t.Error("flush inside group-copy pair accepted")
	}
}

// Property: the machine agrees with the reference decoder on random
// encoded streams and charges exactly one cycle per codeword.
func TestQuickMachineEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := rng.Intn(200) + 1
		var stream []selenc.Codeword
		for s := 0; s < rng.Intn(8)+1; s++ {
			var care []selenc.CareBit
			for pos := 0; pos < m; pos++ {
				if rng.Float64() < 0.2 {
					care = append(care, selenc.CareBit{Pos: pos, Value: rng.Intn(2) == 1})
				}
			}
			stream = append(stream, selenc.EncodeSlice(m, care)...)
		}
		want, err := selenc.DecodeStream(m, stream)
		if err != nil {
			return false
		}
		d, _ := New(m)
		got, err := d.Run(stream)
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				return false
			}
		}
		return d.Cycles() == int64(len(stream))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
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
	// decompressor. Our model must stay in that regime.
	frac := HardwareCost(255).CostFraction(1000000, 6)
	if frac > 0.01 {
		t.Errorf("cost fraction %.4f exceeds 1%% for a 1M-gate design", frac)
	}
	if HardwareCost(8).CostFraction(0, 6) != 0 {
		t.Error("zero-gate design should report 0 fraction")
	}
}

func BenchmarkDecompressRun(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := 200
	var stream []selenc.Codeword
	for s := 0; s < 200; s++ {
		var care []selenc.CareBit
		for pos := 0; pos < m; pos++ {
			if rng.Float64() < 0.02 {
				care = append(care, selenc.CareBit{Pos: pos, Value: rng.Intn(2) == 1})
			}
		}
		stream = append(stream, selenc.EncodeSlice(m, care)...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _ := New(m)
		if _, err := d.Run(stream); err != nil {
			b.Fatal(err)
		}
	}
}
