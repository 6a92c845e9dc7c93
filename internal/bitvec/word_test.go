package bitvec

import (
	"math/rand"
	"testing"
)

// randVector returns a vector of n bits with ~density set, plus the
// reference bool slice.
func randVector(rng *rand.Rand, n int, density float64) (*Vector, []bool) {
	v := New(n)
	ref := make([]bool, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			v.Set(i, true)
			ref[i] = true
		}
	}
	return v, ref
}

func TestReadWriteBits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300) + 1
		v, ref := randVector(rng, n, 0.5)
		// Random reads against the per-bit reference.
		for reads := 0; reads < 20; reads++ {
			width := rng.Intn(65)
			if width > n {
				width = n
			}
			pos := rng.Intn(n - width + 1)
			got := v.ReadBits(pos, width)
			var want uint64
			for b := 0; b < width; b++ {
				if ref[pos+b] {
					want |= 1 << uint(b)
				}
			}
			if got != want {
				t.Fatalf("ReadBits(%d, %d) = %#x, want %#x", pos, width, got, want)
			}
		}
		// Random writes, mirrored into the reference.
		for writes := 0; writes < 20; writes++ {
			width := rng.Intn(65)
			if width > n {
				width = n
			}
			pos := rng.Intn(n - width + 1)
			b := rng.Uint64()
			v.WriteBits(pos, b, width)
			for k := 0; k < width; k++ {
				ref[pos+k] = b&(1<<uint(k)) != 0
			}
		}
		for i := 0; i < n; i++ {
			if v.Get(i) != ref[i] {
				t.Fatalf("trial %d: bit %d diverged after WriteBits", trial, i)
			}
		}
	}
}

func TestCopyBits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		srcBits := rng.Intn(400) + 1
		dstBits := rng.Intn(400) + 1
		src, srcRef := randVector(rng, srcBits, 0.5)
		dst := make([]uint64, (dstBits+63)/64)
		dstRef := make([]bool, dstBits)
		n := rng.Intn(min(srcBits, dstBits) + 1)
		srcOff := rng.Intn(srcBits - n + 1)
		dstOff := rng.Intn(dstBits - n + 1)
		CopyBits(dst, dstOff, src.Words(), srcOff, n)
		for b := 0; b < n; b++ {
			dstRef[dstOff+b] = srcRef[srcOff+b]
		}
		for i := 0; i < dstBits; i++ {
			got := dst[i>>6]&(1<<uint(i&63)) != 0
			if got != dstRef[i] {
				t.Fatalf("CopyBits(dstOff=%d, srcOff=%d, n=%d): bit %d = %v, want %v",
					dstOff, srcOff, n, i, got, dstRef[i])
			}
		}
	}
}

func TestWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(500) + 64
		v := New(n)
		wr := NewWriter(v.Words())
		var ref []bool
		for wr.Pos() < n-64 {
			width := rng.Intn(65)
			b := rng.Uint64()
			wr.AppendBits(b, width)
			for k := 0; k < width; k++ {
				ref = append(ref, b&(1<<uint(k)) != 0)
			}
		}
		if wr.Pos() != len(ref) {
			t.Fatalf("writer pos %d, appended %d bits", wr.Pos(), len(ref))
		}
		for i, want := range ref {
			if v.Get(i) != want {
				t.Fatalf("trial %d: writer bit %d = %v, want %v", trial, i, v.Get(i), want)
			}
		}
	}
	// Reset mid-slice.
	words := make([]uint64, 4)
	w := Writer{}
	w.Reset(words, 100)
	w.AppendBits(0b11, 2)
	if words[1] != 3<<36 {
		t.Fatalf("Reset(…, 100) wrote to the wrong position: %#x", words)
	}
}

// TestVectorAppendBits: appends grow the vector bit-exactly, including
// into capacity a Reset left with stale words.
func TestVectorAppendBits(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	v := New(0)
	for trial := 0; trial < 50; trial++ {
		v.SetAll(true) // stale ones in the capacity Reset keeps
		v.Reset(0)
		var ref []bool
		for range rng.Intn(40) {
			width := rng.Intn(65)
			b := rng.Uint64()
			v.AppendBits(b, width)
			for k := 0; k < width; k++ {
				ref = append(ref, b&(1<<uint(k)) != 0)
			}
		}
		if v.Len() != len(ref) {
			t.Fatalf("trial %d: length %d, appended %d bits", trial, v.Len(), len(ref))
		}
		for i, want := range ref {
			if v.Get(i) != want {
				t.Fatalf("trial %d: bit %d = %v, want %v", trial, i, v.Get(i), want)
			}
		}
		if len(v.Words()) > 0 && v.Len()%64 != 0 && v.Words()[len(v.Words())-1]>>(v.Len()%64) != 0 {
			t.Fatalf("trial %d: tail bits beyond Len set", trial)
		}
	}
}

// FuzzWordKernels cross-checks the word-parallel primitives against
// naive per-bit loops on arbitrary inputs: CopyBits into a zeroed
// destination (per the kernel-equivalence contract), plus a
// ReadBits/WriteBits round trip.
func FuzzWordKernels(f *testing.F) {
	f.Add([]byte{0x01}, uint16(3), uint8(7))
	f.Add([]byte{0xff, 0x00, 0xaa, 0x55, 0x12, 0x34, 0x56, 0x78, 0x9a}, uint16(17), uint8(40))
	f.Add([]byte{}, uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, startRaw uint16, widthRaw uint8) {
		n := len(raw)*8 + 1
		v := New(n)
		for i := 0; i < len(raw)*8; i++ {
			if raw[i/8]&(1<<uint(i%8)) != 0 {
				v.Set(i, true)
			}
		}

		// CopyBits vs per-bit reference.
		width := int(widthRaw)
		if width > n {
			width = n
		}
		start := int(startRaw) % (n - width + 1)
		words := make([]uint64, (width+63)/64)
		CopyBits(words, 0, v.Words(), start, width)
		for b := 0; b < width; b++ {
			if got := words[b>>6]&(1<<uint(b&63)) != 0; got != v.Get(start+b) {
				t.Fatalf("CopyBits(%d,%d) bit %d = %v, want %v", start, width, b, got, v.Get(start+b))
			}
		}

		// ReadBits/WriteBits round trip at the fuzzed offset.
		if width >= 1 && width <= 64 && start+width <= n {
			got := v.ReadBits(start, width)
			v.WriteBits(start, got, width)
			if v.ReadBits(start, width) != got {
				t.Fatal("WriteBits(ReadBits(…)) not idempotent")
			}
		}
	})
}

// ---- benchmarks for the comparison paths (Equal / CompatibleWith) ----

func benchPair(n int) (*Vector, *Vector) {
	a := New(n)
	for i := 0; i < n; i += 3 {
		a.Set(i, true)
	}
	return a, a.Clone()
}

func BenchmarkVectorEqual(b *testing.B) {
	x, y := benchPair(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !x.Equal(y) {
			b.Fatal("unequal")
		}
	}
}

func BenchmarkTritVectorEqual(b *testing.B) {
	tv := NewTrit(4096)
	for i := 0; i < 4096; i += 2 {
		tv.Set(i, One)
	}
	o := tv.Clone()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !tv.Equal(o) {
			b.Fatal("unequal")
		}
	}
}

func BenchmarkCompatibleWith(b *testing.B) {
	tv := NewTrit(4096)
	o := NewTrit(4096)
	for i := 0; i < 4096; i += 2 {
		tv.Set(i, One)
		o.Set(i+1, Zero)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !tv.CompatibleWith(o) {
			b.Fatal("incompatible")
		}
	}
}
