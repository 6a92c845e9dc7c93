package selenc

import (
	"slices"
	"testing"

	"soctap/internal/bitvec"
)

// FuzzDecodeStream asserts the decoder never panics on arbitrary bit
// streams: every input either errors cleanly or yields well-formed
// slices of the right width.
func FuzzDecodeStream(f *testing.F) {
	f.Add(uint16(16), []byte{0x00, 0x01, 0x02})
	f.Add(uint16(1), []byte{0xff})
	f.Add(uint16(200), []byte{0xaa, 0x55, 0xaa, 0x55, 0x00})
	f.Add(uint16(7), []byte{})
	f.Fuzz(func(t *testing.T, mRaw uint16, raw []byte) {
		m := int(mRaw%512) + 1
		w := CodewordWidth(m)
		// Build a bit vector from the raw bytes, truncated to whole
		// codewords so UnpackStream accepts it.
		nBits := (len(raw) * 8 / w) * w
		v := bitvec.New(nBits)
		for i := 0; i < nBits; i++ {
			if raw[i/8]&(1<<uint(i%8)) != 0 {
				v.Set(i, true)
			}
		}
		cws, err := UnpackStream(m, v)
		if err != nil {
			t.Fatalf("aligned stream rejected: %v", err)
		}
		slices, err := DecodeStream(m, cws)
		if err != nil {
			return // malformed streams must error, not panic
		}
		for _, s := range slices {
			if s.Len() != m {
				t.Fatalf("decoded slice width %d, want %d", s.Len(), m)
			}
		}
	})
}

// FuzzEncodeDecodeRoundTrip asserts the encode/decode pair is lossless
// for arbitrary care patterns derived from fuzz input.
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add(uint16(8), []byte{0x01, 0x80})
	f.Add(uint16(64), []byte{0xff, 0x00, 0x12, 0x34})
	f.Fuzz(func(t *testing.T, mRaw uint16, raw []byte) {
		m := int(mRaw%300) + 1
		var care []CareBit
		seen := map[int]bool{}
		for i := 0; i+1 < len(raw); i += 2 {
			pos := int(raw[i]) % m
			if seen[pos] {
				continue
			}
			seen[pos] = true
			care = append(care, CareBit{Pos: pos, Value: raw[i+1]&1 == 1})
		}
		sortCare(care) // EncodeSlice requires sorted care lists
		cws := EncodeSlice(m, care)
		if !slices.Equal(cws, referenceEncodeSlice(m, care)) {
			t.Fatal("word encoder diverged from the list reference")
		}
		if len(cws) != referenceSliceCost(m, care) {
			t.Fatal("cost model diverged from encoder")
		}
		// The word encoder must extend a non-empty buffer with exactly
		// EncodeSlice's codewords, leaving the existing prefix untouched.
		prefix := []Codeword{{Prefix: PrefixHeader, Payload: 1}, {Prefix: PrefixSingle, Payload: uint32(m - 1)}}
		got := AppendEncodeSlice(slices.Clone(prefix), m, pairsOf(m, care))
		if !slices.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("AppendEncodeSlice disturbed the dst prefix: %v", got[:len(prefix)])
		}
		if !slices.Equal(got[len(prefix):], cws) {
			t.Fatalf("AppendEncodeSlice appended %v, EncodeSlice returned %v", got[len(prefix):], cws)
		}
		decoded, err := DecodeStream(m, cws)
		if err != nil || len(decoded) != 1 {
			t.Fatalf("decode failed: %v", err)
		}
		for _, cb := range care {
			if decoded[0].Get(cb.Pos) != cb.Value {
				t.Fatalf("care bit %d corrupted", cb.Pos)
			}
		}
	})
}
