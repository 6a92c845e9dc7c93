package dictenc

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"soctap/internal/bitvec"
	"soctap/internal/cube"
	"soctap/internal/soc"
	"soctap/internal/wrapper"
)

// design returns a wrapper design of m chains, each one scan chain of
// depth cells, so that cube bit c·depth+k loads chain c at scan depth k.
// At depth 1 every pattern is one slice.
func design(t *testing.T, m, depth int) *wrapper.Design {
	t.Helper()
	chains := make([]int, m)
	for i := range chains {
		chains[i] = depth
	}
	d, err := wrapper.New(&soc.Core{Name: "dict", ScanChains: chains, Patterns: 1}, m)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// source returns one single-slice cube per slice, each slice given as
// (chain, value01) pairs in ascending chain order.
func source(m int, slices ...[]int) cube.Source {
	set := cube.NewSet(m)
	for _, pairs := range slices {
		cb := cube.NewCube(m)
		for i := 0; i+1 < len(pairs); i += 2 {
			cb.Care = append(cb.Care, cube.CareBit{Pos: pairs[i], Value: pairs[i+1] == 1})
		}
		set.Cubes = append(set.Cubes, cb)
	}
	return cube.NewSetSource(set)
}

// encode runs Encode and returns the dictionary, every pattern's
// tallies and the stream.
func encode(t *testing.T, d *wrapper.Design, src cube.Source, sizes []int) (*Dictionary, [][]Tally, *bitvec.Vector) {
	t.Helper()
	var tallies [][]Tally
	stream := new(bitvec.Vector)
	dict, err := Encode(context.Background(), d, src, sizes, func(ts []Tally) {
		tallies = append(tallies, slices.Clone(ts))
	}, stream)
	if err != nil {
		t.Fatal(err)
	}
	return dict, tallies, stream
}

func words(dict *Dictionary) []string {
	var s []string
	for _, w := range dict.Words {
		s = append(s, w.String())
	}
	return s
}

func TestBuildValidation(t *testing.T) {
	d := design(t, 8, 1)
	for _, sizes := range [][]int{nil, {0}, {4, 0}} {
		if _, err := Encode(context.Background(), d, source(8), sizes, nil, nil); err == nil {
			t.Errorf("sizes %v accepted", sizes)
		}
	}
	dict, _, stream := encode(t, d, source(8), []int{4})
	if got := words(dict); !slices.Equal(got, []string{"00000000"}) || stream.Len() != 0 {
		t.Errorf("no slices: words %v, %d stream bits; want one all-zero word and no bits", got, stream.Len())
	}
}

// TestBuildMergesCompatibleSlices: a slice merges into the first entry
// it is compatible with, and X positions are filled with 0.
func TestBuildMergesCompatibleSlices(t *testing.T) {
	d := design(t, 8, 1)
	src := source(8,
		[]int{0, 1, 2, 0},
		[]int{0, 1, 3, 1}, // compatible with the first: merges into entry 0
		[]int{0, 0},       // conflicts on bit 0: founds entry 1
		[]int{3, 1, 5, 1}, // compatible with entry 0, merges there
	)
	dict, tallies, stream := encode(t, d, src, []int{4})
	if got, want := words(dict), []string{"10010100", "00000000"}; !slices.Equal(got, want) {
		t.Fatalf("words %v, want %v", got, want)
	}
	// Every slice is a hit: a flag bit and one index bit each.
	for p, ts := range tallies {
		if want := (Tally{Words: 2, Hit: 2, Bits: 2}); ts[0] != want {
			t.Errorf("pattern %d: tally %+v, want %+v", p, ts[0], want)
		}
	}
	if got, want := stream.String(), "00"+"00"+"01"+"00"; got != want {
		t.Errorf("stream %s, want %s", got, want)
	}
}

// TestBuildRespectsCapacity: mutually incompatible slices fill the
// dictionary; the rest miss and ship as literals. A smaller capacity is
// the prefix of a larger one's dictionary, priced in the same pass.
func TestBuildRespectsCapacity(t *testing.T) {
	const m = 10
	d := design(t, m, 1)
	var oneHot [][]int
	for i := 0; i < m; i++ {
		var s []int
		for b := 0; b < m; b++ {
			v := 0
			if b == i {
				v = 1
			}
			s = append(s, b, v)
		}
		oneHot = append(oneHot, s)
	}
	small, smallTallies, smallStream := encode(t, d, source(m, oneHot...), []int{4})
	if len(small.Words) != 4 {
		t.Fatalf("%d words, want 4", len(small.Words))
	}
	// 4 hits at 1+2 bits (ceil(log2 4) = 2), 6 misses at 1+10 bits.
	if want := 4*3 + 6*11; smallStream.Len() != want {
		t.Errorf("stream %d bits, want %d", smallStream.Len(), want)
	}
	both, tallies, stream := encode(t, d, source(m, oneHot...), []int{4, 16})
	if len(both.Words) != m || !slices.Equal(words(both)[:4], words(small)) {
		t.Errorf("capacity 16: words %v, want 10 starting with %v", words(both), words(small))
	}
	if want := m * 5; stream.Len() != want { // every slice hits at 1+4 bits
		t.Errorf("capacity 16: stream %d bits, want %d", stream.Len(), want)
	}
	for p, ts := range tallies {
		if ts[0] != smallTallies[p][0] {
			t.Errorf("pattern %d: capacity 4 tally %+v priced with 16, %+v alone", p, ts[0], smallTallies[p][0])
		}
		if want := (Tally{Words: m, Hit: 5, Bits: 5}); ts[1] != want {
			t.Errorf("pattern %d: capacity 16 tally %+v, want %+v", p, ts[1], want)
		}
	}
}

func TestRepetitiveSlicesCompressWell(t *testing.T) {
	// Highly repetitive slices (few distinct signatures) are all hits.
	var slices [][]int
	for i := 0; i < 100; i++ {
		slices = append(slices, [][]int{{0, 1, 5, 0}, {1, 1, 6, 1}, {2, 0}}[i%3])
	}
	dict, tallies, stream := encode(t, design(t, 32, 1), source(32, slices...), []int{4})
	if len(dict.Words) > 3 {
		t.Errorf("%d words for 3 signatures", len(dict.Words))
	}
	for p, ts := range tallies {
		if ts[0].Bits != int64(ts[0].Hit) {
			t.Fatalf("pattern %d missed: %+v", p, ts[0])
		}
	}
	// 100 slices × (1 + 2 index bits) << raw 100×32.
	if stream.Len() >= 100*8 {
		t.Errorf("compressed to %d bits, expected < 800", stream.Len())
	}
}

func TestIndexBits(t *testing.T) {
	cases := []struct{ words, want int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {16, 4}, {17, 5},
	}
	for _, c := range cases {
		d := &Dictionary{M: 4, Words: make([]*bitvec.Vector, c.words)}
		if got := d.IndexBits(); got != c.want {
			t.Errorf("IndexBits(%d words) = %d, want %d", c.words, got, c.want)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	two := &Dictionary{M: 8, Words: []*bitvec.Vector{bitvec.New(8), bitvec.New(8)}}
	three := &Dictionary{M: 8, Words: []*bitvec.Vector{bitvec.New(8), bitvec.New(8), bitvec.New(8)}}
	cases := []struct {
		name   string
		dict   *Dictionary
		stream string
	}{
		{"empty stream", two, ""},
		{"truncated index", two, "0"},
		{"truncated literal", two, "10000000"},
		{"index out of range", three, "011"}, // flag, then index 3 LSB first
	}
	var dst bitvec.Vector
	for _, c := range cases {
		stream, err := bitvec.FromString(c.stream)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.dict.Decode(stream, 0, &dst); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

// TestEncodeDecodeRoundTrip: every slice of a multi-slice pattern
// decodes to a word agreeing with its care bits, and the decoder
// consumes the stream exactly.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	const m, depth = 24, 5
	rng := rand.New(rand.NewSource(4))
	set := cube.NewSet(m * depth)
	for range 12 {
		cb := cube.NewCube(m * depth)
		for pos := range m * depth {
			if rng.Float64() < 0.2 {
				cb.Care = append(cb.Care, cube.CareBit{Pos: pos, Value: rng.Intn(2) == 1})
			}
		}
		set.Cubes = append(set.Cubes, cb)
	}
	dict, _, stream := encode(t, design(t, m, depth), cube.NewSetSource(set), []int{8})
	if len(dict.Words) != 8 {
		t.Fatalf("%d words, want a full dictionary of 8", len(dict.Words))
	}
	off, hits := 0, 0
	var slice bitvec.Vector
	for p, cb := range set.Cubes {
		for k := range depth {
			next, err := dict.Decode(stream, off, &slice)
			if err != nil {
				t.Fatalf("pattern %d slice %d: %v", p, k, err)
			}
			if next-off == 1+dict.IndexBits() {
				hits++
			}
			off = next
			for _, bit := range cb.Care {
				if bit.Pos%depth == k && slice.Get(bit.Pos/depth) != bit.Value {
					t.Fatalf("pattern %d slice %d: chain %d = %v, want %v", p, k, bit.Pos/depth, !bit.Value, bit.Value)
				}
			}
		}
	}
	if off != stream.Len() {
		t.Errorf("decoded %d of %d stream bits", off, stream.Len())
	}
	if hits == 0 || hits == len(set.Cubes)*depth {
		t.Errorf("%d of %d slices hit; want both hits and literals", hits, len(set.Cubes)*depth)
	}
}

// Property: on random cubes over a random design, the stream decodes to
// slices covering every care bit and is consumed exactly, its length is
// the largest capacity's tally, and every capacity priced in one pass
// gets the tallies and the dictionary prefix of a pass at that capacity
// alone.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, depth := rng.Intn(140)+1, rng.Intn(4)+1
		d := design(t, m, depth)
		set := cube.NewSet(m * depth)
		for range rng.Intn(30) + 1 {
			cb := cube.NewCube(m * depth)
			for pos := range m * depth {
				if rng.Float64() < 0.3 {
					cb.Care = append(cb.Care, cube.CareBit{Pos: pos, Value: rng.Intn(2) == 1})
				}
			}
			set.Cubes = append(set.Cubes, cb)
		}
		sizes := []int{rng.Intn(15) + 1, rng.Intn(4) + 1, rng.Intn(40) + 1}
		dict, tallies, stream := encode(t, d, cube.NewSetSource(set), sizes)
		var bits int64
		largest := slices.Index(sizes, slices.Max(sizes))
		for _, ts := range tallies {
			bits += ts[largest].Bits
		}
		if bits != int64(stream.Len()) {
			return false
		}
		for k, size := range sizes {
			alone, aloneTallies, _ := encode(t, d, cube.NewSetSource(set), []int{size})
			if !slices.Equal(words(alone), words(dict)[:len(alone.Words)]) {
				return false
			}
			for p := range tallies {
				if tallies[p][k] != aloneTallies[p][0] {
					return false
				}
			}
		}
		off := 0
		var slice bitvec.Vector
		for _, cb := range set.Cubes {
			for k := range depth {
				var err error
				if off, err = dict.Decode(stream, off, &slice); err != nil {
					return false
				}
				for _, bit := range cb.Care {
					if bit.Pos%depth == k && slice.Get(bit.Pos/depth) != bit.Value {
						return false
					}
				}
			}
		}
		return off == stream.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestEncodeCancelled: a cancelled context stops either pass.
func TestEncodeCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Encode(ctx, design(t, 8, 1), source(8, []int{0, 1}), []int{4}, nil, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestCost(t *testing.T) {
	c := CostFor(64, 16)
	if c.SRAMBits != 16*64 {
		t.Errorf("SRAMBits = %d", c.SRAMBits)
	}
	if c.Gates <= 0 || c.FFs <= 0 {
		t.Error("degenerate cost")
	}
}
