package selenc

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"soctap/internal/bitvec"
)

func TestPayloadAndCodewordWidth(t *testing.T) {
	cases := []struct{ m, k, w int }{
		{1, 1, 3},
		{2, 2, 4},
		{3, 2, 4},
		{4, 3, 5},
		{7, 3, 5},
		{8, 4, 6},
		{127, 7, 9},
		{128, 8, 10},
		{255, 8, 10},
		{256, 9, 11},
	}
	for _, c := range cases {
		if got := PayloadBits(c.m); got != c.k {
			t.Errorf("PayloadBits(%d) = %d, want %d", c.m, got, c.k)
		}
		if got := CodewordWidth(c.m); got != c.w {
			t.Errorf("CodewordWidth(%d) = %d, want %d", c.m, got, c.w)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("PayloadBits(0) did not panic")
		}
	}()
	PayloadBits(0)
}

func TestMBand(t *testing.T) {
	// Paper's Figure 2: w = 10 covers exactly m in [128, 255].
	lo, hi, err := MBand(10)
	if err != nil || lo != 128 || hi != 255 {
		t.Errorf("MBand(10) = [%d,%d],%v want [128,255]", lo, hi, err)
	}
	lo, hi, err = MBand(3)
	if err != nil || lo != 1 || hi != 1 {
		t.Errorf("MBand(3) = [%d,%d],%v want [1,1]", lo, hi, err)
	}
	if _, _, err := MBand(2); err == nil {
		t.Error("MBand(2) accepted")
	}
	// Band consistency: every m in a band maps back to w.
	for w := 3; w <= 12; w++ {
		lo, hi, _ := MBand(w)
		for _, m := range []int{lo, (lo + hi) / 2, hi} {
			if CodewordWidth(m) != w {
				t.Errorf("CodewordWidth(%d) = %d, want %d", m, CodewordWidth(m), w)
			}
		}
		if lo > 1 && CodewordWidth(lo-1) == w {
			t.Errorf("band start %d not tight for w=%d", lo, w)
		}
		if CodewordWidth(hi+1) == w {
			t.Errorf("band end %d not tight for w=%d", hi, w)
		}
	}
}

func TestChooseFill(t *testing.T) {
	if ChooseFill(nil) != false {
		t.Error("empty care should fill 0")
	}
	if ChooseFill([]CareBit{{0, true}, {1, false}}) != false {
		t.Error("tie should fill 0")
	}
	if ChooseFill([]CareBit{{0, true}, {1, true}, {2, false}}) != true {
		t.Error("majority ones should fill 1")
	}
}

func TestEncodeEmptySlice(t *testing.T) {
	cws := EncodeSlice(16, nil)
	if len(cws) != 1 || cws[0].Prefix != PrefixHeader {
		t.Fatalf("empty slice encoded as %v", cws)
	}
	if cws[0].Payload&headerFillBit != 0 {
		t.Error("empty slice should fill with 0")
	}
	slices, err := decodeStream(16, cws)
	if err != nil {
		t.Fatal(err)
	}
	if len(slices) != 1 || slices[0].OnesCount() != 0 {
		t.Error("empty slice should decode to all zeros")
	}
}

func TestEncodeAllFillOnes(t *testing.T) {
	// All care bits are 1 -> fill = 1, all-fill header only.
	care := []CareBit{{2, true}, {5, true}, {9, true}}
	cws := EncodeSlice(16, care)
	if len(cws) != 1 {
		t.Fatalf("all-ones care slice used %d codewords, want 1", len(cws))
	}
	slices, err := decodeStream(16, cws)
	if err != nil {
		t.Fatal(err)
	}
	if slices[0].OnesCount() != 16 {
		t.Errorf("decoded %d ones, want 16 (fill=1)", slices[0].OnesCount())
	}
}

func TestEncodeSingleBitMode(t *testing.T) {
	// One isolated target among majority-zero care bits: header + one
	// single-bit codeword. (A lone {7,true} would make fill=1 and cost a
	// single all-fill header instead.)
	care := []CareBit{{7, true}, {20, false}, {40, false}}
	cws := EncodeSlice(64, care)
	if len(cws) != 2 {
		t.Fatalf("%d codewords, want 2", len(cws))
	}
	if cws[1].Prefix != PrefixSingle || cws[1].Payload != 7 {
		t.Errorf("single-bit codeword = %+v", cws[1])
	}
	slices, err := decodeStream(64, cws)
	if err != nil {
		t.Fatal(err)
	}
	if !slices[0].Get(7) || slices[0].OnesCount() != 1 {
		t.Error("decode mismatch")
	}
	// And the lone-1 case really is a single all-fill header.
	if got := EncodeSlice(64, []CareBit{{7, true}}); len(got) != 1 {
		t.Errorf("lone one-valued care bit used %d codewords, want 1", len(got))
	}
}

func TestEncodeGroupCopyMode(t *testing.T) {
	// m=64 -> k=7, group 0 covers bits 0..6. Three targets in group 0
	// must use group-copy (2 codewords), not 3 singles.
	care := []CareBit{{0, true}, {3, true}, {5, true}, {20, false}}
	cws := EncodeSlice(64, care)
	// fill = majority(3 ones, 1 zero) = 1... that changes targets. Use
	// explicit zeros to keep fill = 0.
	care = []CareBit{{0, true}, {3, true}, {5, true}, {20, false}, {21, false}, {22, false}, {23, false}}
	cws = EncodeSlice(64, care)
	// fill = 0 (4 zeros vs 3 ones); targets = bits 0,3,5 all in group 0.
	if len(cws) != 3 {
		t.Fatalf("%d codewords, want 3 (header + group + data): %+v", len(cws), cws)
	}
	if cws[1].Prefix != PrefixGroup || cws[1].Payload != 0 {
		t.Errorf("group codeword = %+v", cws[1])
	}
	if cws[2].Prefix != PrefixData {
		t.Errorf("data codeword = %+v", cws[2])
	}
	slices, err := decodeStream(64, cws)
	if err != nil {
		t.Fatal(err)
	}
	for _, cb := range care {
		if slices[0].Get(cb.Pos) != cb.Value {
			t.Errorf("bit %d = %v, want %v", cb.Pos, slices[0].Get(cb.Pos), cb.Value)
		}
	}
}

// TestAppendEncodeSlice: the word encoder must extend dst with exactly
// the codewords EncodeSlice returns for the same slice, leaving the
// existing prefix untouched — the contract a consumer accumulating one
// codeword buffer across many slices relies on.
func TestAppendEncodeSlice(t *testing.T) {
	const m = 70
	care := [][]CareBit{
		nil,
		{{Pos: 3, Value: true}},
		{{Pos: 0, Value: false}, {Pos: 17, Value: true}, {Pos: 69, Value: true}},
		{{Pos: 5, Value: true}, {Pos: 6, Value: true}, {Pos: 7, Value: false}, {Pos: 64, Value: false}},
		{{Pos: 63, Value: true}, {Pos: 66, Value: false}, {Pos: 68, Value: false}, {Pos: 69, Value: true}},
	}
	var got, want []Codeword
	for _, c := range care {
		want = append(want, EncodeSlice(m, c)...)
		before := slices.Clone(got)
		got = AppendEncodeSlice(got, m, pairsOf(m, c))
		if !slices.Equal(got[:len(before)], before) {
			t.Fatalf("append disturbed the existing prefix (%d codewords)", len(before))
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("accumulated stream differs:\n got %v\nwant %v", got, want)
	}
}

func TestSliceCostMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		m := rng.Intn(300) + 1
		care := randomCare(rng, m, rng.Float64())
		if got, want := referenceSliceCost(m, care), len(EncodeSlice(m, care)); got != want {
			t.Fatalf("m=%d care=%v: cost model %d != encoded %d", m, care, got, want)
		}
	}
}

func randomCare(rng *rand.Rand, m int, density float64) []CareBit {
	var care []CareBit
	for pos := 0; pos < m; pos++ {
		if rng.Float64() < density {
			care = append(care, CareBit{Pos: pos, Value: rng.Intn(2) == 1})
		}
	}
	return care
}

// Property: decode(encode(slice)) reproduces every care bit, fills every
// X with the chosen fill value, and the cost formula holds.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := rng.Intn(500) + 1
		care := randomCare(rng, m, rng.Float64()*0.6)
		cws := EncodeSlice(m, care)
		slices, err := decodeStream(m, cws)
		if err != nil || len(slices) != 1 {
			return false
		}
		got := slices[0]
		fill := ChooseFill(care)
		careAt := make(map[int]bool, len(care))
		for _, cb := range care {
			careAt[cb.Pos] = true
			if got.Get(cb.Pos) != cb.Value {
				return false
			}
		}
		for pos := 0; pos < m; pos++ {
			if !careAt[pos] && got.Get(pos) != fill {
				return false
			}
		}
		return len(cws) == referenceSliceCost(m, care)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: multi-slice streams decode back slice-by-slice.
func TestQuickMultiSliceStream(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := rng.Intn(120) + 1
		nSlices := rng.Intn(20) + 1
		var stream []Codeword
		var wantCare [][]CareBit
		for s := 0; s < nSlices; s++ {
			care := randomCare(rng, m, rng.Float64()*0.3)
			wantCare = append(wantCare, care)
			stream = append(stream, EncodeSlice(m, care)...)
		}
		slices, err := decodeStream(m, stream)
		if err != nil || len(slices) != nSlices {
			return false
		}
		for s, care := range wantCare {
			for _, cb := range care {
				if slices[s].Get(cb.Pos) != cb.Value {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: pack/unpack is the identity on codeword streams.
func TestQuickPackUnpack(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := rng.Intn(400) + 1
		care := randomCare(rng, m, rng.Float64()*0.4)
		cws := EncodeSlice(m, care)
		v := new(bitvec.Vector)
		PackStream(v, m, cws)
		if v.Len() != len(cws)*CodewordWidth(m) {
			return false
		}
		back, err := AppendUnpackStream(nil, m, v)
		if err != nil || len(back) != len(cws) {
			return false
		}
		for i := range cws {
			if cws[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnpackStreamLengthError(t *testing.T) {
	// m=16 -> w=7; a 8-bit stream is misaligned.
	if _, err := AppendUnpackStream(nil, 16, bitvec.New(8)); err == nil {
		t.Error("AppendUnpackStream accepted misaligned stream")
	}
}

// malformedStreams are invalid codeword streams. failAt is the index of
// the codeword whose Step must fail, or len(stream) where Flush must.
var malformedStreams = []struct {
	name   string
	m      int
	stream []Codeword
	failAt int
}{
	{"single before header", 8, []Codeword{{Prefix: PrefixSingle, Payload: 0}}, 0},
	{"group before header", 8, []Codeword{{Prefix: PrefixGroup, Payload: 0}}, 0},
	{"stray data", 8, []Codeword{{Prefix: PrefixHeader}, {Prefix: PrefixData}}, 1},
	{"group not followed by data", 8, []Codeword{
		{Prefix: PrefixHeader}, {Prefix: PrefixGroup, Payload: 0}, {Prefix: PrefixSingle, Payload: 1}}, 2},
	{"dangling group", 8, []Codeword{{Prefix: PrefixHeader}, {Prefix: PrefixGroup, Payload: 0}}, 2},
	{"target out of range", 8, []Codeword{{Prefix: PrefixHeader}, {Prefix: PrefixSingle, Payload: 8}}, 1},
	{"group out of range", 8, []Codeword{{Prefix: PrefixHeader}, {Prefix: PrefixGroup, Payload: 99}}, 1},
}

// TestDecodeStreamErrors: each malformed stream fails the Decompressor,
// at a Step or at the Flush, and the reference decoder alike.
func TestDecodeStreamErrors(t *testing.T) {
	for _, c := range malformedStreams {
		if _, err := decodeStream(c.m, c.stream); err == nil {
			t.Errorf("%s: the decompressor accepted an invalid stream", c.name)
		}
		if _, err := referenceDecodeStream(c.m, c.stream); err == nil {
			t.Errorf("%s: the reference decoder accepted an invalid stream", c.name)
		}
	}
}

// TestEncodeSliceValidation: the list form panics on a care position out
// of range, a repeated one or an unsorted list; the word form on a care
// bit at a position >= m and on a pair count that is not ⌈m/64⌉.
func TestEncodeSliceValidation(t *testing.T) {
	for _, f := range []func(){
		func() { EncodeSlice(8, []CareBit{{-1, true}}) },
		func() { EncodeSlice(8, []CareBit{{8, true}}) },
		func() { EncodeSlice(8, []CareBit{{3, true}, {3, false}}) },
		func() { EncodeSlice(8, []CareBit{{5, true}, {2, false}}) },
		func() { AppendEncodeSlice(nil, 8, []uint64{1 << 8, 0}) },
		func() { AppendEncodeSlice(nil, 70, []uint64{0, 0, 1 << 6, 0}) },
		func() { AppendEncodeSlice(nil, 64, []uint64{0, 0, 1, 0}) },
		func() { AppendEncodeSlice(nil, 65, []uint64{0, 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on invalid care list")
				}
			}()
			f()
		}()
	}
}

func TestCompressionRegime(t *testing.T) {
	// At industrial care densities (2%), the compressed stream must be
	// far smaller than the raw slices; at ISCAS densities (50%) the
	// advantage shrinks drastically.
	rng := rand.New(rand.NewSource(99))
	measure := func(density float64) float64 {
		m := 200
		totalCw := 0
		slices := 400
		for s := 0; s < slices; s++ {
			care := randomCare(rng, m, density)
			totalCw += len(EncodeSlice(m, care))
		}
		compressed := float64(totalCw * CodewordWidth(m))
		raw := float64(slices * m)
		return raw / compressed
	}
	sparse := measure(0.02)
	dense := measure(0.5)
	if sparse < 3 {
		t.Errorf("sparse compression ratio %.2f, want >= 3", sparse)
	}
	if dense > sparse/2 {
		t.Errorf("dense ratio %.2f not clearly below sparse ratio %.2f", dense, sparse)
	}
}

func TestGroupCount(t *testing.T) {
	cases := []struct{ m, want int }{
		{1, 1},    // k=1
		{7, 3},    // k=3 -> ceil(7/3)
		{8, 2},    // k=4 -> 2
		{255, 32}, // k=8 -> ceil(255/8) = 32
	}
	for _, c := range cases {
		if got := GroupCount(c.m); got != c.want {
			t.Errorf("GroupCount(%d) = %d, want %d", c.m, got, c.want)
		}
	}
}

// Property: cost never exceeds the single-bit-only upper bound and never
// drops below the information-theoretic floor of 1 codeword.
func TestQuickCostBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := rng.Intn(256) + 1
		care := randomCare(rng, m, rng.Float64())
		fill := ChooseFill(care)
		targets := 0
		for _, cb := range care {
			if cb.Value != fill {
				targets++
			}
		}
		cost := len(EncodeSlice(m, care))
		upper := 1 + targets         // all-singles
		lower := 1                   // header only
		if targets > 0 && cost < 2 { // at least one op codeword
			return false
		}
		return cost >= lower && cost <= upper
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDeterministicEncoding(t *testing.T) {
	care := []CareBit{{1, true}, {4, false}, {9, true}, {10, true}, {11, true}, {40, false}}
	sort.Slice(care, func(i, j int) bool { return care[i].Pos < care[j].Pos })
	a := EncodeSlice(64, care)
	b := EncodeSlice(64, care)
	if len(a) != len(b) {
		t.Fatal("nondeterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic codewords")
		}
	}
}

// BenchmarkEncodeSlice200 encodes one 200-bit slice at 2% care density
// into a reused codeword buffer.
func BenchmarkEncodeSlice200(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	pairs := pairsOf(200, randomCare(rng, 200, 0.02))
	var dst []Codeword
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = AppendEncodeSlice(dst[:0], 200, pairs)
	}
}
