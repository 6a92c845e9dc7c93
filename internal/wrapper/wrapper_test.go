package wrapper

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"soctap/internal/soc"
)

func testCore() *soc.Core {
	return &soc.Core{
		Name: "t", Inputs: 10, Outputs: 6, Bidirs: 2,
		ScanChains: []int{40, 30, 30, 20, 10},
		Patterns:   50, CareDensity: 0.2, Seed: 1,
	}
}

func TestNewBounds(t *testing.T) {
	c := testCore()
	if _, err := New(c, 0); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := New(c, c.MaxWrapperChains()+1); err == nil {
		t.Error("m > max accepted")
	}
	if _, err := New(c, c.MaxWrapperChains()); err != nil {
		t.Errorf("m = max rejected: %v", err)
	}
}

func TestSingleChain(t *testing.T) {
	c := testCore()
	d, err := New(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Everything on one chain.
	if d.ScanIn != c.StimulusBits() {
		t.Errorf("si = %d, want %d", d.ScanIn, c.StimulusBits())
	}
	if d.ScanOut != c.ResponseBits() {
		t.Errorf("so = %d, want %d", d.ScanOut, c.ResponseBits())
	}
	if len(d.Chains[0].ScanChains) != 5 {
		t.Error("not all scan chains placed")
	}
}

func TestConservation(t *testing.T) {
	c := testCore()
	for m := 1; m <= c.MaxWrapperChains(); m++ {
		d, err := New(c, m)
		if err != nil {
			t.Fatal(err)
		}
		in, out, scan, chains := 0, 0, 0, 0
		for _, ch := range d.Chains {
			in += ch.InCells
			out += ch.OutCells
			scan += ch.ScanLen
			chains += len(ch.ScanChains)
		}
		if in != c.InCells() || out != c.OutCells() || scan != c.ScanCells() || chains != len(c.ScanChains) {
			t.Fatalf("m=%d: conservation violated: in %d out %d scan %d chains %d", m, in, out, scan, chains)
		}
	}
}

func TestBalanceQuality(t *testing.T) {
	// For a core with equal-length scan chains and divisible counts, the
	// partition must be perfectly balanced.
	c := &soc.Core{
		Name: "b", Inputs: 16, Outputs: 16,
		ScanChains: []int{25, 25, 25, 25, 25, 25, 25, 25},
		Patterns:   10, CareDensity: 0.5, Seed: 1,
	}
	d, err := New(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 8 chains of 25 over 4 wrapper chains = 50 scan cells each; +4 input
	// cells each = 54.
	if d.ScanIn != 54 {
		t.Errorf("si = %d, want 54", d.ScanIn)
	}
	if d.ScanOut != 54 {
		t.Errorf("so = %d, want 54", d.ScanOut)
	}
}

func TestScanInMonotonicNonIncreasing(t *testing.T) {
	// si from BFD is not guaranteed monotonic in m in general, but for
	// our balanced-chain cores adding wrapper chains must never increase
	// si by more than the longest scan chain; sanity-check a weaker
	// envelope: si(m) >= ceil(total/m) (lower bound) and si(1) is total.
	c := soc.MustIndustrialCore("ckt-6")
	total := c.StimulusBits()
	for m := 1; m < 40; m++ {
		d, err := New(c, m)
		if err != nil {
			t.Fatal(err)
		}
		lower := (total + m - 1) / m
		if d.ScanIn < lower {
			t.Fatalf("m=%d: si %d below packing lower bound %d", m, d.ScanIn, lower)
		}
	}
}

func TestTestTimeFormula(t *testing.T) {
	// Hand-check the classic formula on a tiny core: 1 scan chain of 4,
	// 2 inputs, 1 output, m=1: si=6, so=5, p=3.
	c := &soc.Core{Name: "f", Inputs: 2, Outputs: 1, ScanChains: []int{4},
		Patterns: 3, CareDensity: 0.5, Seed: 1}
	d, err := New(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.ScanIn != 6 || d.ScanOut != 5 {
		t.Fatalf("si/so = %d/%d, want 6/5", d.ScanIn, d.ScanOut)
	}
	want := int64((1+6)*3 + 5)
	if got := d.TestTime(); got != want {
		t.Errorf("TestTime = %d, want %d", got, want)
	}
	if got := d.StimulusVolume(); got != 3*6*1 {
		t.Errorf("StimulusVolume = %d, want 18", got)
	}
}

func TestTestTimeDecreasesBroadly(t *testing.T) {
	c := soc.MustIndustrialCore("ckt-2")
	t1, _ := New(c, 1)
	t16, _ := New(c, 16)
	t40, _ := New(c, 40)
	if !(t1.TestTime() > t16.TestTime() && t16.TestTime() > t40.TestTime()) {
		t.Errorf("test time not broadly decreasing: %d, %d, %d",
			t1.TestTime(), t16.TestTime(), t40.TestTime())
	}
}

func TestStimulusMapComplete(t *testing.T) {
	c := testCore()
	for _, m := range []int{1, 3, 7, c.MaxWrapperChains()} {
		d, err := New(c, m)
		if err != nil {
			t.Fatal(err)
		}
		refs := d.StimulusMap()
		if len(refs) != c.StimulusBits() {
			t.Fatalf("m=%d: map covers %d cells, want %d", m, len(refs), c.StimulusBits())
		}
		// Every (chain, depth) must be unique, within range, and the
		// per-chain depth set must be exactly [0, stimulusLen).
		seen := make(map[[2]int32]bool)
		perChain := make([]int, m)
		for flat, r := range refs {
			if r.Chain < 0 || int(r.Chain) >= m {
				t.Fatalf("cell %d: chain %d out of range", flat, r.Chain)
			}
			if r.Depth < 0 || int(r.Depth) >= d.Chains[r.Chain].StimulusLen() {
				t.Fatalf("cell %d: depth %d out of range for chain %d (len %d)",
					flat, r.Depth, r.Chain, d.Chains[r.Chain].StimulusLen())
			}
			key := [2]int32{r.Chain, r.Depth}
			if seen[key] {
				t.Fatalf("duplicate placement %v", key)
			}
			seen[key] = true
			perChain[r.Chain]++
		}
		for ci, n := range perChain {
			if n != d.Chains[ci].StimulusLen() {
				t.Fatalf("chain %d holds %d cells, want %d", ci, n, d.Chains[ci].StimulusLen())
			}
		}
	}
}

func TestCombinationalCore(t *testing.T) {
	c := &soc.Core{Name: "comb", Inputs: 32, Outputs: 32, Patterns: 12,
		CareDensity: 0.7, Seed: 1}
	d, err := New(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	if d.ScanIn != 4 { // 32 inputs / 8 chains
		t.Errorf("si = %d, want 4", d.ScanIn)
	}
	if d.ScanOut != 4 {
		t.Errorf("so = %d, want 4", d.ScanOut)
	}
	if c.MaxWrapperChains() != 32 {
		t.Errorf("MaxWrapperChains = %d, want 32", c.MaxWrapperChains())
	}
}

// fillHeights runs waterFill over bins of the given initial heights and
// returns the per-bin additions.
func fillHeights(heights []int, n int) []int {
	order := make([]uint64, len(heights))
	for i, h := range heights {
		order[i] = uint64(h)<<32 | uint64(i)
	}
	slices.Sort(order)
	add := make([]int, len(heights))
	waterFill(order, n, func(bin, a int) { add[bin] = a })
	return add
}

func TestWaterFill(t *testing.T) {
	cases := []struct {
		heights []int
		n       int
		wantMax int
	}{
		{[]int{0, 0, 0}, 9, 3},
		{[]int{5, 0, 0}, 4, 5},  // fill the two low bins first
		{[]int{5, 0, 0}, 11, 6}, // raise to 5 costs 10, 1 cell left -> one bin reaches 6
		{[]int{3, 3, 3}, 0, 3},
		{[]int{1}, 7, 8},
	}
	for _, cse := range cases {
		add := fillHeights(cse.heights, cse.n)
		total := 0
		maxH := 0
		for i, a := range add {
			if a < 0 {
				t.Fatalf("negative addition %v", add)
			}
			total += a
			if h := cse.heights[i] + a; h > maxH {
				maxH = h
			}
		}
		if total != cse.n {
			t.Errorf("waterFill(%v,%d): distributed %d", cse.heights, cse.n, total)
		}
		if maxH != cse.wantMax {
			t.Errorf("waterFill(%v,%d): max height %d, want %d", cse.heights, cse.n, maxH, cse.wantMax)
		}
	}
}

// Property: water-filling is optimal — the resulting max height equals
// the greedy one-at-a-time baseline.
func TestQuickWaterFillOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nBins := rng.Intn(10) + 1
		heights := make([]int, nBins)
		for i := range heights {
			heights[i] = rng.Intn(20)
		}
		n := rng.Intn(100)

		add := fillHeights(heights, n)
		got := 0
		total := 0
		for i := range heights {
			if heights[i]+add[i] > got {
				got = heights[i] + add[i]
			}
			total += add[i]
		}
		if total != n {
			return false
		}

		// Greedy baseline: drop cells one at a time on the lowest bin.
		h := append([]int(nil), heights...)
		for k := 0; k < n; k++ {
			lo := 0
			for i := range h {
				if h[i] < h[lo] {
					lo = i
				}
			}
			h[lo]++
		}
		want := 0
		for _, v := range h {
			if v > want {
				want = v
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: for random cores and all feasible m, the design conserves
// cells and si/so match the chain maxima.
func TestQuickDesignInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nChains := rng.Intn(6)
		chains := make([]int, nChains)
		for i := range chains {
			chains[i] = rng.Intn(50) + 1
		}
		c := &soc.Core{
			Name:   "q",
			Inputs: rng.Intn(20) + 1, Outputs: rng.Intn(20),
			ScanChains: chains, Patterns: rng.Intn(20) + 1,
			CareDensity: 0.5, Seed: seed,
		}
		for m := 1; m <= c.MaxWrapperChains(); m += 1 + rng.Intn(3) {
			d, err := New(c, m)
			if err != nil {
				return false
			}
			si, so, scan := 0, 0, 0
			for _, ch := range d.Chains {
				if l := ch.StimulusLen(); l > si {
					si = l
				}
				if l := ch.ResponseLen(); l > so {
					so = l
				}
				scan += ch.ScanLen
			}
			if si != d.ScanIn || so != d.ScanOut || scan != c.ScanCells() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDesignIndustrial(b *testing.B) {
	c := soc.MustIndustrialCore("ckt-7")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(c, 200); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStimulusMap(b *testing.B) {
	c := soc.MustIndustrialCore("ckt-7")
	d, err := New(c, 200)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = d.StimulusMap()
	}
}
