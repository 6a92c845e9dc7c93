package power

import (
	"fmt"
	"math/rand"
	"testing"

	"soctap/internal/soc"
	"soctap/internal/wrapper"
)

func powerCore(seed int64, density float64) *soc.Core {
	chains := make([]int, 10)
	for i := range chains {
		chains[i] = 30
	}
	return &soc.Core{
		Name: "p", Inputs: 10, Outputs: 8,
		ScanChains: chains, Patterns: 15,
		CareDensity: density, Clustering: 0.6, Seed: seed,
	}
}

func TestScanInPowerBasics(t *testing.T) {
	c := powerCore(1, 0.1)
	est, err := ScanInPower(c, 10, FillZero)
	if err != nil {
		t.Fatal(err)
	}
	if est.MeanWTC <= 0 || est.PeakWTC <= 0 {
		t.Fatalf("degenerate estimate %+v", est)
	}
	if float64(est.PeakWTC) < est.MeanWTC {
		t.Error("peak below mean")
	}
	if est.Patterns != 15 || est.M != 10 {
		t.Error("metadata wrong")
	}
	if _, err := ScanInPower(c, 0, FillZero); err == nil {
		t.Error("m=0 accepted")
	}
}

func TestFillStrategyOrdering(t *testing.T) {
	// Alternate fill maximizes transitions; the quiet fills must be far
	// below it at low care density (most bits are X).
	c := powerCore(2, 0.05)
	zero, err := ScanInPower(c, 10, FillZero)
	if err != nil {
		t.Fatal(err)
	}
	slice, err := ScanInPower(c, 10, FillSlice)
	if err != nil {
		t.Fatal(err)
	}
	alt, err := ScanInPower(c, 10, FillAlternate)
	if err != nil {
		t.Fatal(err)
	}
	if !(zero.MeanWTC < alt.MeanWTC/3) {
		t.Errorf("0-fill %f not well below alternate %f", zero.MeanWTC, alt.MeanWTC)
	}
	if !(slice.MeanWTC < alt.MeanWTC) {
		t.Errorf("slice-fill %f not below alternate %f", slice.MeanWTC, alt.MeanWTC)
	}
}

func TestWTCHandComputed(t *testing.T) {
	// One chain of 4 cells, one pattern fully specified: 1,0,0,1 in
	// scan-in (depth) order. Transitions at depth 0->1 (weight 3-0=3... )
	// WTC weights: transition between dep and dep+1 counts (si-1-dep).
	// si=4: transitions at dep0 (1->0, weight 3) and dep2 (0->1, weight 1)
	// => WTC = 4.
	c := &soc.Core{
		Name: "hand", Inputs: 0, Outputs: 0, ScanChains: []int{4},
		Patterns: 1, CareDensity: 0.5, Seed: 1,
	}
	ts, err := c.TestSet()
	if err != nil {
		t.Fatal(err)
	}
	cb := ts.Cubes[0]
	cb.Care = cb.Care[:0]
	for i, v := range []bool{true, false, false, true} {
		cb.Set(i, v)
	}
	est, err := ScanInPower(c, 1, FillZero)
	if err != nil {
		t.Fatal(err)
	}
	if est.PeakWTC != 4 {
		t.Errorf("WTC = %d, want 4", est.PeakWTC)
	}
}

func TestProfile(t *testing.T) {
	s := &soc.SOC{Name: "ps", Cores: []*soc.Core{powerCore(3, 0.1), powerCore(4, 0.3)}}
	s.Cores[1].Name = "p2"
	prof, err := Profile(s, func(c *soc.Core) int { return 8 }, FillZero, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof) != 2 || prof[0] < 1 || prof[1] < 1 {
		t.Fatalf("profile %v", prof)
	}
	if _, err := Profile(s, func(c *soc.Core) int { return 0 }, FillZero, 10); err == nil {
		t.Error("invalid width accepted")
	}
}

func TestFillStrategyString(t *testing.T) {
	if FillZero.String() != "zero-fill" || FillSlice.String() != "slice-fill" ||
		FillAlternate.String() != "alternate-fill" {
		t.Error("names wrong")
	}
	if FillStrategy(9).String() == "" {
		t.Error("unknown strategy empty")
	}
}

// gridScanInPower is the reference form of ScanInPower: it rebuilds
// every pattern as a dense m × ScanIn grid of cells, resolves the fill
// of every unspecified cell and counts the weighted transitions of
// every chain. It also returns how many slices of all patterns held
// care bits split evenly between 0 and 1, the majority ties of slice
// fill.
func gridScanInPower(c *soc.Core, m int, fill FillStrategy) (*Estimate, int, error) {
	d, err := wrapper.New(c, m)
	if err != nil {
		return nil, 0, err
	}
	src, err := c.Cubes()
	if err != nil {
		return nil, 0, err
	}
	refs := d.StimulusMap()
	si := d.ScanIn

	est := &Estimate{Core: c.Name, M: m, Fill: fill, Patterns: src.Len()}

	type cell struct {
		specified bool
		value     bool
	}
	grid := make([][]cell, m)
	for ch := range grid {
		grid[ch] = make([]cell, si)
	}
	sliceOnes := make([]int, si)
	sliceCare := make([]int, si)

	var total int64
	ties := 0
	for cb, ok := src.Next(); ok; cb, ok = src.Next() {
		for ch := range grid {
			for dep := range grid[ch] {
				grid[ch][dep] = cell{}
			}
		}
		for i := range sliceOnes {
			sliceOnes[i], sliceCare[i] = 0, 0
		}
		for _, bit := range cb.Care {
			r := refs[bit.Pos]
			grid[r.Chain][r.Depth] = cell{specified: true, value: bit.Value}
			sliceCare[r.Depth]++
			if bit.Value {
				sliceOnes[r.Depth]++
			}
		}
		for dep := 0; dep < si; dep++ {
			if sliceCare[dep] > 0 && sliceOnes[dep]*2 == sliceCare[dep] {
				ties++
			}
			var f bool
			switch fill {
			case FillZero:
				f = false
			case FillSlice:
				f = sliceOnes[dep]*2 > sliceCare[dep]
			}
			for ch := 0; ch < m; ch++ {
				if grid[ch][dep].specified {
					continue
				}
				v := f
				if fill == FillAlternate {
					v = dep%2 == 1
				}
				grid[ch][dep].value = v
			}
		}
		var wtc int64
		for ch := 0; ch < m; ch++ {
			row := grid[ch]
			for dep := 0; dep+1 < si; dep++ {
				if row[dep].value != row[dep+1].value {
					wtc += int64(si - 1 - dep)
				}
			}
		}
		total += wtc
		if wtc > est.PeakWTC {
			est.PeakWTC = wtc
		}
	}
	if est.Patterns > 0 {
		est.MeanWTC = float64(total) / float64(est.Patterns)
	}
	return est, ties, nil
}

// randomPowerCore draws a small core: a few wrapper inputs and
// bidirectionals, up to five scan chains of uneven length, and cubes
// from sparse to fully specified.
func randomPowerCore(rng *rand.Rand, i int) *soc.Core {
	chains := make([]int, rng.Intn(6))
	for j := range chains {
		chains[j] = 1 + rng.Intn(40)
	}
	inputs := rng.Intn(12)
	if inputs == 0 && len(chains) == 0 {
		inputs = 1
	}
	return &soc.Core{
		Name: fmt.Sprintf("rand-%d", i), Inputs: inputs, Outputs: rng.Intn(8), Bidirs: rng.Intn(3),
		ScanChains: chains, Patterns: 1 + rng.Intn(20),
		CareDensity: []float64{0.02, 0.1, 0.3, 0.7, 1}[rng.Intn(5)],
		Clustering:  rng.Float64(), Seed: rng.Int63(),
	}
}

// TestScanInPowerMatchesGrid: the care-bit pricing of ScanInPower gives
// exactly the reference grid's Estimate on random cores, at every m and
// under every fill, slices whose care bits tie included.
func TestScanInPowerMatchesGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ties := 0
	for i := 0; i < 40; i++ {
		c := randomPowerCore(rng, i)
		for m := 1; m <= c.MaxWrapperChains(); m++ {
			for _, fill := range []FillStrategy{FillZero, FillSlice, FillAlternate} {
				got, err := ScanInPower(c, m, fill)
				if err != nil {
					t.Fatalf("%s m=%d %v: %v", c.Name, m, fill, err)
				}
				want, n, err := gridScanInPower(c, m, fill)
				if err != nil {
					t.Fatal(err)
				}
				if *got != *want {
					t.Errorf("%s m=%d %v: got %+v, grid gives %+v", c.Name, m, fill, *got, *want)
				}
				if fill == FillSlice {
					ties += n
				}
			}
		}
	}
	if ties == 0 {
		t.Error("no slice of any pattern tied its care bits; the majority tie went untested")
	}
}

// BenchmarkScanInPower times ScanInPower ("care") against the grid
// reference ("grid") on every d695 core, whose care densities run 0.32
// to 0.60, and on the 3%-dense industrial core ckt-1, at m = 1 and at
// m = 64 (or the core's widest wrapper), under every fill. A run times
// the two forms of each case back to back, so N runs give N alternating
// pairs (-count N would repeat each form N times in a row instead):
//
//	for i in $(seq 10); do go test -run '^$' -bench BenchmarkScanInPower -benchtime 100ms ./internal/power; done
func BenchmarkScanInPower(b *testing.B) {
	cores := append(soc.D695().Cores, soc.MustIndustrialCore("ckt-1"))
	forms := []struct {
		name  string
		price func(c *soc.Core, m int, fill FillStrategy) error
	}{
		{"care", func(c *soc.Core, m int, fill FillStrategy) error { _, err := ScanInPower(c, m, fill); return err }},
		{"grid", func(c *soc.Core, m int, fill FillStrategy) error {
			_, _, err := gridScanInPower(c, m, fill)
			return err
		}},
	}
	for _, c := range cores {
		// Generate the test set outside the timed loops.
		if _, err := c.TestSet(); err != nil {
			b.Fatal(err)
		}
		for _, m := range []int{1, min(64, c.MaxWrapperChains())} {
			for _, fill := range []FillStrategy{FillZero, FillSlice, FillAlternate} {
				for _, f := range forms {
					b.Run(fmt.Sprintf("%s/m=%d/%v/%s", c.Name, m, fill, f.name), func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							if err := f.price(c, m, fill); err != nil {
								b.Fatal(err)
							}
						}
					})
				}
			}
		}
	}
}
