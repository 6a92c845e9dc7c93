package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"soctap/internal/selenc"
	"soctap/internal/soc"
	"soctap/internal/wrapper"
)

func smallCore(seed int64) *soc.Core {
	return &soc.Core{
		Name: "small", Inputs: 12, Outputs: 9, Bidirs: 1,
		ScanChains: []int{30, 25, 20, 15},
		Patterns:   20, CareDensity: 0.15, Clustering: 0.5, DensityDecay: 0.5,
		Seed: seed,
	}
}

// referenceTDC computes test time and volume by actually encoding every
// slice with the real selective-encoding encoder — the ground truth the
// fast cost model in tdcCost must match bit-for-bit.
func referenceTDC(t *testing.T, c *soc.Core, m int) (int64, int64) {
	t.Helper()
	d, err := wrapper.New(c, m)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := c.TestSet()
	if err != nil {
		t.Fatal(err)
	}
	refs := d.StimulusMap()
	w := selenc.CodewordWidth(m)
	so := int64(d.ScanOut)

	var totalCW, time int64
	for j, cb := range ts.Cubes {
		slices := make([][]selenc.CareBit, d.ScanIn)
		for _, bit := range cb.Care {
			r := refs[bit.Pos]
			slices[r.Depth] = append(slices[r.Depth], selenc.CareBit{Pos: int(r.Chain), Value: bit.Value})
		}
		var cw int64
		for _, slice := range slices {
			// EncodeSlice requires sorted care lists.
			sortCare(slice)
			cw += int64(len(selenc.EncodeSlice(m, slice)))
		}
		totalCW += cw
		if j == 0 {
			time += cw
		} else if cw > so {
			time += cw
		} else {
			time += so
		}
	}
	time += int64(ts.Len()) + so
	return time, totalCW * int64(w)
}

func sortCare(care []selenc.CareBit) {
	for i := 1; i < len(care); i++ {
		for j := i; j > 0 && care[j-1].Pos > care[j].Pos; j-- {
			care[j-1], care[j] = care[j], care[j-1]
		}
	}
}

func TestEvalTDCMatchesRealEncoder(t *testing.T) {
	c := smallCore(11)
	for _, m := range []int{1, 2, 3, 5, 8, 13, c.MaxWrapperChains()} {
		got, err := EvalTDC(c, m)
		if err != nil {
			t.Fatal(err)
		}
		wantTime, wantVol := referenceTDC(t, c, m)
		if got.Time != wantTime || got.Volume != wantVol {
			t.Errorf("m=%d: cost model (τ=%d, V=%d) != encoder (τ=%d, V=%d)",
				m, got.Time, got.Volume, wantTime, wantVol)
		}
		if got.Width != selenc.CodewordWidth(m) || got.M != m || !got.UseTDC || !got.Feasible {
			t.Errorf("m=%d: config metadata wrong: %+v", m, got)
		}
	}
}

// Property: the cost model matches the encoder on random cores.
func TestQuickCostModelEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nChains := rng.Intn(5)
		chains := make([]int, nChains)
		for i := range chains {
			chains[i] = rng.Intn(30) + 1
		}
		c := &soc.Core{
			Name: "q", Inputs: rng.Intn(15) + 1, Outputs: rng.Intn(15),
			ScanChains: chains, Patterns: rng.Intn(10) + 1,
			CareDensity: 0.05 + rng.Float64()*0.6, Clustering: rng.Float64(),
			Seed: seed,
		}
		m := rng.Intn(c.MaxWrapperChains()) + 1
		got, err := EvalTDC(c, m)
		if err != nil {
			return false
		}
		wantTime, wantVol := referenceTDCquiet(c, m)
		return got.Time == wantTime && got.Volume == wantVol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func referenceTDCquiet(c *soc.Core, m int) (int64, int64) {
	d, _ := wrapper.New(c, m)
	ts, _ := c.TestSet()
	refs := d.StimulusMap()
	w := selenc.CodewordWidth(m)
	so := int64(d.ScanOut)
	var totalCW, time int64
	for j, cb := range ts.Cubes {
		slices := make([][]selenc.CareBit, d.ScanIn)
		for _, bit := range cb.Care {
			r := refs[bit.Pos]
			slices[r.Depth] = append(slices[r.Depth], selenc.CareBit{Pos: int(r.Chain), Value: bit.Value})
		}
		var cw int64
		for _, slice := range slices {
			sortCare(slice)
			cw += int64(len(selenc.EncodeSlice(m, slice)))
		}
		totalCW += cw
		if j == 0 {
			time += cw
		} else if cw > so {
			time += cw
		} else {
			time += so
		}
	}
	time += int64(ts.Len()) + so
	return time, totalCW * int64(w)
}

// TestEvalTDCLargeCubeMatchesRealEncoder covers big-cube inputs on
// wide designs: thousands of care bits per pattern must still match
// the real encoder exactly.
func TestEvalTDCLargeCubeMatchesRealEncoder(t *testing.T) {
	chains := make([]int, 24)
	for i := range chains {
		chains[i] = 120
	}
	c := &soc.Core{
		Name: "bigcube", Inputs: 30, Outputs: 30,
		ScanChains: chains, // 2880 cells
		Patterns:   6, CareDensity: 0.25, Clustering: 0.4, Seed: 17,
	}
	for _, m := range []int{5, 24, 40} {
		got, err := EvalTDC(c, m)
		if err != nil {
			t.Fatal(err)
		}
		wantTime, wantVol := referenceTDC(t, c, m)
		if got.Time != wantTime || got.Volume != wantVol {
			t.Errorf("m=%d: cost model (τ=%d, V=%d) != encoder (τ=%d, V=%d)",
				m, got.Time, got.Volume, wantTime, wantVol)
		}
	}
}

// TestKernelPathsAgree forces both plane-building strategies of the
// word kernel — dense (flat planes + transpose) and sparse (scatter
// over dirty rows) — onto the same cores and requires identical costs
// from each, for both group-copy settings. The density heuristic may
// pick either path; correctness must never depend on the choice.
func TestKernelPathsAgree(t *testing.T) {
	cores := []*soc.Core{
		smallCore(7),
		{Name: "dense", Inputs: 20, Outputs: 10, ScanChains: []int{70, 40, 40, 10},
			Patterns: 15, CareDensity: 0.55, Clustering: 0.3, Seed: 9},
		{Name: "thin", Inputs: 8, Outputs: 8, ScanChains: []int{90, 90, 90, 90, 90, 90},
			Patterns: 12, CareDensity: 0.02, Clustering: 0.8, Seed: 31},
		{Name: "comb", Inputs: 130, Outputs: 5, Patterns: 9,
			CareDensity: 0.4, Seed: 12},
	}
	for _, c := range cores {
		for _, m := range []int{1, 3, 17, c.MaxWrapperChains()} {
			if m > c.MaxWrapperChains() {
				continue
			}
			var results [2][2]Config
			for pi, dense := range []bool{false, true} {
				ev, err := NewEvaluator(c)
				if err != nil {
					t.Fatal(err)
				}
				ev.forceDense = &dense
				for gi, gc := range []bool{true, false} {
					cfg, err := ev.TDC(m, gc)
					if err != nil {
						t.Fatal(err)
					}
					results[pi][gi] = cfg
				}
				if ev.win.dense != dense {
					t.Fatalf("%s: forced dense=%v, window priced with dense=%v", c.Name, dense, ev.win.dense)
				}
			}
			if results[0] != results[1] {
				t.Errorf("%s m=%d: sparse %+v != dense %+v", c.Name, m, results[0], results[1])
			}
		}
	}
}

// TestKernelSteadyStateZeroAlloc is the 0 allocs/op gate for the word
// kernel: once the scratch planes are warm, repeated tdcCost calls on
// both paths must not allocate. Run by the `make check`
// kernel-equivalence target.
func TestKernelSteadyStateZeroAlloc(t *testing.T) {
	c := smallCore(77)
	for _, dense := range []bool{false, true} {
		ev, err := NewEvaluator(c)
		if err != nil {
			t.Fatal(err)
		}
		ev.forceDense = &dense
		d, err := ev.Design(9)
		if err != nil {
			t.Fatal(err)
		}
		ev.tdcCost(d, true) // load and keep the whole-set window, warm the scratch
		if ev.win.dense != dense || !ev.kept() {
			t.Fatalf("dense=%v: loaded window dense=%v kept=%v", dense, ev.win.dense, ev.kept())
		}
		allocs := testing.AllocsPerRun(20, func() {
			ev.tdcCost(d, true)
			ev.tdcCost(d, false)
		})
		if allocs != 0 {
			t.Errorf("dense=%v: steady-state tdcCost allocates %.1f allocs/op, want 0", dense, allocs)
		}
	}
}

// TestEvaluatorMatchesOneShotAPI asserts the reusable evaluator returns
// exactly what the package-level one-shot functions do, and that
// consecutive calls at one m share the wrapper design.
func TestEvaluatorMatchesOneShotAPI(t *testing.T) {
	c := smallCore(23)
	ev, err := NewEvaluator(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 5, 11} {
		tdc, err := ev.TDC(m, true)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EvalTDC(c, m)
		if err != nil {
			t.Fatal(err)
		}
		if tdc != want {
			t.Errorf("m=%d: Evaluator.TDC %+v != EvalTDC %+v", m, tdc, want)
		}
		noGC, err := ev.TDC(m, false)
		if err != nil {
			t.Fatal(err)
		}
		wantNoGC, err := EvalTDCNoGroupCopy(c, m)
		if err != nil {
			t.Fatal(err)
		}
		if noGC != wantNoGC {
			t.Errorf("m=%d: Evaluator.TDC(no group copy) mismatch", m)
		}
		direct, err := ev.NoTDC(m)
		if err != nil {
			t.Fatal(err)
		}
		wantDirect, err := EvalNoTDC(c, m)
		if err != nil {
			t.Fatal(err)
		}
		if direct != wantDirect {
			t.Errorf("m=%d: Evaluator.NoTDC mismatch", m)
		}
		bits, err := ev.PatternBits(m)
		if err != nil {
			t.Fatal(err)
		}
		wantBits, err := PatternBits(c, m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bits, wantBits) {
			t.Errorf("m=%d: Evaluator.PatternBits mismatch", m)
		}
	}
	d1, err := ev.Design(7)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := ev.Design(7)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Error("Design(7) rebuilt instead of reusing the cached design")
	}
	if _, err := ev.TDC(0, true); err == nil {
		t.Error("m=0 accepted")
	}
}

func TestEvalNoTDC(t *testing.T) {
	c := smallCore(3)
	for _, m := range []int{1, 4, 10} {
		got, err := EvalNoTDC(c, m)
		if err != nil {
			t.Fatal(err)
		}
		d, _ := wrapper.New(c, m)
		if got.Time != d.TestTime() || got.Volume != d.StimulusVolume() {
			t.Errorf("m=%d: (%d,%d) want (%d,%d)", m, got.Time, got.Volume, d.TestTime(), d.StimulusVolume())
		}
		if got.UseTDC || !got.Feasible || got.M != m {
			t.Errorf("m=%d: metadata wrong: %+v", m, got)
		}
	}
	if _, err := EvalNoTDC(c, 0); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := EvalTDC(c, c.MaxWrapperChains()+1); err == nil {
		t.Error("m beyond max accepted")
	}
}

func TestConfigBetter(t *testing.T) {
	inf := Config{}
	a := Config{Feasible: true, Time: 10, Volume: 100}
	b := Config{Feasible: true, Time: 10, Volume: 90}
	c := Config{Feasible: true, Time: 9, Volume: 500}
	if inf.better(a) {
		t.Error("infeasible better than feasible")
	}
	if !a.better(inf) {
		t.Error("feasible not better than infeasible")
	}
	if !b.better(a) || a.better(b) {
		t.Error("volume tiebreak wrong")
	}
	if !c.better(b) {
		t.Error("time priority wrong")
	}
}

func TestSparseCoreCompressesWell(t *testing.T) {
	// At 2% care density the compressed volume must be well below the
	// raw stimulus volume for a same-width direct configuration.
	chains := make([]int, 40)
	for i := range chains {
		chains[i] = 50
	}
	c := &soc.Core{
		Name: "sparse", Inputs: 40, Outputs: 40,
		ScanChains: chains, // 2000 cells in short compression-ready chains
		Patterns:   40, CareDensity: 0.02, Clustering: 0.8, Seed: 5,
	}
	tdc, err := EvalTDC(c, 40) // w = 8
	if err != nil {
		t.Fatal(err)
	}
	raw, err := EvalNoTDC(c, 8) // same 8 TAM wires
	if err != nil {
		t.Fatal(err)
	}
	if tdc.Volume*3 > raw.Volume {
		t.Errorf("TDC volume %d not well below direct volume %d", tdc.Volume, raw.Volume)
	}
	if tdc.Time >= raw.Time {
		t.Errorf("TDC time %d not below direct time %d on sparse core", tdc.Time, raw.Time)
	}
}

func TestPatternBitsSumMatchesEvalTDC(t *testing.T) {
	c := smallCore(44)
	for _, m := range []int{2, 5, 11} {
		per, err := PatternBits(c, m)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := EvalTDC(c, m)
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, b := range per {
			if b <= 0 {
				t.Fatalf("m=%d: non-positive pattern cost", m)
			}
			sum += b
		}
		if sum != cfg.Volume {
			t.Errorf("m=%d: per-pattern sum %d != EvalTDC volume %d", m, sum, cfg.Volume)
		}
	}
	if _, err := PatternBits(c, 0); err == nil {
		t.Error("m=0 accepted")
	}
}
