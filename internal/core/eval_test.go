package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"soctap/internal/cube"
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
	return referenceCost(c, m, func(slice []selenc.CareBit) int64 {
		return int64(len(selenc.EncodeSlice(m, slice)))
	})
}

// referenceTDCTargets is the no-group-copy reference: per slice, one
// header plus one single-bit codeword per target bit, the targets being
// the care bits that differ from selenc.ChooseFill.
func referenceTDCTargets(c *soc.Core, m int) (int64, int64) {
	return referenceCost(c, m, func(slice []selenc.CareBit) int64 {
		fill := selenc.ChooseFill(slice)
		cw := int64(1)
		for _, cb := range slice {
			if cb.Value != fill {
				cw++
			}
		}
		return cw
	})
}

// referenceCost slices every cube through the wrapper design's stimulus
// map, prices each sorted slice with sliceCW and applies the test-time
// formula — the ground truth the counting kernel must match.
func referenceCost(c *soc.Core, m int, sliceCW func(slice []selenc.CareBit) int64) (int64, int64) {
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
			cw += sliceCW(slice)
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

// denseCore and thinCore bracket the care densities the counting
// kernel sees: d695-class dense cubes and industrial-class thin ones.
func denseCore() *soc.Core {
	return &soc.Core{Name: "dense", Inputs: 20, Outputs: 10, ScanChains: []int{70, 40, 40, 10},
		Patterns: 15, CareDensity: 0.55, Clustering: 0.3, Seed: 9}
}

func thinCore() *soc.Core {
	return &soc.Core{Name: "thin", Inputs: 8, Outputs: 8, ScanChains: []int{90, 90, 90, 90, 90, 90},
		Patterns: 12, CareDensity: 0.02, Clustering: 0.8, Seed: 31}
}

// tieCore is a combinational core priced at m = 10 (k = 4, not a
// divisor of 10: groups {0-3}, {4-7}, {8-9}) as a single slice per
// cube. Every cube ties (ones·2 = care), and the two fills cost
// differently under group copy — fill 0, as selenc.ChooseFill breaks
// ties, leaves the ones as targets, fill 1 the zeros.
func tieCore() *soc.Core {
	set := cube.NewSet(10)
	for _, onesZeros := range [][2][]int{
		{{0, 1, 2}, {4, 5, 8}},       // fill 0: 2 ops, fill 1: 3
		{{4, 5, 6, 7}, {0, 3, 8, 9}}, // fill 0: 2 ops, fill 1: 4
	} {
		cb := cube.NewCube(10)
		for i, positions := range onesZeros {
			for _, pos := range positions {
				cb.Set(pos, i == 0)
			}
		}
		if err := set.Add(cb); err != nil {
			panic(err)
		}
	}
	return &soc.Core{Name: "tie", Inputs: 10, Outputs: 4, Patterns: 2, ExplicitCubes: set}
}

// noInputCore has no wrapper input cells, so every segment is a scan
// chain; longChainCore has one deep chain among many single-cell input
// segments, so at large m one codec group is hundreds of rows deep and
// every other group one row.
func noInputCore() *soc.Core {
	return &soc.Core{Name: "noinputs", Outputs: 7, ScanChains: []int{33, 20, 20, 9, 4},
		Patterns: 14, CareDensity: 0.3, Clustering: 0.5, DensityDecay: 0.4, Seed: 5}
}

func longChainCore() *soc.Core {
	return &soc.Core{Name: "longchain", Inputs: 150, Outputs: 20, ScanChains: []int{400},
		Patterns: 10, CareDensity: 0.2, Clustering: 0.6, Seed: 8}
}

// TestKernelPathsAgree holds the counting kernel to the reference
// encoder on cores spanning the care densities it sees (dense 0.55,
// thin 0.02, combinational, small), a core with no input cells, a core
// with one long chain and many inputs (codec groups of very unequal
// depths) and a core whose slices tie: with group copy, TDC must equal
// the real encoder's stream (referenceTDCquiet); without it, the
// reference is one codeword per target bit of selenc.ChooseFill. m runs
// over 1, widths that are not a multiple of the payload width k, and
// the core's maximum. Every row is priced through the kept whole-set
// window and through windows of 1 and 64 cubes, so the care refs are
// re-encoded to segment refs on every load. After every pass each
// counter must be zero over the scratch's full length, and the rows
// must send cubes down both arms of the reset rule (bulkReset), with
// group copy and without: the dense core clears in bulk, the thin core
// walks its cells.
func TestKernelPathsAgree(t *testing.T) {
	type row struct {
		core *soc.Core
		ms   []int
	}
	var rows []row
	for _, c := range []*soc.Core{
		smallCore(7), denseCore(), thinCore(),
		{Name: "comb", Inputs: 130, Outputs: 5, Patterns: 9, CareDensity: 0.4, Seed: 12},
		noInputCore(), longChainCore(),
	} {
		rows = append(rows, row{c, []int{1, 3, 17, 40, c.MaxWrapperChains()}})
	}
	rows = append(rows, row{tieCore(), []int{10}})
	bulk, walk := map[bool]int{}, map[bool]int{} // cubes per reset arm, by groupCopy
	for _, r := range rows {
		c := r.core
		var evs []*Evaluator
		for _, window := range []int{0, 1, 64} {
			ev, err := newEvaluator(c, window)
			if err != nil {
				t.Fatal(err)
			}
			evs = append(evs, ev)
		}
		for _, m := range r.ms {
			if m > c.MaxWrapperChains() {
				continue
			}
			for _, gc := range []bool{true, false} {
				ref := referenceTDCquiet
				if !gc {
					ref = referenceTDCTargets
				}
				wantTime, wantVol := ref(c, m)
				for _, ev := range evs {
					cfg, err := ev.TDC(m, gc)
					if err != nil {
						t.Fatal(err)
					}
					if cfg.Time != wantTime || cfg.Volume != wantVol {
						t.Errorf("%s m=%d groupCopy=%v window=%d: kernel (τ=%d, V=%d) != reference (τ=%d, V=%d)",
							c.Name, m, gc, ev.window, cfg.Time, cfg.Volume, wantTime, wantVol)
					}
					checkCountersZero(t, ev, fmt.Sprintf("%s m=%d groupCopy=%v window=%d", c.Name, m, gc, ev.window))
				}
				b, w := resetArms(evs[0], gc)
				bulk[gc] += b
				walk[gc] += w
				if c.Name == "dense" && w != 0 || c.Name == "thin" && b != 0 {
					t.Errorf("%s m=%d groupCopy=%v: %d cubes reset in bulk, %d by walking their cells", c.Name, m, gc, b, w)
				}
			}
		}
	}
	for _, gc := range []bool{true, false} {
		if bulk[gc] == 0 || walk[gc] == 0 {
			t.Errorf("groupCopy=%v: %d cubes reset in bulk and %d by walking their cells, want both arms taken",
				gc, bulk[gc], walk[gc])
		}
	}
	// The tie row must actually tie.
	referenceCost(tieCore(), 10, func(slice []selenc.CareBit) int64 {
		ones := 0
		for _, cb := range slice {
			if cb.Value {
				ones++
			}
		}
		if ones*2 != len(slice) {
			t.Errorf("tie core slice has %d ones among %d care bits, want a tie", ones, len(slice))
		}
		return 1
	})
}

// checkCountersZero fails the test unless every counter of ev's kernel
// scratch is zero, beyond the last point's span too.
func checkCountersZero(t *testing.T, ev *Evaluator, what string) {
	t.Helper()
	for i, b := range ev.kern.bal {
		if b != 0 {
			t.Fatalf("%s: row balance %d of %d left at %d", what, i, len(ev.kern.bal), b)
		}
	}
	for i, n := range ev.kern.slot {
		if n != 0 {
			t.Fatalf("%s: slot %d of %d left at %d", what, i, len(ev.kern.slot), n)
		}
	}
}

// resetArms counts the cubes of ev's kept whole-set window that the
// reset rule sends to the bulk clear and to the cell walk at ev's last
// priced point.
func resetArms(ev *Evaluator, groupCopy bool) (bulk, walk int) {
	slots := 0
	if groupCopy {
		slots = ev.pt.slots
	}
	for j := 0; j < ev.win.count; j++ {
		if bulkReset(slots, int(ev.pt.si), len(ev.win.CubeRefs(j))) {
			bulk++
		} else {
			walk++
		}
	}
	return bulk, walk
}

// TestSegmentTableMatchesStimulusMap holds the point table to the
// wrapper's stimulus map on random cores at every m in
// 1..MaxWrapperChains: re-encoding a stimulus cell's position to a
// segment ref and resolving its cell through the kernel's packed add
// (resolveCell) must give the cell's StimulusMap depth as its row, the
// value bit must survive, and two cells must share a counter slot
// exactly when they share (Depth, Chain/k). Every slot lies below the
// point's slot count, which never exceeds StimulusBits.
func TestSegmentTableMatchesStimulusMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 120; i++ {
		chains := make([]int, rng.Intn(8))
		for j := range chains {
			chains[j] = 1 + rng.Intn(40)
		}
		c := &soc.Core{Name: "seg", Inputs: rng.Intn(20), Outputs: rng.Intn(10), Bidirs: rng.Intn(3),
			ScanChains: chains, Patterns: 1, CareDensity: 0.5}
		if i%4 == 0 {
			c.Inputs, c.Bidirs = 0, 0
		}
		if c.StimulusBits() == 0 {
			continue
		}
		refs := make([]uint64, c.StimulusBits())
		for pos := range refs {
			refs[pos] = uint64(pos)<<1 | uint64(pos%3&1)
		}
		segmentRefs(refs, segmentStarts(c))
		for m := 1; m <= c.MaxWrapperChains(); m++ {
			d, err := wrapper.New(c, m)
			if err != nil {
				t.Fatal(err)
			}
			pt := newTDCPoint(d, nil)
			if pt.slots > c.StimulusBits() {
				t.Fatalf("core %d m=%d: %d slots exceed %d stimulus bits", i, m, pt.slots, c.StimulusBits())
			}
			k := int32(selenc.PayloadBits(m))
			slotOf := make(map[[2]int32]uint32)
			cellOf := make(map[uint32][2]int32)
			for pos, p := range refs {
				cell := resolveCell(pt.segs, p)
				want := d.StimulusMap()[pos]
				if int(p&1) != pos%3&1 {
					t.Fatalf("core %d: cell %d lost its value bit", i, pos)
				}
				if cell.row() != uint32(want.Depth) {
					t.Fatalf("core %d m=%d: cell %d at row %d, StimulusMap depth %d", i, m, pos, cell.row(), want.Depth)
				}
				slot := cell.slot()
				if int(slot) >= pt.slots {
					t.Fatalf("core %d m=%d: cell %d slot %d outside [0,%d)", i, m, pos, slot, pt.slots)
				}
				key := [2]int32{want.Depth, want.Chain / k}
				if prev, ok := slotOf[key]; ok && prev != slot {
					t.Fatalf("core %d m=%d: (depth, group) %v in slots %d and %d", i, m, key, prev, slot)
				}
				if prev, ok := cellOf[slot]; ok && prev != key {
					t.Fatalf("core %d m=%d: slot %d shared by (depth, group) %v and %v", i, m, slot, prev, key)
				}
				slotOf[key], cellOf[slot] = slot, key
			}
		}
	}
}

// TestKernelSteadyStateZeroAlloc is the 0 allocs/op gate for the
// counting kernel: once the counters are warm, repeated tdcCost calls
// over a kept whole-set window must not allocate, on a dense and on a
// thin core; and moving a warm evaluator to a new m — design, point
// table and a pass — allocates nothing either: the design is rebuilt
// in place by the evaluator's packer. Run by the `make check`
// kernel-equivalence target.
func TestKernelSteadyStateZeroAlloc(t *testing.T) {
	for _, c := range []*soc.Core{denseCore(), thinCore()} {
		ev, err := NewEvaluator(c)
		if err != nil {
			t.Fatal(err)
		}
		d, err := ev.Design(9)
		if err != nil {
			t.Fatal(err)
		}
		pt := ev.point(d)
		ev.tdcCost(pt, true, Config{}, nil) // load and keep the whole-set window, warm the counters
		if !ev.kept() {
			t.Fatalf("%s: whole-set window not kept", c.Name)
		}
		allocs := testing.AllocsPerRun(20, func() {
			ev.tdcCost(pt, true, Config{}, nil)
			ev.tdcCost(pt, false, Config{}, nil)
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state tdcCost allocates %.1f allocs/op, want 0", c.Name, allocs)
		}

		ms := []int{5, 12, c.MaxWrapperChains()}
		for _, m := range ms { // warm the counters to every design's high-water mark
			if _, err := ev.TDC(m, true); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		newM := testing.AllocsPerRun(20, func() {
			i++
			if _, err := ev.TDC(ms[i%len(ms)], true); err != nil {
				t.Fatal(err)
			}
		})
		if newM != 0 {
			t.Errorf("%s: moving to a new m allocates %.1f allocs/op, want 0", c.Name, newM)
		}
	}
}

// TestEvaluatorMatchesOneShotAPI asserts the reusable evaluator returns
// exactly what the package-level one-shot functions do, and that
// consecutive calls at one m share the wrapper design. It goes back to
// earlier m values, so a point table kept past its design's rebuild
// would fail.
func TestEvaluatorMatchesOneShotAPI(t *testing.T) {
	c := smallCore(23)
	ev, err := NewEvaluator(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{1, 5, 11, 5, 1} {
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
