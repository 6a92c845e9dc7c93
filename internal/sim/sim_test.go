package sim

import (
	"fmt"
	"slices"
	"testing"

	"soctap/internal/atevec"
	"soctap/internal/bitvec"
	"soctap/internal/core"
	"soctap/internal/cube"
	"soctap/internal/selenc"
	"soctap/internal/soc"
	"soctap/internal/wrapper"
)

func simCore(seed int64) *soc.Core {
	chains := make([]int, 20)
	for i := range chains {
		chains[i] = 15
	}
	return &soc.Core{
		Name: "simcore", Inputs: 10, Outputs: 8,
		ScanChains: chains, Patterns: 12,
		CareDensity: 0.08, Clustering: 0.7, Seed: seed,
	}
}

func TestRunTDCCoreDeliversStimulus(t *testing.T) {
	c := simCore(1)
	for _, m := range []int{1, 3, 7, 20, c.MaxWrapperChains()} {
		rep, err := RunTDCCore(c, m)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if rep.Mismatches != 0 {
			t.Errorf("m=%d: %d stimulus mismatches", m, rep.Mismatches)
		}
		if rep.Patterns != 12 {
			t.Errorf("m=%d: %d patterns", m, rep.Patterns)
		}
		if rep.Slices%int64(rep.Patterns) != 0 {
			t.Errorf("m=%d: slices %d not a multiple of patterns", m, rep.Slices)
		}
		if rep.Codewords < rep.Slices {
			t.Errorf("m=%d: fewer codewords (%d) than slices (%d)", m, rep.Codewords, rep.Slices)
		}
		if rep.VolumeBits != rep.Codewords*int64(rep.W) {
			t.Errorf("m=%d: volume accounting wrong", m)
		}
	}
}

func TestSimMatchesAnalyticVolume(t *testing.T) {
	// The analytic cost model and the bit-level simulation must agree
	// exactly on the compressed volume.
	c := simCore(2)
	for _, m := range []int{2, 5, 11, 25} {
		cfg, err := core.EvalTDC(c, m)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunTDCCore(c, m)
		if err != nil {
			t.Fatal(err)
		}
		if rep.VolumeBits != cfg.Volume {
			t.Errorf("m=%d: simulated %d != analytic %d", m, rep.VolumeBits, cfg.Volume)
		}
	}
}

func TestVerifyConfig(t *testing.T) {
	c := simCore(3)
	cfg, err := core.EvalTDC(c, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyConfig(c, cfg); err != nil {
		t.Errorf("valid config failed verification: %v", err)
	}
	// Tampered volume must be caught.
	bad := cfg
	bad.Volume++
	if err := VerifyConfig(c, bad); err == nil {
		t.Error("tampered volume passed verification")
	}
	// Direct-access configs pass trivially.
	direct, _ := core.EvalNoTDC(c, 4)
	if err := VerifyConfig(c, direct); err != nil {
		t.Errorf("direct config failed: %v", err)
	}
}

// TestVerifyClampedDirectConfigs: a bus wider than a core's useful
// wrapper chains leaves the extra wires idle, so a direct-access
// configuration's width may exceed its m. Every NoTDC table entry, and
// a direct-access plan that puts such a core on a wider bus, must verify.
func TestVerifyClampedDirectConfigs(t *testing.T) {
	c := &soc.Core{Name: "tiny", Inputs: 4, Outputs: 3, Patterns: 6, CareDensity: 0.5, Clustering: 0.5, Seed: 9}
	tab, err := core.BuildTable(c, core.TableOptions{MaxWidth: 8})
	if err != nil {
		t.Fatal(err)
	}
	for u := 1; u <= 8; u++ {
		if err := VerifyConfig(c, tab.NoTDC[u]); err != nil {
			t.Errorf("NoTDC[%d]: %v", u, err)
		}
	}
	res, err := core.Optimize(&soc.SOC{Name: "clampsoc", Cores: []*soc.Core{c}}, 8,
		core.Options{Style: core.StyleNoTDC, Tables: core.TableOptions{MaxWidth: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if cfg := res.Choices[0].Config; cfg.Width <= cfg.M {
		t.Fatalf("plan gives the core w=%d m=%d, want a clamped configuration", cfg.Width, cfg.M)
	}
	if err := VerifyPlan(res); err != nil {
		t.Errorf("clamped direct-access plan failed verification: %v", err)
	}
}

func TestVerifyPlanEndToEnd(t *testing.T) {
	s := &soc.SOC{Name: "simsoc", Cores: []*soc.Core{simCore(4), simCore(5), simCore(6)}}
	// Names must be unique.
	s.Cores[1].Name = "simcore2"
	s.Cores[2].Name = "simcore3"
	res, err := core.Optimize(s, 12, core.Options{
		Style:  core.StyleTDCPerCore,
		Tables: core.TableOptions{MaxWidth: 12},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyPlan(res); err != nil {
		t.Errorf("optimized plan failed simulation: %v", err)
	}
}

func TestVerifyPlanCatchesUnknownCore(t *testing.T) {
	s := &soc.SOC{Name: "simsoc", Cores: []*soc.Core{simCore(7)}}
	res, err := core.Optimize(s, 8, core.Options{
		Style:  core.StyleTDCPerCore,
		Tables: core.TableOptions{MaxWidth: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	res.Choices[0].Core = "nonexistent"
	if err := VerifyPlan(res); err == nil {
		t.Error("plan with unknown core verified")
	}
}

func TestRunTDCCoreErrors(t *testing.T) {
	c := simCore(8)
	if _, err := RunTDCCore(c, 0); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := RunTDCCore(c, c.MaxWrapperChains()+1); err == nil {
		t.Error("m beyond maximum accepted")
	}
}

func TestVerifyPlanAllStyles(t *testing.T) {
	s := &soc.SOC{Name: "stylesoc", Cores: []*soc.Core{simCore(41), simCore(42), simCore(43)}}
	s.Cores[1].Name = "sc2"
	s.Cores[2].Name = "sc3"
	for _, style := range []core.Style{core.StyleNoTDC, core.StyleTDCPerTAM, core.StyleTDCPerCore} {
		res, err := core.Optimize(s, 12, core.Options{
			Style:  style,
			Tables: core.TableOptions{MaxWidth: 12},
		})
		if err != nil {
			t.Fatalf("%v: %v", style, err)
		}
		if err := VerifyPlan(res); err != nil {
			t.Errorf("style %v failed verification: %v", style, err)
		}
	}
}

func TestVerifyPlanWithDict(t *testing.T) {
	s := &soc.SOC{Name: "dictsoc", Cores: []*soc.Core{simCore(44), simCore(45)}}
	s.Cores[1].Name = "sc2"
	res, err := core.Optimize(s, 12, core.Options{
		Style:      core.StyleTDCPerCore,
		Tables:     core.TableOptions{MaxWidth: 12},
		EnableDict: true, DictSizes: []int{16, 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyPlan(res); err != nil {
		t.Errorf("dict-enabled plan failed verification: %v", err)
	}
}

// plan optimizes a three-core SOC under a style for the plan tests.
func plan(t *testing.T, style core.Style) *core.Result {
	t.Helper()
	s := &soc.SOC{Name: "plansoc", Cores: []*soc.Core{simCore(51), simCore(52), simCore(53)}}
	s.Cores[1].Name = "pc2"
	s.Cores[2].Name = "pc3"
	res, err := core.Optimize(s, 12, core.Options{Style: style, Tables: core.TableOptions{MaxWidth: 12}})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// firstChoice returns the index of the first choice whose config
// satisfies ok.
func firstChoice(t *testing.T, res *core.Result, ok func(core.Config) bool) int {
	t.Helper()
	for i, ch := range res.Choices {
		if ok(ch.Config) {
			return i
		}
	}
	t.Fatal("plan has no choice of the wanted kind")
	return -1
}

func selEnc(cfg core.Config) bool { return cfg.UseTDC && cfg.Codec == core.CodecSelEnc }

// retime changes choice i's test time by delta and keeps the rest of the
// plan consistent with it: the schedule item's duration, every later
// test on the same bus, the bus time, the makespan and Result.TestTime.
// Only the configuration's own time is then wrong.
func retime(res *core.Result, i int, delta int64) {
	s := res.Schedule
	it := s.Items[i]
	for j := range s.Items {
		if s.Items[j].Bus == it.Bus && s.Items[j].Start > it.Start {
			s.Items[j].Start += delta
			res.Choices[j].Start += delta
		}
	}
	s.Items[i].Duration += delta
	res.Choices[i].Config.Time += delta
	s.BusTimes[it.Bus] += delta
	s.Makespan = slices.Max(s.BusTimes)
	res.TestTime = s.Makespan
}

// TestVerifyPlanCatchesCorruptPlans: every corruption of an optimized
// plan fails verification, including those no single configuration
// shows (a core never tested or tested twice, a choice off its schedule
// item, wrong plan totals) and configurations whose numbers disagree
// with the simulation or the wrapper design.
func TestVerifyPlanCatchesCorruptPlans(t *testing.T) {
	cases := []struct {
		name    string
		style   core.Style
		corrupt func(t *testing.T, res *core.Result)
	}{
		{"dropped choice", core.StyleTDCPerCore, func(t *testing.T, res *core.Result) {
			res.Choices = res.Choices[1:]
		}},
		{"duplicated choice", core.StyleTDCPerCore, func(t *testing.T, res *core.Result) {
			res.Choices[len(res.Choices)-1] = res.Choices[0]
		}},
		{"selective-encoding time off by 100", core.StyleTDCPerCore, func(t *testing.T, res *core.Result) {
			retime(res, firstChoice(t, res, selEnc), 100)
		}},
		{"codeword width too narrow", core.StyleTDCPerCore, func(t *testing.T, res *core.Result) {
			res.Choices[firstChoice(t, res, selEnc)].Config.Width = 1
		}},
		{"wider than its bus", core.StyleTDCPerCore, func(t *testing.T, res *core.Result) {
			ch := &res.Choices[0]
			ch.Config.Width = res.Partition[ch.Bus] + 1
		}},
		{"volume and test time halved", core.StyleTDCPerCore, func(t *testing.T, res *core.Result) {
			res.Volume /= 2
			res.TestTime /= 2
		}},
		{"start off its schedule item", core.StyleTDCPerCore, func(t *testing.T, res *core.Result) {
			res.Choices[0].Start++
		}},
		{"direct time off by 100", core.StyleNoTDC, func(t *testing.T, res *core.Result) {
			retime(res, 0, 100)
		}},
		{"direct width is not m", core.StyleNoTDC, func(t *testing.T, res *core.Result) {
			res.Choices[0].Config.Width--
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := plan(t, tc.style)
			if err := VerifyPlan(res); err != nil {
				t.Fatalf("uncorrupted plan failed: %v", err)
			}
			tc.corrupt(t, res)
			if err := VerifyPlan(res); err == nil {
				t.Error("corrupted plan verified")
			} else {
				t.Log(err)
			}
		})
	}
}

// TestShippedStreamMutationsFail flips, one at a time, each prefix bit
// of every header and each payload bit of every single-bit codeword in a
// core's shipped stream, and drops its last codeword: the receiver must
// reject every mutant, by a decode error, a wrong slice count or a
// stimulus mismatch.
func TestShippedStreamMutationsFail(t *testing.T) {
	c := simCore(61)
	const m = 7
	d, err := wrapper.New(c, m)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := c.TestSet()
	if err != nil {
		t.Fatal(err)
	}
	enc := atevec.NewEncoder(d)
	streams := make([]*bitvec.Vector, ts.Len())
	for pi, cb := range ts.Cubes {
		streams[pi] = enc.Encode(cb).Clone()
	}
	receive := func() error {
		r, err := newReceiver(d)
		if err != nil {
			t.Fatal(err)
		}
		for pi, cb := range ts.Cubes {
			if err := r.pattern(cb, streams[pi]); err != nil {
				return err
			}
		}
		if r.rep.Mismatches != 0 {
			return fmt.Errorf("%d stimulus mismatches", r.rep.Mismatches)
		}
		return nil
	}
	if err := receive(); err != nil {
		t.Fatalf("unmutated stream rejected: %v", err)
	}

	w, k := selenc.CodewordWidth(m), selenc.PayloadBits(m)
	headers, singles := 0, 0
	for pi, v := range streams {
		for pos := 0; pos < v.Len(); pos += w {
			var flips []int
			switch v.ReadBits(pos, 2) {
			case uint64(selenc.PrefixHeader):
				flips = []int{pos, pos + 1}
				headers++
			case uint64(selenc.PrefixSingle):
				for b := 0; b < k; b++ {
					flips = append(flips, pos+2+b)
				}
				singles++
			}
			for _, bit := range flips {
				v.Set(bit, !v.Get(bit))
				if receive() == nil {
					t.Errorf("pattern %d: flipping stream bit %d went undetected", pi, bit)
				}
				v.Set(bit, !v.Get(bit))
			}
		}
	}
	t.Logf("%d headers, %d single-bit codewords mutated", headers, singles)
	if headers == 0 || singles == 0 {
		t.Fatalf("stream has %d headers and %d single-bit codewords; want both", headers, singles)
	}

	last := streams[len(streams)-1]
	streams[len(streams)-1] = bitvec.New(last.Len() - w)
	bitvec.CopyBits(streams[len(streams)-1].Words(), 0, last.Words(), 0, last.Len()-w)
	if receive() == nil {
		t.Error("dropping the last codeword went undetected")
	}
}

// TestRunTDCCoreAllocsFlat: once a core is warm, simulating it costs a
// fixed set-up and no allocation per pattern or delivered slice, so the
// same cubes repeated twice allocate exactly as much as once.
func TestRunTDCCoreAllocsFlat(t *testing.T) {
	allocs := func(repeat int) float64 {
		base := simCore(71)
		ts, err := base.TestSet()
		if err != nil {
			t.Fatal(err)
		}
		explicit := &cube.Set{NumBits: ts.NumBits}
		for range repeat {
			explicit.Cubes = append(explicit.Cubes, ts.Cubes...)
		}
		c := simCore(71)
		c.Patterns, c.ExplicitCubes = explicit.Len(), explicit
		if _, err := RunTDCCore(c, 9); err != nil { // warm the cached test set
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := RunTDCCore(c, 9); err != nil {
				t.Fatal(err)
			}
		})
	}
	if p, p2 := allocs(1), allocs(2); p2 != p {
		t.Errorf("RunTDCCore allocates %.0f at P patterns and %.0f at 2P; want equal", p, p2)
	}
}
