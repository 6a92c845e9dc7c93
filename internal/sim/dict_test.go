package sim

import (
	"runtime"
	"slices"
	"testing"

	"soctap/internal/core"
	"soctap/internal/soc"
)

func TestRunDictCoreDeliversStimulus(t *testing.T) {
	c := simCore(31)
	for _, dw := range []int{4, 16, 64} {
		rep, err := RunDictCore(c, 20, dw)
		if err != nil {
			t.Fatalf("D=%d: %v", dw, err)
		}
		if rep.Mismatches != 0 {
			t.Errorf("D=%d: %d mismatches", dw, rep.Mismatches)
		}
		if rep.Slices == 0 || rep.VolumeBits <= 0 {
			t.Errorf("D=%d: degenerate report %+v", dw, rep)
		}
	}
}

func TestDictSimMatchesAnalytic(t *testing.T) {
	c := simCore(32)
	for _, dw := range core.DefaultDictSizes {
		cfg, err := core.EvalDict(c, 20, dw)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunDictCore(c, 20, dw)
		if err != nil {
			t.Fatal(err)
		}
		if rep.VolumeBits != cfg.Volume {
			t.Errorf("D=%d: simulated volume %d != analytic %d", dw, rep.VolumeBits, cfg.Volume)
		}
		if rep.W != cfg.Width {
			t.Errorf("D=%d: simulated width %d != analytic %d", dw, rep.W, cfg.Width)
		}
		if rep.Time != cfg.Time {
			t.Errorf("D=%d: simulated time %d != analytic %d", dw, rep.Time, cfg.Time)
		}
	}
}

func TestVerifyConfigDict(t *testing.T) {
	c := simCore(33)
	cfg, err := core.EvalDict(c, 20, core.DefaultDictSizes[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyConfig(c, cfg); err != nil {
		t.Errorf("valid dict config failed verification: %v", err)
	}
	bad := cfg
	bad.Volume += 7
	if err := VerifyConfig(c, bad); err == nil {
		t.Error("tampered dict volume passed verification")
	}
	bad = cfg
	bad.Time += 7
	if err := VerifyConfig(c, bad); err == nil {
		t.Error("tampered dict time passed verification")
	}
}

// TestVerifyPlanDictRecordedCapacity: a plan whose dictionaries were
// built at a non-default capacity verifies, because verification
// rebuilds each dictionary from the capacity its configuration records.
func TestVerifyPlanDictRecordedCapacity(t *testing.T) {
	for _, sizes := range [][]int{{8}, {4, 8}} {
		s := &soc.SOC{Name: "dictsoc", Cores: []*soc.Core{simCore(44), simCore(45)}}
		s.Cores[1].Name = "sc2"
		res, err := core.Optimize(s, 12, core.Options{
			Style:      core.StyleTDCPerCore,
			Tables:     core.TableOptions{MaxWidth: 12},
			EnableDict: true, DictSizes: sizes,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.ContainsFunc(res.Choices, func(ch core.CoreChoice) bool { return ch.Config.Codec == core.CodecDict }) {
			t.Fatalf("sizes %v: plan chose no dictionary", sizes)
		}
		if err := VerifyPlan(res); err != nil {
			t.Errorf("sizes %v: %v", sizes, err)
		}
	}
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDictMemoryFlat: dictionary pricing and replay hold one pattern and
// the dictionary, not the test set's slices. On a warm core, the bytes
// one EvalDict allocates, and one RunDictCore (whose packed stream is
// about a kilobyte per 50 patterns here), stay within a fixed bound
// when the pattern count is multiplied by 4.
func TestDictMemoryFlat(t *testing.T) {
	const bound = 128 << 10
	for _, patterns := range []int{50, 200} {
		c := simCore(61)
		c.Patterns = patterns
		if _, err := c.TestSet(); err != nil {
			t.Fatal(err)
		}
		var err error
		eval := allocated(func() { _, err = core.EvalDict(c, 20, 256) })
		if err != nil {
			t.Fatal(err)
		}
		run := allocated(func() { _, err = RunDictCore(c, 20, 256) })
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d patterns: EvalDict %d bytes, RunDictCore %d bytes", patterns, eval, run)
		if eval > bound || run > bound {
			t.Errorf("%d patterns: EvalDict allocates %d bytes, RunDictCore %d; want both within %d",
				patterns, eval, run, bound)
		}
	}
}
