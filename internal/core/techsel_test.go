package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"soctap/internal/soc"
)

func TestEvalDictBasics(t *testing.T) {
	c := compressibleCore(21)
	cfg, err := EvalDict(c, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.Feasible || !cfg.UseTDC || cfg.Codec != CodecDict {
		t.Fatalf("metadata wrong: %+v", cfg)
	}
	if cfg.Width != 1+4 { // 1 flag bit + ceil(log2 16)
		t.Errorf("Width = %d, want 5", cfg.Width)
	}
	if cfg.M != 32 || cfg.Time <= 0 || cfg.Volume <= 0 {
		t.Errorf("degenerate config %+v", cfg)
	}
	if _, err := EvalDict(c, 0, 16); err == nil {
		t.Error("m=0 accepted")
	}
	if _, err := EvalDict(c, 8, 0); err == nil {
		t.Error("dictWords=0 accepted")
	}
}

func TestEvalDictVolumeIncludesDownload(t *testing.T) {
	// A larger dictionary must charge a larger one-time download, so at
	// equal hit behaviour the volume difference is at least the SRAM
	// delta. Use a tiny core where the dictionary is far from full.
	c := &soc.Core{
		Name: "tinydict", Inputs: 4, Outputs: 4, ScanChains: []int{8, 8},
		Patterns: 4, CareDensity: 0.2, Seed: 9,
	}
	small, err := EvalDict(c, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if small.Volume <= 0 {
		t.Fatal("degenerate volume")
	}
}

// TestTechSelectionKeepsNoCore: a selection holds nothing of the core
// it priced. A core passed to SelectTechniques, whose table build and
// dictionary sweep generated and cached its test set, is collected once
// the caller drops it, while the returned selection stays live.
func TestTechSelectionKeepsNoCore(t *testing.T) {
	var collected atomic.Bool
	sel := func() *TechSelection {
		c := compressibleCore(22)
		runtime.SetFinalizer(c, func(*soc.Core) { collected.Store(true) })
		sel, err := SelectTechniques(c, TableOptions{MaxWidth: 16}, []int{16})
		if err != nil {
			t.Fatal(err)
		}
		return sel
	}()
	// Finalizers run on their own goroutine after the cycle that found
	// the object unreachable.
	for i := 0; i < 50 && !collected.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !collected.Load() {
		t.Error("the dropped core was not collected: the selection keeps it, and its test set, alive")
	}
	runtime.KeepAlive(sel)
}

func TestSelectTechniquesJoinsTables(t *testing.T) {
	c := compressibleCore(22)
	sel, err := SelectTechniques(c, TableOptions{MaxWidth: 16}, []int{16, 64})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := BuildTable(c, TableOptions{MaxWidth: 16})
	if err != nil {
		t.Fatal(err)
	}
	_, best := deriveRows(tab)
	for u := 1; u <= 16; u++ {
		win := sel.PerWidth[u]
		if !win.Feasible {
			t.Fatalf("width %d: no winner", u)
		}
		// The winner is never worse than the selenc/direct table alone,
		// and is the table's own choice unless the dictionary beats it.
		if best[u].better(win) {
			t.Errorf("width %d: selection (%d) worse than base table (%d)",
				u, win.Time, best[u].Time)
		}
		if !sel.DictBest[u].better(best[u]) && win != best[u] {
			t.Errorf("width %d: selection %+v, want the table's choice %+v", u, win, best[u])
		}
		// And never worse than the dictionary alone.
		if sel.DictBest[u].better(win) {
			t.Errorf("width %d: selection worse than dictionary", u)
		}
		// Dictionary configurations respect the width budget.
		if d := sel.DictBest[u]; d.Feasible && d.Width > u {
			t.Errorf("width %d: dict config uses %d wires", u, d.Width)
		}
	}
}

func TestSelectTechniquesDictionaryWinsOnRepetitiveCore(t *testing.T) {
	// A core whose patterns repeat the same few slice signatures is the
	// dictionary codec's home turf: after training, almost every slice
	// is a hit, beating selective encoding's per-target codewords.
	chains := make([]int, 16)
	for i := range chains {
		chains[i] = 20
	}
	base := &soc.Core{
		Name: "repetitive", Inputs: 8, Outputs: 8,
		ScanChains: chains, Patterns: 30,
		CareDensity: 0.5, Clustering: 0.1, Seed: 77,
	}
	// Make the test set literally repetitive: 30 copies of 3 distinct
	// dense cubes.
	ts, err := base.TestSet()
	if err != nil {
		t.Fatal(err)
	}
	for i := 3; i < len(ts.Cubes); i++ {
		ts.Cubes[i] = ts.Cubes[i%3].Clone()
	}

	sel, err := SelectTechniques(base, TableOptions{MaxWidth: 16}, []int{64})
	if err != nil {
		t.Fatal(err)
	}
	dictWins := false
	for u := 6; u <= 16; u++ {
		if sel.PerWidth[u].Codec == CodecDict {
			dictWins = true
		}
	}
	if !dictWins {
		t.Error("dictionary never selected on a repetitive dense core")
	}
}

func TestSelectTechniquesValidation(t *testing.T) {
	c := compressibleCore(23)
	if _, err := SelectTechniques(c, TableOptions{MaxWidth: 8}, []int{0}); err == nil {
		t.Error("dictionary size 0 accepted")
	}
}

func TestOptimizeWithDictNeverWorse(t *testing.T) {
	s := testSOC()
	var cache Cache
	topts := TableOptions{MaxWidth: 16}
	plain, err := Optimize(s, 16, Options{Style: StyleTDCPerCore, Tables: topts, Cache: &cache})
	if err != nil {
		t.Fatal(err)
	}
	withDict, err := Optimize(s, 16, Options{
		Style: StyleTDCPerCore, Tables: topts, Cache: &cache,
		EnableDict: true, DictSizes: []int{16, 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if withDict.TestTime > plain.TestTime {
		t.Errorf("technique selection made things worse: %d vs %d",
			withDict.TestTime, plain.TestTime)
	}
	if err := withDict.Schedule.Validate(); err != nil {
		t.Fatal(err)
	}
	// Choices carry consistent codec metadata.
	for _, ch := range withDict.Choices {
		switch ch.Config.Codec {
		case CodecDirect:
			if ch.Config.UseTDC {
				t.Errorf("%s: direct codec but UseTDC", ch.Core)
			}
		case CodecSelEnc, CodecDict:
			if !ch.Config.UseTDC {
				t.Errorf("%s: codec %q but UseTDC false", ch.Core, ch.Config.Codec)
			}
		default:
			t.Errorf("%s: unknown codec %q", ch.Core, ch.Config.Codec)
		}
		if ch.Config.Codec == CodecDict && ch.Config.DictWords < 1 {
			t.Errorf("%s: dict config without capacity", ch.Core)
		}
	}
}
