package core

import (
	"reflect"
	"testing"

	"soctap/internal/cube"
	"soctap/internal/soc"
	"soctap/internal/telemetry"
)

// trimmedCore copies a core's public description with a reduced pattern
// count, so the streaming-equivalence matrix over the industrial cores
// stays tractable under -race while still spanning several windows at
// DefaultEvalWindow. (A fresh struct, not a shallow copy: Core embeds a
// sync.Once.)
func trimmedCore(c *soc.Core, patterns int) *soc.Core {
	out := &soc.Core{
		Name: c.Name, Inputs: c.Inputs, Outputs: c.Outputs, Bidirs: c.Bidirs,
		ScanChains: append([]int(nil), c.ScanChains...),
		Patterns:   c.Patterns, Gates: c.Gates,
		CareDensity: c.CareDensity, Clustering: c.Clustering,
		DensityDecay: c.DensityDecay, Seed: c.Seed,
	}
	if patterns > 0 && patterns < out.Patterns {
		out.Patterns = patterns
	}
	return out
}

// decayCore has a strongly decaying density profile chosen so that at
// small windows the head windows measure dense (≥ denseDensityThreshold)
// and the tail windows sparse — every pass flips the kernel strategy
// mid-stream, exercising the slice-plane re-zeroing handoff.
func decayCore(seed int64) *soc.Core {
	return &soc.Core{
		Name: "decay", Inputs: 10, Outputs: 8,
		ScanChains: []int{40, 35, 30, 25, 20},
		Patterns:   90, CareDensity: 0.16, Clustering: 0.4, DensityDecay: 1,
		Seed: seed,
	}
}

// streamWindows is the window axis of the equivalence matrix: single
// cube, the default, and the whole set as one window.
var streamWindows = []int{1, DefaultEvalWindow, EvalWindowAll}

// TestStreamingTableEquivalence is the bit-identity guarantee between
// the two sweep schedules: for every d695 and industrial core plus the
// decay and compressible synthetics, tables built with EvalWindow 1 and
// 64 (the fused sweep, wherever the set spans several windows) and ∞
// (the per-band sweep over a streamed whole-set window) must be deeply
// equal to the window-0 build (the per-band sweep over the cached set)
// — same Configs, same normalized Opts — at Workers 1 and 8 alike. The
// matrix re-runs window 64 at a tiny fused batch size so band
// incumbents carry across fused passes — the multi-batch schedule a
// giant core sees. Industrial cores run with reduced patterns, width
// and band sampling so the full matrix stays tractable under -race.
func TestStreamingTableEquivalence(t *testing.T) {
	type tc struct {
		core *soc.Core
		opts TableOptions
	}
	var cases []tc
	for _, c := range soc.D695().Cores {
		cases = append(cases, tc{c, TableOptions{MaxWidth: 8, BandSamples: 3}})
	}
	for _, name := range soc.IndustrialCoreNames() {
		cases = append(cases, tc{trimmedCore(soc.MustIndustrialCore(name), 50),
			TableOptions{MaxWidth: 7, BandSamples: 2}})
	}
	cases = append(cases, tc{decayCore(7), TableOptions{MaxWidth: 12}})
	cases = append(cases, tc{compressibleCore(17), TableOptions{MaxWidth: 10, BandSamples: 4}})
	type run struct{ window, batch int }
	var runs []run
	for _, window := range streamWindows {
		runs = append(runs, run{window, fusedBatchPoints})
	}
	runs = append(runs, run{DefaultEvalWindow, 3})
	defer func(old int) { fusedBatchPoints = old }(fusedBatchPoints)
	for _, cse := range cases {
		base, err := BuildTable(cse.core, cse.opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range runs {
			fusedBatchPoints = r.batch
			for _, workers := range []int{1, 8} {
				opts := cse.opts
				opts.EvalWindow = r.window
				opts.Workers = workers
				got, err := BuildTable(cse.core, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, base) {
					t.Errorf("%s window=%d batch=%d workers=%d: table differs from the window-0 build",
						cse.core.Name, r.window, r.batch, workers)
				}
			}
		}
	}
}

// TestStreamingEvaluatorEquivalence compares the evaluator primitives
// (TDC with and without group copy, PatternBits) at every window
// against the auto-mode evaluator's one whole-set window, including
// windows that split the set unevenly (patterns not a multiple of the
// window).
func TestStreamingEvaluatorEquivalence(t *testing.T) {
	for _, c := range []*soc.Core{smallCore(3), compressibleCore(5), decayCore(11)} {
		resident, err := NewEvaluatorWindow(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		if n := resident.windows(); n != 1 {
			t.Fatalf("%s: auto mode split a small core into %d windows", c.Name, n)
		}
		for _, window := range []int{1, 7, DefaultEvalWindow, EvalWindowAll} {
			ev, err := NewEvaluatorWindow(c, window)
			if err != nil {
				t.Fatal(err)
			}
			want := 1
			if window > 0 {
				want = (c.Patterns + window - 1) / window
			}
			if n := ev.windows(); n != want {
				t.Fatalf("%s window=%d: %d windows per pass, want %d", c.Name, window, n, want)
			}
			for _, m := range []int{2, 5, 9} {
				for _, gc := range []bool{true, false} {
					want, err := resident.TDC(m, gc)
					if err != nil {
						t.Fatal(err)
					}
					got, err := ev.TDC(m, gc)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("%s window=%d m=%d gc=%v: streamed %+v, resident %+v",
							c.Name, window, m, gc, got, want)
					}
				}
				wantBits, err := resident.PatternBits(m)
				if err != nil {
					t.Fatal(err)
				}
				gotBits, err := ev.PatternBits(m)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotBits, wantBits) {
					t.Errorf("%s window=%d m=%d: streamed PatternBits differ", c.Name, window, m)
				}
			}
		}
	}
}

// TestEvalWindowValidation covers the window-selection edges: rejected
// negative windows (by the evaluator and by TableOptions.Validate),
// EvalWindowAll, auto mode, and window clamping.
func TestEvalWindowValidation(t *testing.T) {
	c := smallCore(1)
	if _, err := NewEvaluatorWindow(c, -2); err == nil {
		t.Error("EvalWindow -2 accepted")
	}
	if err := (TableOptions{EvalWindow: -2}).Validate(); err == nil {
		t.Error("TableOptions.Validate accepted EvalWindow -2")
	}
	if _, err := BuildTable(c, TableOptions{MaxWidth: 8, EvalWindow: -2}); err == nil {
		t.Error("BuildTable accepted EvalWindow -2")
	}
	for _, window := range []int{0, EvalWindowAll, DefaultEvalWindow, 7} {
		if err := (TableOptions{EvalWindow: window}).Validate(); err != nil {
			t.Errorf("TableOptions.Validate rejected EvalWindow %d: %v", window, err)
		}
	}
	// Auto mode, EvalWindowAll and windows larger than the set all
	// clamp to one whole-set window.
	for _, window := range []int{0, EvalWindowAll, 10_000} {
		ev, err := NewEvaluatorWindow(c, window)
		if err != nil {
			t.Fatal(err)
		}
		if ev.window != c.Patterns || ev.windows() != 1 {
			t.Errorf("window %d: %d cubes × %d windows, want one window of %d", window, ev.window, ev.windows(), c.Patterns)
		}
	}
	ev, err := NewEvaluatorWindow(c, 7)
	if err != nil {
		t.Fatal(err)
	}
	if n := ev.windows(); n != 3 { // ceil(20/7)
		t.Errorf("window 7: %d windows per pass, want 3", n)
	}
}

// TestStreamingWindowTelemetry asserts the deterministic window
// counters: one pass of a streamed evaluation loads ceil(p/window)
// windows covering exactly p cubes.
func TestStreamingWindowTelemetry(t *testing.T) {
	c := smallCore(9) // 20 patterns
	tel := telemetry.New()
	ev, err := NewEvaluatorWindow(c, 7)
	if err != nil {
		t.Fatal(err)
	}
	ev.attachTelemetry(tel)
	if _, err := ev.TDC(4, true); err != nil {
		t.Fatal(err)
	}
	sn := tel.Snapshot()
	if got := sn.Counters["eval.window_loads"]; got != 3 { // ceil(20/7)
		t.Errorf("window_loads = %d, want 3", got)
	}
	if got := sn.Counters["eval.window_cubes"]; got != 20 {
		t.Errorf("window_cubes = %d, want 20", got)
	}

	// A whole-set window loads once and is kept: every pass counts the
	// window it prices, but only the first replays the source.
	tel = telemetry.New()
	ev, err = NewEvaluatorWindow(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{Source: ev.src}
	ev.src = src
	ev.attachTelemetry(tel)
	for _, m := range []int{4, 6} {
		if _, err := ev.TDC(m, true); err != nil {
			t.Fatal(err)
		}
	}
	if got := tel.Snapshot().Counters["eval.window_loads"]; got != 2 {
		t.Errorf("kept window: window_loads = %d, want one per pass (2)", got)
	}
	if src.next != 20 {
		t.Errorf("kept window: source yielded %d cubes over two passes, want 20", src.next)
	}
}

// countingSource counts the cubes a source yields.
type countingSource struct {
	cube.Source
	next int
}

func (s *countingSource) Next() (*cube.Cube, bool) {
	s.next++
	return s.Source.Next()
}

// FuzzStreamingWindowEquivalence fuzzes the window axis against the
// auto-mode whole-set window on a small synthetic core: any (seed, patterns,
// density, window, m) combination must price identically however the
// set is split into windows. Seeds pin the interesting boundaries —
// window 1, window == patterns, patterns one off a window multiple.
func FuzzStreamingWindowEquivalence(f *testing.F) {
	f.Add(int64(1), 20, 0.15, 1, 4)
	f.Add(int64(2), 65, 0.05, 64, 6) // one cube past a window boundary
	f.Add(int64(3), 64, 0.30, 64, 3) // exactly one full window
	f.Add(int64(4), 63, 0.20, 64, 5) // one cube short of a window
	f.Add(int64(5), 33, 0.16, 16, 2) // dense head / sparse tail splits
	f.Add(int64(6), 10, 0.90, 3, 7)  // saturated cubes
	f.Fuzz(func(t *testing.T, seed int64, patterns int, density float64, window, m int) {
		if patterns < 1 || patterns > 120 {
			return
		}
		if !(density > 0 && density <= 1) {
			return
		}
		if window < 1 || window > 200 {
			return
		}
		if m < 1 || m > 20 {
			return
		}
		c := &soc.Core{
			Name: "fuzz", Inputs: 8, Outputs: 6,
			ScanChains: []int{30, 25, 20, 15},
			Patterns:   patterns, CareDensity: density,
			Clustering: 0.5, DensityDecay: 1, Seed: seed,
		}
		resident, err := NewEvaluatorWindow(c, 0)
		if err != nil {
			t.Skip()
		}
		streamed, err := NewEvaluatorWindow(c, window)
		if err != nil {
			t.Fatal(err)
		}
		want, err := resident.TDC(m, true)
		if err != nil {
			t.Fatal(err)
		}
		got, err := streamed.TDC(m, true)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("window=%d: streamed %+v != resident %+v", window, got, want)
		}
	})
}
