package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"soctap/internal/cube"
	"soctap/internal/soc"
	"soctap/internal/telemetry"
)

// trimmedCore copies a core's public description with a reduced pattern
// count, so the streaming-equivalence matrix over the industrial cores
// stays tractable under -race while still spanning several windows at
// streamWindow. (A fresh struct, not a shallow copy: Core embeds a
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

// decayCore has a strongly decaying density profile: at small windows
// the head windows are dense and the tail windows sparse, so window
// boundaries fall between cubes of very different care-bit counts.
func decayCore(seed int64) *soc.Core {
	return &soc.Core{
		Name: "decay", Inputs: 10, Outputs: 8,
		ScanChains: []int{40, 35, 30, 25, 20},
		Patterns:   90, CareDensity: 0.16, Clustering: 0.4, DensityDecay: 1,
		Seed: seed,
	}
}

// wholeSetWindow is a forced window past any test set here: the whole
// set streamed from the core's TestSource as one window, the per-band
// sweep's schedule over a streamed source.
const wholeSetWindow = 1 << 30

// streamWindows is the window axis of the equivalence matrix: single
// cube, a streamed core's window, and the whole set as one window.
var streamWindows = []int{1, streamWindow, wholeSetWindow}

// TestStreamingTableEquivalence is the bit-identity guarantee between
// the two sweep schedules: for every d695 and industrial core plus the
// decay and compressible synthetics, tables built at forced windows 1 and
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
	runs = append(runs, run{streamWindow, 3})
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
				opts.force.window = r.window
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
// against the resident evaluator's one whole-set window, including
// windows that split the set unevenly (patterns not a multiple of the
// window).
func TestStreamingEvaluatorEquivalence(t *testing.T) {
	for _, c := range []*soc.Core{smallCore(3), compressibleCore(5), decayCore(11)} {
		resident, err := newEvaluator(c, 0)
		if err != nil {
			t.Fatal(err)
		}
		if n := resident.windows(); n != 1 {
			t.Fatalf("%s: the residency rule split a small core into %d windows", c.Name, n)
		}
		for _, window := range []int{1, 7, streamWindow, wholeSetWindow} {
			ev, err := newEvaluator(c, window)
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

// TestEvalWindowValidation covers the window-selection edges: the
// residency rule's window (no forced window), wholeSetWindow, and
// window clamping.
func TestEvalWindowValidation(t *testing.T) {
	c := smallCore(1)
	// The residency rule on a small core, wholeSetWindow and windows
	// larger than the set all clamp to one whole-set window.
	for _, window := range []int{0, wholeSetWindow, 10_000} {
		ev, err := newEvaluator(c, window)
		if err != nil {
			t.Fatal(err)
		}
		if ev.window != c.Patterns || ev.windows() != 1 {
			t.Errorf("window %d: %d cubes × %d windows, want one window of %d", window, ev.window, ev.windows(), c.Patterns)
		}
	}
	ev, err := newEvaluator(c, 7)
	if err != nil {
		t.Fatal(err)
	}
	if n := ev.windows(); n != 3 { // ceil(20/7)
		t.Errorf("window 7: %d windows per pass, want 3", n)
	}
}

// TestEvaluatorStreamsAtThreshold: without a forced window, the
// evaluator of a core at the residency threshold (2^16 stimulus bits ×
// 2^15 patterns = 2^31 bits, soc.Core.StreamsCubes) streams its
// generator in ceil(patterns/64) windows, and getting there generates
// no cube: building it allocates less than half of one window's cubes
// (the generator's 8 KiB bitset and the evaluator's bookkeeping), where
// the set's cubes take about 40 MB.
func TestEvaluatorStreamsAtThreshold(t *testing.T) {
	c := &soc.Core{
		Name: "edge", Inputs: 16, ScanChains: balancedChainsForTest(1<<16-16, 63),
		Patterns: 1 << 15, CareDensity: 0.001, Seed: 1,
	}
	if !c.StreamsCubes() {
		t.Fatalf("%d raw stimulus bits: the core does not stream", c.StimulusVolumeBits())
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ev, err := NewEvaluator(c)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ev.src.(*cube.Generator); !ok {
		t.Errorf("source %T, want the core's generator", ev.src)
	}
	if got, want := ev.windows(), (c.Patterns+streamWindow-1)/streamWindow; got != want || ev.window != streamWindow {
		t.Errorf("%d windows of %d cubes, want %d of %d", got, ev.window, want, streamWindow)
	}
	// One window of cubes holds streamWindow × ~66 care bits of 16 B.
	if n := after.TotalAlloc - before.TotalAlloc; n >= 32<<10 {
		t.Errorf("building the evaluator allocated %d B; a streamed core's must generate no cube", n)
	}
}

// TestStreamingWindowTelemetry asserts the deterministic window
// counters: one pass of a streamed evaluation loads ceil(p/window)
// windows covering exactly p cubes.
func TestStreamingWindowTelemetry(t *testing.T) {
	c := smallCore(9) // 20 patterns
	tel := telemetry.New()
	ev, err := newEvaluator(c, 7)
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
	ev, err = newEvaluator(c, 0)
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

	// A table build's producer loads a kept window before its workers
	// start, which counts nothing: unpruned, every sampled point is one
	// completed pass over that window, so the build counts one window
	// per evaluation.
	tel = telemetry.New()
	opts := TableOptions{MaxWidth: 8, Workers: 2, force: sweepForce{unpruned: true}}
	if _, err := buildTable(context.Background(), c, opts, tel); err != nil {
		t.Fatal(err)
	}
	sn = tel.Snapshot()
	points := sampledBandPoints(t, c, opts)
	if loads, evals := sn.Counters["eval.window_loads"], sn.Counters["eval.tdc_evals"]; loads != points || evals != points {
		t.Errorf("kept-window build: window_loads %d, tdc_evals %d, want both %d", loads, evals, points)
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
// resident whole-set window on a small synthetic core: any (seed, patterns,
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
		resident, err := newEvaluator(c, 0)
		if err != nil {
			t.Skip()
		}
		streamed, err := newEvaluator(c, window)
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
