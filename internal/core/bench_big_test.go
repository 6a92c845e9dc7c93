package core

// Giant-workload benchmarks and the streaming memory contract. The
// full-size variants run from `make bench-big` (and the acceptance
// test behind SOCTAP_GIANT=1); `make check` runs the short-mode bench
// and the window-proportional smoke test, which use a scaled-down
// member of the same design family.

import (
	"context"
	"os"
	"reflect"
	"runtime"
	"testing"

	"soctap/internal/soc"
	"soctap/internal/telemetry"
)

// giantSOC synthesizes a giant-profile design for the benches; the
// (patterns, scale) knobs produce the scaled-down short-mode member.
func giantSOC(tb testing.TB, cores, patterns int, scale float64) *soc.SOC {
	tb.Helper()
	s, err := soc.Synthesize(context.Background(), soc.SynthSpec{
		Name: "giant", Profile: "giant", Cores: cores, Seed: 1,
		Patterns: patterns, Scale: scale,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// freshCore copies a core's public description so each measurement
// starts without a cached test set (Core caches TestSet in a
// sync.Once, so reusing one instance would charge the first
// measurement and credit the rest).
func freshCore(c *soc.Core) *soc.Core {
	return &soc.Core{
		Name: c.Name, Inputs: c.Inputs, Outputs: c.Outputs, Bidirs: c.Bidirs,
		ScanChains: append([]int(nil), c.ScanChains...),
		Patterns:   c.Patterns, Gates: c.Gates,
		CareDensity: c.CareDensity, Clustering: c.Clustering,
		DensityDecay: c.DensityDecay, Seed: c.Seed,
	}
}

// retainedBytes reports the GC-settled heap growth of whatever build
// returns — the memory the returned value keeps live, excluding
// transient garbage.
func retainedBytes(build func() any) int64 {
	runtime.GC()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	v := build()
	runtime.GC()
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(v)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// evalFootprint runs a TDC probe through an evaluator at the given
// window and reports the evaluator's retained bytes afterwards, scratch
// buffers at their high-water size included. Window 0 on a core under
// the streaming threshold is the materialized footprint: the cached
// test set plus its kept whole-set window.
func evalFootprint(tb testing.TB, c *soc.Core, window, m int) int64 {
	tb.Helper()
	return retainedBytes(func() any {
		ev, err := newEvaluator(freshCore(c), window)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := ev.TDC(m, true); err != nil {
			tb.Fatal(err)
		}
		return ev
	})
}

// TestStreamingPeakMemorySmoke is the tier-1 memory gate: on a
// mid-size core, a window-64 evaluator's retained footprint must stay
// window-proportional — window/patterns is 1/64 here, so even with a
// generous 16x constant for fixed per-evaluator structures the
// streamed footprint must come in under a quarter of the materialized
// one. The peak-heap gauge must record a plausible high-water mark.
func TestStreamingPeakMemorySmoke(t *testing.T) {
	c := &soc.Core{
		Name: "smoke", Inputs: 40, Outputs: 30,
		ScanChains: balancedChainsForTest(3000, 50),
		Patterns:   4096, CareDensity: 0.05, Clustering: 0.6,
		DensityDecay: 0.9, Seed: 42,
	}
	resident := evalFootprint(t, c, 0, 8)
	streamed := evalFootprint(t, c, streamWindow, 8)
	if resident <= 0 || streamed <= 0 {
		t.Fatalf("implausible footprints: resident %d, streamed %d", resident, streamed)
	}
	if streamed*4 > resident {
		t.Errorf("streamed footprint %d B not window-proportional (resident %d B, window/patterns = 1/64)",
			streamed, resident)
	}

	tel := telemetry.New()
	ev, err := newEvaluator(freshCore(c), streamWindow)
	if err != nil {
		t.Fatal(err)
	}
	ev.attachTelemetry(tel)
	if _, err := ev.TDC(8, true); err != nil {
		t.Fatal(err)
	}
	if peak := tel.Snapshot().Gauges["eval.peak_heap_bytes"]; peak <= 0 {
		t.Errorf("peak-heap gauge recorded %d, want a positive high-water mark", peak)
	}
}

// balancedChainsForTest mirrors soc's balanced chain construction for
// in-package synthetic cores.
func balancedChainsForTest(cells, chains int) []int {
	out := make([]int, chains)
	for i := range out {
		out[i] = cells / chains
		if i < cells%chains {
			out[i]++
		}
	}
	return out
}

// TestStreamingPeakMemoryGiant is the paper-scale acceptance contract:
// a giant-profile design carries over a million cubes, and streaming
// one of its cores holds at least 10x less memory than materializing
// it. Minutes of runtime and hundreds of megabytes of transient heap,
// so it only runs when asked for: SOCTAP_GIANT=1 (`make bench-big`).
func TestStreamingPeakMemoryGiant(t *testing.T) {
	if os.Getenv("SOCTAP_GIANT") == "" {
		t.Skip("giant workload; set SOCTAP_GIANT=1 or run `make bench-big`")
	}
	s := giantSOC(t, 48, 0, 1)
	var cubes int64
	for _, c := range s.Cores {
		cubes += int64(c.Patterns)
	}
	if cubes < 1_000_000 {
		t.Fatalf("giant profile carries %d cubes, want >= 1M", cubes)
	}

	// Measure the design's cheapest core so the materialized side stays
	// within the test host's memory; the ratio only grows with size.
	probe := s.Cores[0]
	for _, c := range s.Cores[1:] {
		if c.StimulusVolumeBits() < probe.StimulusVolumeBits() {
			probe = c
		}
	}
	resident := evalFootprint(t, probe, 0, 8)
	streamed := evalFootprint(t, probe, streamWindow, 8)
	t.Logf("%s: resident %.1f MiB, streamed %.1f MiB (%.1fx)", probe.Name,
		float64(resident)/(1<<20), float64(streamed)/(1<<20),
		float64(resident)/float64(streamed))
	if streamed <= 0 || resident < 10*streamed {
		t.Errorf("streamed footprint %d B not >=10x below materialized %d B", streamed, resident)
	}
}

// BenchmarkFusedGiantTable builds a giant-family core's lookup table
// through the streamed fused sweep and once (untimed) over one
// whole-set window, asserting the two tables deeply equal and reporting
// how the fused pass amortizes source traversal:
//
//   - window-load-amortization-x: eval.fused_points × windows per pass
//     / eval.window_loads — the window loads one pass per point would
//     cost over the loads the fused sweep made, the
//     O(points×windows) → O(batches×windows) win (higher is better;
//     benchjson treats the -x suffix directionally)
//   - passes-per-point: eval.passes / eval.fused_points — the fraction
//     of a full source pass each (w, m) point costs under fusion
//     (1.0 would mean no fusion at all; informational)
//
// Short mode substitutes a scaled-down member of the same family so the
// bench doubles as a tripwire in `make check`, which requires an
// amortization of at least 5x.
func BenchmarkFusedGiantTable(b *testing.B) {
	cores, patterns, scale := 8, 0, 0.4
	if testing.Short() {
		cores, patterns, scale = 2, 400, 0.05
	}
	s := giantSOC(b, cores, patterns, scale)
	// Build the design's cheapest core: the amortization factor is
	// load-count arithmetic, invariant to core size, so the probe keeps
	// the whole-set oracle tractable.
	probe := s.Cores[0]
	for _, c := range s.Cores[1:] {
		if c.StimulusVolumeBits() < probe.StimulusVolumeBits() {
			probe = c
		}
	}
	opts := TableOptions{MaxWidth: 12, BandSamples: 4, force: sweepForce{window: streamWindow}}

	whole := opts
	whole.force.window = wholeSetWindow
	plain, err := BuildTable(probe, whole)
	if err != nil {
		b.Fatal(err)
	}
	windows := int64(probe.Patterns+streamWindow-1) / streamWindow

	var tbl *Table
	var fusedLoads, passes, points int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		telF := telemetry.New()
		tbl, err = buildTable(context.Background(), probe, opts, telF)
		if err != nil {
			b.Fatal(err)
		}
		sn := telF.Snapshot()
		fusedLoads = sn.Counters["eval.window_loads"]
		passes = sn.Counters["eval.passes"]
		points = sn.Counters["eval.fused_points"]
	}
	b.StopTimer()
	if !reflect.DeepEqual(tbl, plain) {
		b.Fatal("fused giant table differs from the whole-set-window build")
	}
	if fusedLoads <= 0 || points <= 0 {
		b.Fatalf("fused build recorded no pass telemetry: loads=%d points=%d", fusedLoads, points)
	}
	amortization := float64(points*windows) / float64(fusedLoads)
	if amortization < 5 {
		b.Errorf("window-load amortization %.1fx, want >= 5x", amortization)
	}
	b.ReportMetric(amortization, "window-load-amortization-x")
	b.ReportMetric(float64(passes)/float64(points), "passes-per-point")
}

// BenchmarkStreamGiantSweep prices a TDC probe pair on every core of a
// giant-profile SOC through the window-64 streaming evaluator,
// reporting cube and core throughput plus the peak-heap gauge. Short
// mode substitutes a scaled-down member of the same family so the
// bench doubles as a cheap tripwire in `make check`.
func BenchmarkStreamGiantSweep(b *testing.B) {
	cores, patterns, scale := 48, 0, 1.0
	if testing.Short() {
		cores, patterns, scale = 4, 600, 0.05
	}
	s := giantSOC(b, cores, patterns, scale)
	probes := []int{8, 32}

	tel := telemetry.New()
	var cubes, done int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range s.Cores {
			ev, err := newEvaluator(c, streamWindow)
			if err != nil {
				b.Fatal(err)
			}
			ev.attachTelemetry(tel)
			for _, m := range probes {
				if _, err := ev.TDC(m, true); err != nil {
					b.Fatal(err)
				}
				cubes += int64(c.Patterns)
			}
			done++
		}
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(float64(cubes)/secs, "cubes/s")
		b.ReportMetric(float64(done)/secs, "cores/s")
	}
	b.ReportMetric(float64(tel.Snapshot().Gauges["eval.peak_heap_bytes"]), "peak-bytes")
}
